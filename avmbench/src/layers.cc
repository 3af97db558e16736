#include "avmbench/src/layers.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <tuple>

#include "avmbench/src/common.h"
#include "src/audit/message_check.h"
#include "src/avmm/message.h"
#include "src/compress/lzss.h"
#include "src/obs/trace.h"

namespace avmbench {

uint64_t CountSignatures(const avm::LogSegment& log, std::span<const avm::Authenticator> auths) {
  uint64_t n = 0;
  for (const avm::LogEntry& e : log.entries) {
    if (e.type == avm::EntryType::kSend || e.type == avm::EntryType::kRecv) {
      avm::MessageRecord msg;
      avm::Bytes sig;
      n += avm::ParseMessageEntry(e, &msg, &sig) && !sig.empty() ? 1 : 0;
    } else if (e.type == avm::EntryType::kAck) {
      n += avm::AckFrame::Deserialize(e.content).auth.signature.empty() ? 0 : 1;
    }
  }
  for (const avm::Authenticator& a : auths) {
    n += a.signature.empty() ? 0 : 1;
  }
  return n;
}

namespace {

// Digests re-driven through the crypto layer per pass.
constexpr size_t kMaxDigests = 256;
// ComputeStateRoot calls per pass.
constexpr int kStateRoots = 10;
// Raw log bytes pushed through LZSS per pass, in seal-sized chunks.
constexpr size_t kCompressBytes = 4u << 20;
constexpr size_t kCompressChunk = 1u << 20;

uint64_t CounterValue(const char* name) {
  return avm::obs::Registry::Global().GetCounter(name)->Value();
}

// The obs span category of the benchmark's own spans. Their names are
// "<layer>.<call>"; the system's spans (other categories) nest inside them.
constexpr char kBenchCat[] = "bench";

// Times `fn` under a bench span named `name` and appends the seconds to
// `samples`.
template <typename Fn>
void Timed(const char* name, std::vector<double>* samples, Fn&& fn) {
  avm::obs::Span span(name, kBenchCat);
  double t0 = NowSeconds();
  fn();
  samples->push_back(NowSeconds() - t0);
}

struct BenchSpan {
  std::string name;
  uint64_t tid;
  uint64_t ts_us;
  uint64_t dur_us;
};

// The bench spans of an obs::ChromeTraceJson() document, whose events are
// flat {"name","cat","ph","pid","tid","ts","dur"} objects.
std::vector<BenchSpan> ParseBenchSpans(const std::string& json) {
  std::vector<BenchSpan> out;
  auto str = [](const std::string& ev, const char* key) {
    size_t at = ev.find(key);
    if (at == std::string::npos) {
      return std::string();
    }
    at += std::strlen(key);
    return ev.substr(at, ev.find('"', at) - at);
  };
  auto num = [](const std::string& ev, const char* key) -> uint64_t {
    size_t at = ev.find(key);
    return at == std::string::npos
               ? 0
               : std::strtoull(ev.c_str() + at + std::strlen(key), nullptr, 10);
  };
  for (size_t pos = json.find("{\"name\":"); pos != std::string::npos;
       pos = json.find("{\"name\":", pos + 1)) {
    const std::string ev = json.substr(pos, json.find('}', pos) - pos);
    if (str(ev, "\"cat\":\"") == kBenchCat) {
      out.push_back({str(ev, "\"name\":\""), num(ev, "\"tid\":"), num(ev, "\"ts\":"),
                     num(ev, "\"dur\":")});
    }
  }
  return out;
}

// Self seconds per layer (the span name up to the first '.'): each span's
// duration minus its direct children's, the parent being the innermost
// span of the same thread that encloses it.
std::map<std::string, double> SelfSecondsByLayer(std::vector<BenchSpan> spans) {
  std::sort(spans.begin(), spans.end(), [](const BenchSpan& a, const BenchSpan& b) {
    return std::tie(a.tid, a.ts_us, b.dur_us) < std::tie(b.tid, b.ts_us, a.dur_us);
  });
  std::vector<double> self(spans.size());
  std::vector<size_t> open;
  for (size_t i = 0; i < spans.size(); i++) {
    while (!open.empty()) {
      const BenchSpan& top = spans[open.back()];
      if (top.tid == spans[i].tid && top.ts_us + top.dur_us > spans[i].ts_us) {
        break;
      }
      open.pop_back();
    }
    self[i] = static_cast<double>(spans[i].dur_us);
    if (!open.empty()) {
      self[open.back()] -= static_cast<double>(spans[i].dur_us);
    }
    open.push_back(i);
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans.size(); i++) {
    out[spans[i].name.substr(0, spans[i].name.find('.'))] += self[i] / 1e6;
  }
  return out;
}

}  // namespace

void RunLayers(const WorkloadSpec& spec, const Options& opt, Recording& art,
               const avm::LogSegment& log, std::span<const avm::Authenticator> auths,
               const std::string& trace_path, Ledger& ledger, RunResult* out) {
  const double entries = static_cast<double>(log.entries.size());
  const avm::KeyRegistry& registry = art.registry();
  const size_t mem_size = spec.run.mem_size;

  std::vector<avm::Hash256> digests;
  for (size_t i = 0; i < auths.size() && digests.size() < kMaxDigests; i++) {
    digests.push_back(avm::Authenticator::SignedPayloadDigest(auths[i].node, auths[i].seq,
                                                              auths[i].hash));
  }
  avm::Prng rng(ScenarioSeed(opt.seed) ^ 0x5eed);
  const avm::Signer signer("layer-signer", spec.run.scheme, rng);
  double log_bytes = 0;
  for (const avm::LogEntry& e : log.entries) {
    log_bytes += static_cast<double>(e.WireSize());
  }
  avm::Bytes raw = log.Serialize();
  raw.resize(std::min(raw.size(), kCompressBytes));
  avm::Bytes compressed;
  const avm::SnapshotStore& snaps = art.audited().snapshot_store();
  const std::string store_dir = opt.work_dir + "/layer-store";

  auto& p = out->passes;
  CpuRotor rotor;
  const int width = static_cast<int>(spec.audit_threads);
  avm::obs::ResetTrace();
  avm::obs::SetEnabled(true);
  const double t_start = NowSeconds();
  double jit_native = 0, jit_fallback = 0;
  uint64_t replayed = 0;
  for (int round = 0; round < 3 || NowSeconds() - t_start < opt.seconds; round++) {
    avm::obs::Span round_span("bench.round", kBenchCat);
    {
      rotor.Next(1);
      avm::obs::Span pass("bench.crypto_pass", kBenchCat);
      Timed("crypto.SignDigest", &p["crypto.sign_s"], [&] {
        for (const avm::Hash256& d : digests) {
          (void)signer.SignDigest(d);
        }
      });
      bool ok = true;
      Timed("crypto.VerifyDigest", &p["crypto.verify_s"], [&] {
        for (size_t i = 0; i < digests.size(); i++) {
          ok &= registry.VerifyDigest(auths[i].node, digests[i], auths[i].signature);
        }
      });
      ledger.Check(ok, "workload authenticators verify");
    }
    {
      rotor.Next(1);
      avm::obs::Span pass("bench.tel_pass", kBenchCat);
      std::vector<std::pair<avm::EntryType, avm::Bytes>> copies;
      copies.reserve(log.entries.size());
      for (const avm::LogEntry& e : log.entries) {
        copies.emplace_back(e.type, e.content);
      }
      avm::TamperEvidentLog fresh(log.node);
      Timed("tel.Append", &p["tel.append_s"], [&] {
        for (auto& [type, content] : copies) {
          fresh.Append(type, std::move(content));
        }
      });
      ledger.Check(fresh.LastHash() == log.entries.back().hash, "re-appended chain matches");
      avm::CheckResult chain;
      Timed("tel.VerifyChain", &p["tel.chain_s"], [&] { chain = avm::VerifyChain(log); });
      ledger.Check(chain.ok, "VerifyChain: " + chain.reason);
    }
    {
      rotor.Next(1);
      avm::obs::Span pass("bench.vm_pass", kBenchCat);
      uint64_t native0 = CounterValue("avm.jit.native_enters");
      uint64_t fallback0 = CounterValue("avm.jit.interp_fallbacks");
      avm::StreamingReplayer replayer(art.image(), mem_size);
      avm::ReplayResult r;
      Timed("vm.StreamingReplayer.Feed", &p["vm.replay_s"], [&] {
        replayer.Feed(log.entries);
        r = replayer.Finish();
      });
      ledger.Check(r.ok, "StreamingReplayer: " + r.reason);
      replayed = r.instructions_replayed;
      jit_native = static_cast<double>(CounterValue("avm.jit.native_enters") - native0);
      jit_fallback = static_cast<double>(CounterValue("avm.jit.interp_fallbacks") - fallback0);
    }
    {
      rotor.Next(1);
      avm::obs::Span pass("bench.avmm_pass", kBenchCat);
      Timed("avmm.ComputeStateRoot", &p["avmm.state_root_s"], [&] {
        for (int i = 0; i < kStateRoots; i++) {
          (void)avm::ComputeStateRoot(art.audited().machine());
        }
      });
      avm::MaterializedState st;
      Timed("avmm.Materialize", &p["avmm.materialize_s"],
            [&] { st = snaps.Materialize(snaps.Count() - 1, mem_size); });
      ledger.Check(st.root == snaps.Get(snaps.Count() - 1).meta.root, "materialized root");
    }
    {
      // Main plus the store's flusher and sealer.
      rotor.Next(3);
      avm::obs::Span pass("bench.store_pass", kBenchCat);
      RemoveTree(store_dir);
      auto store = avm::LogStore::Open(store_dir, log.node, spec.store_opts);
      Timed("store.Append", &p["store.append_s"], [&] {
        for (const avm::LogEntry& e : log.entries) {
          store->Append(e);
        }
      });
      Timed("store.Seal", &p["store.seal_s"], [&] { store->Seal(); });
      uint64_t seen = 0;
      Timed("store.Scan", &p["store.scan_s"], [&] {
        store->Scan(1, store->LastSeq(), [&](const avm::LogEntry&) {
          seen++;
          return true;
        });
      });
      avm::LogSegment back;
      Timed("store.Extract", &p["store.extract_s"],
            [&] { back = store->Extract(1, store->LastSeq()); });
      ledger.Check(seen == log.entries.size() && back.entries.size() == log.entries.size() &&
                       back.entries.back().hash == log.entries.back().hash,
                   "store re-spill scans back the log");
      store.reset();
      RemoveTree(store_dir);
    }
    {
      rotor.Next(1);
      avm::obs::Span pass("bench.compress_pass", kBenchCat);
      std::vector<avm::Bytes> chunks;
      Timed("compress.LzssCompress", &p["compress.lzss_s"], [&] {
        for (size_t off = 0; off < raw.size(); off += kCompressChunk) {
          size_t n = std::min(kCompressChunk, raw.size() - off);
          chunks.push_back(avm::LzssCompress(avm::ByteView(raw.data() + off, n)));
        }
      });
      avm::Bytes back;
      Timed("compress.LzssDecompress", &p["compress.unlzss_s"], [&] {
        for (const avm::Bytes& c : chunks) {
          avm::Bytes part = avm::LzssDecompress(c);
          back.insert(back.end(), part.begin(), part.end());
        }
      });
      ledger.Check(back == raw, "LZSS round trip");
      compressed.clear();
      for (const avm::Bytes& c : chunks) {
        compressed.insert(compressed.end(), c.begin(), c.end());
      }
    }
    {
      rotor.Next(1);
      avm::obs::Span pass("bench.audit_pass", kBenchCat);
      avm::AuditConfig cfg;
      cfg.mem_size = mem_size;
      cfg.threads = 1;
      avm::CheckResult syn;
      Timed("audit.SyntacticMessageCheck", &p["audit.syntactic_s"],
            [&] { syn = avm::SyntacticMessageCheck(log, registry, cfg); });
      ledger.Check(syn.ok, "SyntacticMessageCheck: " + syn.reason);
      avm::ReplayResult rep;
      Timed("audit.ReplaySegment", &p["audit.replay_s"],
            [&] { rep = avm::ReplaySegment(log, art.image(), mem_size); });
      ledger.Check(rep.ok, "ReplaySegment: " + rep.reason);
      avm::AuditOutcome seq;
      Timed("audit.AuditFull.sequential", &p["audit.sequential_wall_s"],
            [&] { seq = art.AuditFull(1, auths); });
      p["audit.sequential_phases_s"].push_back(seq.syntactic_seconds + seq.semantic_seconds);
      avm::AuditOutcome pip;
      rotor.Next(2);
      Timed("audit.AuditFull.pipelined", &p["audit.pipelined_wall_s"],
            [&] { pip = art.AuditFull(2, auths); });
      ledger.Check(seq.ok && pip.ok, "sequential and pipelined audits PASS");
    }
    {
      // The same audit with every kind of tracing off and on, in
      // alternating order so neither side always runs warm.
      rotor.Next(width);
      avm::obs::Span pass("bench.obs_pass", kBenchCat);
      for (int i = 0; i < 2; i++) {
        bool traced = (round + i) % 2 == 1;
        avm::obs::SetEnabled(traced);
        avm::AuditOutcome o;
        if (traced) {
          Timed("audit.AuditFull.traced", &p["obs.traced_audit_s"],
                [&] { o = art.AuditFull(spec.audit_threads, auths); });
        } else {
          double t0 = NowSeconds();
          o = art.AuditFull(spec.audit_threads, auths);
          p["obs.untraced_audit_s"].push_back(NowSeconds() - t0);
        }
        ledger.Check(o.ok, "traced/untraced audit PASS: " + o.Describe());
      }
      avm::obs::SetEnabled(true);
    }
  }
  avm::obs::SetEnabled(false);
  rotor.Release();

  const double sim_s = static_cast<double>(art.sim_us()) / 1e6;
  const double nd = static_cast<double>(digests.size());
  const double mb = 1024.0 * 1024.0;
  auto m = [&](const char* key) { return Min(p[key]); };
  out->metrics = {
      {"crypto.sign_us", m("crypto.sign_s") / nd * 1e6, "us"},
      {"crypto.verify_us", m("crypto.verify_s") / nd * 1e6, "us"},
      {"crypto.signatures", static_cast<double>(CountSignatures(log, auths)), "count"},
      {"tel.append_us", m("tel.append_s") / entries * 1e6, "us"},
      {"tel.chain_entries_per_s", entries / m("tel.chain_s"), "entries/s"},
      {"vm.replay_mips", static_cast<double>(replayed) / m("vm.replay_s") / 1e6, "MIPS"},
      {"vm.jit_native_frac", jit_native / std::max(1.0, jit_native + jit_fallback), "fraction"},
      {"avmm.state_root_ms", m("avmm.state_root_s") / kStateRoots * 1e3, "ms"},
      {"avmm.materialize_ms", m("avmm.materialize_s") * 1e3, "ms"},
      {"store.append_MBps", log_bytes / mb / m("store.append_s"), "MB/s"},
      {"store.seal_s", m("store.seal_s"), "s"},
      {"store.scan_entries_per_s", entries / m("store.scan_s"), "entries/s"},
      {"compress.lzss_MBps", static_cast<double>(raw.size()) / mb / m("compress.lzss_s"), "MB/s"},
      {"compress.unlzss_MBps", static_cast<double>(raw.size()) / mb / m("compress.unlzss_s"),
       "MB/s"},
      {"compress.ratio", static_cast<double>(raw.size()) / static_cast<double>(compressed.size()),
       "x"},
      {"audit.syntactic_entries_per_s", entries / m("audit.syntactic_s"), "entries/s"},
      {"audit.replay_entries_per_s", entries / m("audit.replay_s"), "entries/s"},
      {"audit.pipeline_overlap", m("audit.sequential_phases_s") / m("audit.pipelined_wall_s"),
       "x"},
      {"net.frames_per_sim_s", static_cast<double>(art.net_frames()) / sim_s, "frames/sim_s"},
      {"net.bytes_per_sim_s", static_cast<double>(art.net_bytes()) / sim_s, "B/sim_s"},
      {"obs.trace_overhead_frac", m("obs.traced_audit_s") / m("obs.untraced_audit_s") - 1,
       "fraction"},
  };

  const std::string trace = avm::obs::ChromeTraceJson();
  for (const auto& [layer, secs] : SelfSecondsByLayer(ParseBenchSpans(trace))) {
    std::printf("layer-self %s %.3f ms\n", layer.c_str(), secs * 1e3);
  }
  for (const auto& [phase, totals] : avm::obs::PhaseAggregates()) {
    std::printf("obs-phase %s count=%llu total=%.3f ms\n", phase.c_str(),
                static_cast<unsigned long long>(totals.count),
                static_cast<double>(totals.total_us) / 1e3);
  }
  // The obs trace (bench and system spans) with the workload named in the
  // format's free-form "otherData" object.
  std::ofstream f(trace_path);
  f << "{\"otherData\":{\"workload\":\"" << spec.name << "\"}," << trace.substr(1);
  if (f.flush()) {
    std::printf("trace %s (%zu spans, %llu dropped)\n", trace_path.c_str(),
                avm::obs::TraceEventCount(),
                static_cast<unsigned long long>(avm::obs::TraceEventsDropped()));
  }
}

}  // namespace avmbench
