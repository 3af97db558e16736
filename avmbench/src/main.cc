// avmbench: the record-and-audit benchmark.
//
//   avmbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--work-dir <dir>] [--tiny]
//
// Records one workload scenario, checks every verdict, and measures for
// `--seconds`. With --trace 0 it reports the end-to-end metrics, measured
// with all tracing off; with --trace 1 it reports per-layer metrics from
// the traced run (layers.cc). The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// `failed / attempted` is op_fail_frac: wrong outcomes over checked
// operations. Exit code 0 only when every outcome was right.
//
// Timing rules (host interference on a shared box only ever adds time):
//  - repeated identical passes (recording, full audit) report their
//    minimum pass time;
//  - differing operations (set-ups of the fixed seed rotation, pings, spot
//    windows) take each operation's minimum over identical passes, then
//    the mean (set-up) or median and p90 across operations;
//  - passes interleave round by round across the whole run.
#include <sys/resource.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <numeric>

#include "avmbench/src/common.h"
#include "avmbench/src/layers.h"
#include "avmbench/src/workload.h"
#include "src/chaos/adversary.h"

namespace avmbench {
namespace {

// Every timing is built from at least this many passes.
constexpr int kMinRounds = 3;

// Set-up is timed over this fixed rotation of workload seeds, not over
// --seed: key generation is most of a game set-up and its cost differs
// from seed to seed, so only a fixed seed set makes set-up the same work
// in every run.
constexpr uint64_t kSetupSeeds[] = {1, 2, 3, 4};

std::string JsonArray(const std::vector<double>& v) {
  std::string out = "[";
  char buf[32];
  for (size_t i = 0; i < v.size(); i++) {
    std::snprintf(buf, sizeof(buf), "%s%.6g", i == 0 ? "" : ",", v[i]);
    out += buf;
  }
  return out + "]";
}

// Once per run, untimed: the verdict is independent of the audit thread
// count, and a log equivocated mid-way FAILs at or after the forged seq.
void CheckVerdicts(const WorkloadSpec& spec, Recording& art,
                   std::span<const avm::Authenticator> auths, Ledger& ledger) {
  avm::AuditOutcome one = art.AuditFull(1, auths);
  avm::AuditOutcome two = art.AuditFull(2, auths);
  ledger.Check(one.ok && two.ok && one.Describe() == two.Describe(),
               "threads=1 vs threads=2 verdicts: " + one.Describe() + " / " + two.Describe());

  avm::chaos::AdversarialSource forged(art.source());
  uint64_t seq = art.source().LastSeq() / 2;
  forged.Equivocate(seq);
  avm::AuditOutcome o = art.AuditFull(spec.audit_threads, auths, &forged);
  const uint64_t at = !o.syntactic.ok ? o.syntactic.bad_seq : o.semantic.diverged_seq;
  const std::string why = o.Describe();
  std::printf("control equivocate@%llu -> %s\n", static_cast<unsigned long long>(seq),
              why.c_str());
  ledger.Check(!o.ok && at >= seq, "tampered control did not FAIL at/after the forged seq: " + why);
}

// `first_chunks` are the chunk times of the run's own recording when it is
// also a record pass.
void RunEndToEnd(const WorkloadSpec& spec, const Options& opt, Recording& art,
                 std::span<const avm::Authenticator> auths,
                 const std::vector<double>* first_chunks, double t_start, Ledger& ledger,
                 RunResult* out) {
  std::vector<double>& setup_sum = out->passes["setup_rotation_total_s"];
  std::vector<double>& record = out->passes["record_s"];
  std::vector<std::vector<double>> setups, chunks;
  auto add_record = [&](std::vector<double> t) {
    record.push_back(std::accumulate(t.begin(), t.end(), 0.0));
    chunks.push_back(std::move(t));
  };
  if (first_chunks != nullptr) {
    add_record(*first_chunks);
  }
  std::vector<double>& audit = out->passes["audit_s"];
  std::vector<double>& ping_p50 = out->passes["ping_pass_p50_us"];
  std::vector<double>& spot_sum = out->passes["spot_pass_total_s"];
  std::vector<std::vector<double>> pings, spots;
  const std::vector<std::pair<uint64_t, uint64_t>> windows = art.Windows();
  const uint64_t entries = art.source().LastSeq();
  const std::string pass_dir = opt.work_dir + "/pass";

  PingHarness ping(spec, opt.seed);
  CpuRotor rotor;
  const int width = static_cast<int>(spec.audit_threads);
  // Recording runs main alone, or with the store's flusher and sealer.
  const int record_width = spec.spill ? 3 : 1;
  for (int round = 0; round < kMinRounds || NowSeconds() - t_start < opt.seconds; round++) {
    for (int i = 0; i < spec.setup_passes; i++) {
      std::vector<double> times;
      for (uint64_t seed : kSetupSeeds) {
        rotor.Next(record_width);
        Recording r(spec, seed, pass_dir);
        times.push_back(r.Setup());
      }
      setup_sum.push_back(std::accumulate(times.begin(), times.end(), 0.0));
      setups.push_back(std::move(times));
    }
    for (int i = round == 0 && first_chunks != nullptr ? 1 : 0; i < spec.record_passes; i++) {
      rotor.Next(record_width);
      Recording r(spec, opt.seed, pass_dir);
      r.Setup();
      add_record(r.Record(spec.record_pass_us, spec.record_chunk_us));
    }
    for (int i = 0; i < spec.audit_passes; i++) {
      rotor.Next(width);
      double t0 = NowSeconds();
      avm::AuditOutcome o = art.AuditFull(spec.audit_threads, auths);
      audit.push_back(NowSeconds() - t0);
      ledger.Check(o.ok, "honest full audit: " + o.Describe());
    }
    for (int i = 0; i < spec.ping_passes; i++) {
      rotor.Next(1);
      bool ok = false;
      pings.push_back(ping.Pass(pass_dir, &ok));
      ping_p50.push_back(Quantile(pings.back(), 0.5));
      ledger.Check(ok, "ping pass delivered and verified every message");
    }
    for (int i = 0; i < spec.spot_passes; i++) {
      rotor.Next(width);
      avm::AuditConfig cfg;
      cfg.mem_size = spec.run.mem_size;
      cfg.threads = spec.audit_threads;
      avm::Auditor auditor("auditor", &art.registry(), cfg);
      std::vector<double> times;
      for (const auto& w : windows) {
        double t0 = NowSeconds();
        avm::AuditOutcome o = art.Spot(auditor, w, auths);
        times.push_back(NowSeconds() - t0);
        ledger.Check(o.ok, "honest spot check " + std::to_string(w.first) + ".." +
                               std::to_string(w.second) + ": " + o.Describe());
      }
      spot_sum.push_back(std::accumulate(times.begin(), times.end(), 0.0));
      spots.push_back(std::move(times));
    }
  }
  rotor.Release();
  std::printf(
      "samples {\"setup_seeds\":%zu,\"setup_passes\":%zu,\"record_passes\":%zu,"
      "\"record_chunks\":%zu,\"audit_passes\":%zu,\"ping_ops\":%d,\"ping_passes\":%zu,"
      "\"spot_windows\":%zu,\"spot_passes\":%zu}\n",
      std::size(kSetupSeeds), setups.size(), chunks.size(), chunks.empty() ? 0 : chunks[0].size(),
      audit.size(), spec.pings, pings.size(), windows.size(), spots.size());

  const double sim_s = static_cast<double>(art.sim_us()) / 1e6;
  std::vector<double> chunk_min = PerOpMin(chunks);
  out->passes["record_chunk_min_s"] = chunk_min;
  std::vector<double> setup_min = PerOpMin(setups);
  out->passes["setup_seed_min_s"] = setup_min;
  std::vector<double> ping_min = PerOpMin(pings);
  std::vector<double> spot_min = PerOpMin(spots);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  out->metrics = {
      {"setup_s",
       std::accumulate(setup_min.begin(), setup_min.end(), 0.0) /
           static_cast<double>(setup_min.size()),
       "s"},
      {"record_rate",
       static_cast<double>(spec.record_pass_us) / 1e6 /
           std::accumulate(chunk_min.begin(), chunk_min.end(), 0.0),
       "sim_s/s"},
      {"msg_rtt_p50_us", Quantile(ping_min, 0.5), "us"},
      {"msg_rtt_p90_us", Quantile(ping_min, 0.9), "us"},
      {"audit_entries_per_s", static_cast<double>(entries) / Min(audit), "entries/s"},
      {"spot_p50_ms", Quantile(spot_min, 0.5) * 1e3, "ms"},
      {"spot_p90_ms", Quantile(spot_min, 0.9) * 1e3, "ms"},
      {"log_bytes_per_sim_s", static_cast<double>(art.audited().log().TotalWireSize()) / sim_s,
       "B/sim_s"},
      {"disk_bytes_per_entry", static_cast<double>(art.disk_bytes()) / static_cast<double>(entries),
       "B"},
      {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"},
  };
}

void PrintRunConfig(const WorkloadSpec& spec) {
  const avm::RunConfig& r = spec.run;
  std::printf(
      "workload %s: %s sign=%s k=%u durable_commit=%d snapshot_interval_us=%llu log=%s "
      "audit_threads=%u pipelined=%d store_sync=%d sealer_threads=%u max_delay_ms=%u\n",
      spec.name.c_str(), r.Name(), avm::SignModeName(r.sign_mode), r.sign_batch_entries,
      r.durable_commit ? 1 : 0, static_cast<unsigned long long>(r.snapshot_interval),
      spec.spill ? "store" : "memory", spec.audit_threads, spec.audit_threads > 1 ? 1 : 0,
      spec.store_opts.sync ? 1 : 0, spec.store_opts.sealer_threads,
      spec.store_opts.group_commit.max_delay_ms);
}

int Run(const Options& opt) {
  const WorkloadSpec spec = MakeSpec(opt.workload, opt.tiny);
  PrintRunConfig(spec);
  std::filesystem::create_directories(opt.work_dir);
  Ledger ledger;
  RunResult result;
  const double t_start = NowSeconds();

  // The recording every audit, spot check and layer pass of the run reads.
  Recording art(spec, opt.seed, opt.work_dir + "/artifact");
  art.Setup();
  const std::vector<double> first_chunks = art.Record(spec.artifact_us, spec.record_chunk_us);
  art.ReopenForAudit();
  const std::vector<avm::Authenticator> auths = art.Auths();
  const avm::LogSegment log = art.source().Extract(1, art.source().LastSeq());
  CheckVerdicts(spec, art, auths, ledger);

  avm::AuditOutcome full = art.AuditFull(spec.audit_threads, auths);
  ledger.Check(full.ok, "honest full audit: " + full.Describe());
  std::printf(
      "counts {\"entries\":%llu,\"log_bytes\":%llu,\"disk_bytes\":%llu,\"signatures\":%llu,"
      "\"instructions_replayed\":%llu,\"net_frames\":%llu,\"net_bytes\":%llu,\"windows\":%zu}\n",
      static_cast<unsigned long long>(log.entries.size()),
      static_cast<unsigned long long>(art.audited().log().TotalWireSize()),
      static_cast<unsigned long long>(art.disk_bytes()),
      static_cast<unsigned long long>(CountSignatures(log, auths)),
      static_cast<unsigned long long>(full.semantic.instructions_replayed),
      static_cast<unsigned long long>(art.net_frames()),
      static_cast<unsigned long long>(art.net_bytes()), art.Windows().size());

  if (opt.trace) {
    // Next to the work dir, which is removed at exit.
    std::filesystem::path dir = std::filesystem::path(opt.work_dir).parent_path() / "traces";
    std::filesystem::create_directories(dir);
    std::string name = spec.name + "-seed" + std::to_string(opt.seed) + ".json";
    RunLayers(spec, opt, art, log, auths, (dir / name).string(), ledger, &result);
  } else {
    RunEndToEnd(spec, opt, art, auths,
                spec.record_pass_us == spec.artifact_us ? &first_chunks : nullptr, t_start, ledger,
                &result);
  }

  std::string passes = "{";
  for (const auto& [name, v] : result.passes) {
    passes += (passes.size() > 1 ? ",\"" : "\"") + name + "\":" + JsonArray(v);
  }
  std::printf("passes %s}\n", passes.c_str());
  const double fail_frac =
      static_cast<double>(ledger.failed()) / static_cast<double>(ledger.attempted());
  std::printf("metric op_fail_frac %.6g fraction\n", fail_frac);
  std::string metrics;
  char buf[256];
  for (const Metric& m : result.metrics) {
    std::printf("metric %s %.10g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    metrics += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              ledger.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(ledger.attempted()),
              static_cast<unsigned long long>(ledger.failed()), metrics.c_str());
  std::fflush(stdout);
  return ledger.failed() == 0 ? 0 : 1;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "avmbench: %s\nusage: avmbench --workload <game-sync|kv-spot|game-batched-durable>"
               " --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>] [--tiny]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace avmbench

int main(int argc, char** argv) {
  avmbench::Options opt;
  opt.work_dir = ".bench_build/avmbench-run-" + std::to_string(getpid());
  for (int i = 1; i < argc; i++) {
    std::string a = argv[i];
    bool has_value = i + 1 < argc;
    if (a == "--tiny") {
      opt.tiny = true;
    } else if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--work-dir" && has_value) {
      opt.work_dir = argv[++i];
    } else {
      return avmbench::Usage(("bad argument '" + a + "'").c_str());
    }
  }
  if (opt.workload.empty()) {
    return avmbench::Usage("--workload is required");
  }
  int rc = 1;
  try {
    rc = avmbench::Run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "avmbench: %s\n", e.what());
    rc = 1;
  }
  avmbench::RemoveTree(opt.work_dir);
  return rc;
}
