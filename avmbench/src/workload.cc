#include "avmbench/src/workload.h"

#include <filesystem>
#include <stdexcept>

#include "avmbench/src/common.h"
#include "src/chaos/fault_plan.h"
#include "src/obs/metrics.h"

namespace avmbench {

using avm::kMicrosPerMilli;
using avm::kMicrosPerSecond;

WorkloadSpec MakeSpec(const std::string& name, bool tiny) {
  WorkloadSpec s;
  s.name = name;
  // Both store workloads flush without fsync (the watermark advances on
  // fflush): the benchmark measures the record and audit pipelines, not
  // the host's disk.
  s.store_opts.sync = false;
  if (name == "game-sync") {
    s.run = avm::RunConfig::AvmmRsa768();
    // Snapshots give the spot-check windows; the log stays in memory.
    s.run.snapshot_interval = kMicrosPerSecond;
    s.artifact_us = (tiny ? 1 : 5) * kMicrosPerSecond;
    s.record_pass_us = s.artifact_us;
    s.audit_threads = 1;
    s.audit_passes = 6;
    s.spot_passes = 3;
  } else if (name == "kv-spot") {
    s.kv = true;
    s.run = avm::RunConfig::AvmmNoSig();
    // 100 half-second windows (the spot p90 has 10 beyond it) over 50 s.
    s.run.snapshot_interval = kMicrosPerSecond / 2;
    s.artifact_us = (tiny ? 2 : 50) * kMicrosPerSecond;
    s.record_pass_us = (tiny ? 2 : 5) * kMicrosPerSecond;
    s.record_chunk_us = kMicrosPerSecond / 2;
    s.spill = true;
    s.audit_threads = 1;
    s.pings = 200;
    s.setup_passes = 4;  // A kv set-up is about 1.5 ms.
    s.audit_passes = 4;
    s.ping_passes = 10;  // A pass is about 5 ms.
    s.spot_passes = 1;   // 100 windows: the costliest pass of any workload.
  } else if (name == "game-batched-durable") {
    s.run = avm::RunConfig::AvmmRsa768Batched(8);
    s.run.durable_commit = true;
    s.run.snapshot_interval = 2 * kMicrosPerSecond;
    s.artifact_us = (tiny ? 2 : 4) * kMicrosPerSecond;
    // Two half-length record passes a round: twice the samples per chunk.
    s.record_pass_us = (tiny ? 1 : 2) * kMicrosPerSecond;
    s.record_passes = 2;
    s.spill = true;
    s.audit_threads = 2;  // Pipelined (AuditConfig::pipelined defaults on).
    s.audit_passes = 5;
    s.ping_passes = 6;
    s.spot_passes = 4;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  if (tiny) {
    s.pings = 20;
  }
  return s;
}

uint64_t ScenarioSeed(uint64_t seed) { return avm::chaos::DeriveSeed(seed, "avmbench"); }

void RemoveTree(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

namespace {

// A workload's store options with the background threads turned off, for
// stores that are only read or that never roll a segment.
avm::LogStoreOptions QuietStoreOptions(const avm::LogStoreOptions& opts) {
  avm::LogStoreOptions q = opts;
  q.sealer_threads = 0;
  q.group_commit.max_delay_ms = 0;
  return q;
}

// Sum of one SimNetwork counter over every node of every live network.
uint64_t NetCounter(const char* name) {
  uint64_t total = 0;
  for (const avm::obs::MetricRow& r : avm::obs::Registry::Global().Snapshot().rows) {
    if (r.name == name) {
      total += static_cast<uint64_t>(r.gauge_value);
    }
  }
  return total;
}

}  // namespace

Recording::Recording(const WorkloadSpec& spec, uint64_t seed, std::string store_dir)
    : spec_(spec), seed_(seed), store_dir_(std::move(store_dir)) {}

Recording::~Recording() {
  // The machine's log holds a raw pointer to the store; detach first.
  if (game_ || kv_) {
    audited().log().SetSink(nullptr);
  }
  store_.reset();
  RemoveTree(store_dir_);
}

double Recording::Setup() {
  net_frames_ = NetCounter("net_frames_sent");
  net_bytes_ = NetCounter("net_bytes_sent");
  double t0 = NowSeconds();
  if (spec_.kv) {
    avm::KvScenarioConfig cfg;
    cfg.run = spec_.run;
    cfg.seed = ScenarioSeed(seed_);
    cfg.snapshot_interval = spec_.run.snapshot_interval;
    cfg.client.op_period_us = 20 * kMicrosPerMilli;
    kv_ = std::make_unique<avm::KvScenario>(cfg);
    kv_->Start();
  } else {
    avm::GameScenarioConfig cfg;
    cfg.run = spec_.run;
    cfg.seed = ScenarioSeed(seed_);
    game_ = std::make_unique<avm::GameScenario>(cfg);
    game_->Start();
  }
  if (spec_.spill) {
    store_ = avm::LogStore::Open(store_dir_, audited().id(), spec_.store_opts);
    audited().SpillTo(store_.get());
  }
  return NowSeconds() - t0;
}

std::vector<double> Recording::Record(avm::SimTime us, avm::SimTime chunk_us) {
  std::vector<double> chunks;
  for (avm::SimTime done = 0; done < us; done += chunk_us) {
    double t0 = NowSeconds();
    if (kv_) {
      kv_->RunFor(std::min(chunk_us, us - done));
    } else {
      game_->RunFor(std::min(chunk_us, us - done));
    }
    chunks.push_back(NowSeconds() - t0);
  }
  double t0 = NowSeconds();
  if (kv_) {
    kv_->Finish();
  } else {
    game_->Finish();
  }
  if (store_) {
    store_->Seal();
  }
  chunks.push_back(NowSeconds() - t0);
  sim_us_ = us;
  net_frames_ = NetCounter("net_frames_sent") - net_frames_;
  net_bytes_ = NetCounter("net_bytes_sent") - net_bytes_;
  return chunks;
}

void Recording::ReopenForAudit() {
  avm::LogStoreOptions quiet = QuietStoreOptions(spec_.store_opts);
  if (store_) {
    audited().log().SetSink(nullptr);
    disk_bytes_ = store_->DiskBytes();
    store_.reset();
    store_ = avm::LogStore::Open(store_dir_, audited().id(), quiet);
    return;
  }
  // In-memory workload: what the same log costs once sealed on disk.
  auto copy = avm::LogStore::Open(store_dir_, audited().id(), quiet);
  for (const avm::LogEntry& e : audited().log().entries()) {
    copy->Append(e);
  }
  copy->Seal();
  disk_bytes_ = copy->DiskBytes();
  copy.reset();
  RemoveTree(store_dir_);
  mem_source_ = std::make_unique<avm::InMemorySegmentSource>(audited().log());
}

avm::Avmm& Recording::audited() { return kv_ ? kv_->server() : game_->server(); }

const avm::KeyRegistry& Recording::registry() const {
  return kv_ ? kv_->registry() : game_->registry();
}

const avm::Bytes& Recording::image() const {
  return kv_ ? kv_->reference_server_image() : game_->reference_server_image();
}

std::vector<avm::Authenticator> Recording::Auths() const {
  return kv_ ? kv_->CollectAuthsForServer() : game_->CollectAuths("server");
}

const avm::SegmentSource& Recording::source() const {
  if (store_) {
    return *store_;
  }
  return *mem_source_;
}

avm::AuditOutcome Recording::AuditFull(unsigned threads,
                                       std::span<const avm::Authenticator> auths,
                                       const avm::SegmentSource* src) {
  avm::AuditConfig cfg;
  cfg.mem_size = spec_.run.mem_size;
  cfg.threads = threads;
  avm::Auditor auditor("auditor", &registry(), cfg);
  if (src == nullptr && !store_) {
    return auditor.AuditFull(audited(), image(), auths);
  }
  return auditor.AuditFull(audited(), src != nullptr ? *src : source(), image(), auths);
}

std::vector<std::pair<uint64_t, uint64_t>> Recording::Windows() const {
  std::vector<avm::SnapshotIndexEntry> snaps = avm::IndexSnapshots(source());
  std::vector<std::pair<uint64_t, uint64_t>> out;
  for (size_t i = 0; i + 1 < snaps.size(); i++) {
    out.emplace_back(snaps[i].meta.snapshot_id, snaps[i + 1].meta.snapshot_id);
  }
  return out;
}

avm::AuditOutcome Recording::Spot(avm::Auditor& auditor, std::pair<uint64_t, uint64_t> window,
                                  std::span<const avm::Authenticator> auths) {
  if (store_) {
    return auditor.SpotCheck(audited(), *store_, window.first, window.second, auths);
  }
  return auditor.SpotCheck(audited(), window.first, window.second, auths);
}

PingHarness::PingHarness(const WorkloadSpec& spec, uint64_t seed)
    : spec_(spec),
      rng_(ScenarioSeed(seed)),
      alice_("alice", spec.run.scheme, rng_),
      bob_("bob", spec.run.scheme, rng_),
      payload_(64) {
  registry_.RegisterSigner(alice_);
  registry_.RegisterSigner(bob_);
  for (uint8_t& b : payload_) {
    b = static_cast<uint8_t>(rng_.Next());
  }
}

std::vector<double> PingHarness::Pass(const std::string& dir, bool* ok) {
  const avm::RunConfig& cfg = spec_.run;
  avm::SimNetwork net;
  net.SetDefaultLatency(0);
  avm::TamperEvidentLog alog("alice"), blog("bob");
  // Durable-commit releases force their own group commit (Transport::
  // Tick), so a flusher's timer never fires inside a ping and a pass
  // never fills a segment: the stores run without background threads.
  std::unique_ptr<avm::LogStore> astore, bstore;
  if (spec_.spill) {
    avm::LogStoreOptions opts = QuietStoreOptions(spec_.store_opts);
    astore = avm::LogStore::Open(dir + "/alice", "alice", opts);
    bstore = avm::LogStore::Open(dir + "/bob", "bob", opts);
    alog.SetSink(astore.get());
    blog.SetSink(bstore.get());
  }
  avm::AuthenticatorStore aa, ba;
  avm::Transport ta("alice", &cfg, &alog, &alice_, &net, &registry_, &aa);
  avm::Transport tb("bob", &cfg, &blog, &bob_, &net, &registry_, &ba);
  net.AttachHost("alice", &ta);
  net.AttachHost("bob", &tb);
  uint64_t received = 0;
  auto count = [&](avm::SimTime, const avm::NodeId&, const avm::Bytes& p) {
    received += p == payload_ ? 1 : 0;
  };
  ta.SetPacketHandler(count);
  tb.SetPacketHandler(count);
  // Delivers until nothing is in flight (durable-commit frames leave on
  // the Tick that forces the flush).
  auto settle = [&] {
    do {
      ta.Tick(0);
      tb.Tick(0);
      net.DeliverUntil(0);
    } while (net.HasPending());
  };
  std::vector<double> us;
  us.reserve(static_cast<size_t>(spec_.pings));
  for (int i = 0; i < spec_.pings; i++) {
    double t0 = NowSeconds();
    ta.SendPacket(0, "bob", payload_);
    settle();
    tb.SendPacket(0, "alice", payload_);
    settle();
    us.push_back((NowSeconds() - t0) * 1e6);
  }
  ta.Flush(0);
  tb.Flush(0);
  settle();
  *ok = received == 2 * static_cast<uint64_t>(spec_.pings) && ta.stats().verify_failures == 0 &&
        tb.stats().verify_failures == 0 && ta.violations().empty() && tb.violations().empty();
  alog.SetSink(nullptr);
  blog.SetSink(nullptr);
  RemoveTree(dir);
  return us;
}

}  // namespace avmbench
