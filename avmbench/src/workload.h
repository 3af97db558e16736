// The three benchmark workloads and the recording every measurement of a
// run works from.
#ifndef AVMBENCH_SRC_WORKLOAD_H_
#define AVMBENCH_SRC_WORKLOAD_H_

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/audit/auditor.h"
#include "src/sim/scenario.h"
#include "src/store/log_store.h"

namespace avmbench {

struct WorkloadSpec {
  std::string name;
  bool kv = false;  // KvScenario (audited: kvserver) vs GameScenario (audited: server).
  avm::RunConfig run;
  // The recording that is audited and spot-checked.
  avm::SimTime artifact_us = 0;
  // Length of each timed re-recording (record_rate). Passes with the same
  // seed replay identical work from a fresh Start().
  avm::SimTime record_pass_us = 0;
  // Record passes are timed chunk by chunk: chunk k of every pass is
  // identical work, so each chunk's minimum is taken separately.
  avm::SimTime record_chunk_us = avm::kMicrosPerSecond / 4;
  // Spill the audited machine's log to a LogStore (store-backed audits).
  bool spill = false;
  avm::LogStoreOptions store_opts;
  unsigned audit_threads = 1;
  int pings = 100;  // Ping/pong operations per RTT pass.
  // Passes per measuring round: cheap passes repeat within a round so
  // every statistic has many samples spread over the run.
  // Set-ups of every seed of the fixed set-up rotation.
  int setup_passes = 1;
  int record_passes = 1;
  int audit_passes = 3;
  int ping_passes = 3;
  int spot_passes = 2;
};

// Throws std::invalid_argument for an unknown name.
WorkloadSpec MakeSpec(const std::string& name, bool tiny);

// Scenario seed for a workload seed (seed 0 is a valid --seed).
uint64_t ScenarioSeed(uint64_t seed);

// One scenario of a workload: set-up, recording, and everything an audit
// of its audited machine needs.
class Recording {
 public:
  // `store_dir` must not exist yet (or be empty) when spec.spill.
  Recording(const WorkloadSpec& spec, uint64_t seed, std::string store_dir);
  ~Recording();
  Recording(const Recording&) = delete;
  Recording& operator=(const Recording&) = delete;

  // Scenario Start() plus store open and spill: everything before the
  // first simulated microsecond. Returns wall seconds.
  double Setup();
  // Records `us` simulated microseconds in chunks of `chunk_us`, then
  // finishes the scenario and seals the store. Returns the wall seconds of
  // each chunk, the finish last. Call once.
  std::vector<double> Record(avm::SimTime us, avm::SimTime chunk_us);
  // Closes the recording-side store and reopens it read-only for audits
  // (no sealer or flusher threads), keeping the process within 4 threads.
  void ReopenForAudit();

  avm::Avmm& audited();
  const avm::KeyRegistry& registry() const;
  const avm::Bytes& image() const;
  std::vector<avm::Authenticator> Auths() const;
  // The audited machine's log as an audit reads it: the store when the
  // workload spills, the in-memory log otherwise.
  const avm::SegmentSource& source() const;

  // Full audit with this workload's engine (in-memory or store-backed),
  // optionally reading a substitute source (the tampered control).
  avm::AuditOutcome AuditFull(unsigned threads, std::span<const avm::Authenticator> auths,
                              const avm::SegmentSource* src = nullptr);
  // Snapshot windows (consecutive snapshot id pairs) of the audited log.
  std::vector<std::pair<uint64_t, uint64_t>> Windows() const;
  avm::AuditOutcome Spot(avm::Auditor& auditor, std::pair<uint64_t, uint64_t> window,
                         std::span<const avm::Authenticator> auths);

  avm::SimTime sim_us() const { return sim_us_; }
  // SimNetwork totals, read when the recording finished.
  uint64_t net_frames() const { return net_frames_; }
  uint64_t net_bytes() const { return net_bytes_; }
  // LogStore::DiskBytes() after Seal(). Workloads that keep the log in
  // memory seal a copy into a store after recording, off the timed path.
  uint64_t disk_bytes() const { return disk_bytes_; }

 private:
  const WorkloadSpec& spec_;
  uint64_t seed_;
  std::string store_dir_;
  std::unique_ptr<avm::GameScenario> game_;
  std::unique_ptr<avm::KvScenario> kv_;
  std::unique_ptr<avm::LogStore> store_;
  std::unique_ptr<avm::InMemorySegmentSource> mem_source_;
  avm::SimTime sim_us_ = 0;
  uint64_t net_frames_ = 0;
  uint64_t net_bytes_ = 0;
  uint64_t disk_bytes_ = 0;
};

// Accountable ping/pong operations between two Transports under the
// workload's RunConfig (Fig. 5): each message is logged, signed, sent,
// verified and acked. Keys are made once; every pass starts from fresh
// logs, transports and (when the workload spills) stores, so the i-th
// operation of every pass is identical work.
class PingHarness {
 public:
  PingHarness(const WorkloadSpec& spec, uint64_t seed);

  // Per-operation (ping + pong) wall microseconds of one pass. `ok` is
  // false if a payload went missing or a transport failed verification.
  std::vector<double> Pass(const std::string& dir, bool* ok);

 private:
  const WorkloadSpec& spec_;
  avm::Prng rng_;
  avm::Signer alice_;
  avm::Signer bob_;
  avm::KeyRegistry registry_;
  avm::Bytes payload_;
};

// Removes a directory tree, ignoring errors.
void RemoveTree(const std::string& dir);

}  // namespace avmbench

#endif  // AVMBENCH_SRC_WORKLOAD_H_
