// The one timing system: trace spans and the record-path ledger.
//
// Phase-attributed trace spans: RAII timers that (a) accumulate exact
// per-phase totals (the §6.6 audit-time breakdown and §6.11 lag come
// from these, not from bench-local arithmetic), (b) feed a registry
// histogram span_us{phase=...} so phase latency distributions appear in
// every export, and (c) buffer Chrome-trace-event records that
// ChromeTraceJson() emits in the Trace Event Format, loadable directly
// in Perfetto / chrome://tracing.
//
// A span always reads the clock twice and End() returns its duration,
// so a caller that needs the number takes it from the span, not from a
// second timer. The trace buffer, aggregates and histogram are behind
// the runtime gate SetEnabled(): a span takes no lock while it is off.
// Enabling telemetry must never change protocol behavior — spans
// observe wall time only.
//
// The record-path ledger (RecordLedger, LedgerTimer) is the Figure 6
// cost split (§6.5), per node and always on: two clock reads and two
// relaxed stores per region, no lock and no trace buffer, so it can time
// RecordEvent, which runs once per trace entry.
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"

namespace avm {
namespace obs {

// Runtime gate for spans, trace buffering and gauge sampling. Cheap
// always-on counters/gauges are NOT gated (they back the Stats
// compatibility views). Default off.
bool Enabled();
void SetEnabled(bool on);

// Microseconds since process start (steady clock): the trace timebase.
uint64_t NowMicros();

// Raw steady-clock nanoseconds, for durations.
inline uint64_t SteadyNanos() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Span phases. One flat taxonomy, dotted by subsystem, so exports line
// up across the audit pipeline, the store write path, the signer and
// the fleet scheduler.
inline constexpr char kPhaseAuditSyntactic[] = "audit.syntactic";
inline constexpr char kPhaseAuditReplay[] = "audit.replay";
inline constexpr char kPhaseAuditRsaVerify[] = "audit.rsa_verify";
inline constexpr char kPhaseAuditCheckpointIo[] = "audit.checkpoint_io";
inline constexpr char kPhaseStoreFlushWait[] = "store.flush_wait";
inline constexpr char kPhaseStoreSeal[] = "store.seal";
inline constexpr char kPhaseStoreArchive[] = "store.archive";
inline constexpr char kPhaseSignerSign[] = "signer.sign";
inline constexpr char kPhaseFleetService[] = "fleet.service";

// RAII span: times the enclosing scope and attributes it to a phase.
// Whether the span is recorded is decided at construction and sticks,
// so a span that straddles a SetEnabled flip stays well-formed.
class Span {
 public:
  // `phase` must outlive the span (use the kPhase* constants or other
  // static strings). `cat` groups phases into Perfetto track colors.
  explicit Span(const char* phase, const char* cat = "avm");
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { End(); }

  // Ends the span early and returns its duration in seconds, measured
  // whether or not telemetry is on. Idempotent: later calls return 0.
  double End();

 private:
  const char* phase_;
  const char* cat_;
  uint64_t start_ns_;
  bool open_ = true;
  bool recorded_;
};

// Single timing idiom for benches: runs `fn` under a span and returns
// elapsed seconds, even with telemetry off.
template <typename Fn>
double TimeSection(const char* phase, Fn&& fn) {
  Span span(phase, "bench");
  fn();
  return span.End();
}

// Record-path phases. Each is charged as *self* time: a LedgerTimer
// opened while another is open on the same thread is subtracted from the
// outer one, so the trace recording, signing and log appends PortOut
// runs inside guest execution are not also counted as kExec.
enum class RecordPhase : uint8_t {
  kExec,       // Guest execution (RunUntilIcount).
  kTrace,      // Serializing a trace event and logging it.
  kSign,       // Payload signatures, authenticators, window commitments.
  kVerify,     // Incoming signatures and authenticators.
  kLogAppend,  // Transport log appends: SEND, RECV, ACK, peer commits.
  kSnapshot,   // Taking a snapshot and logging it.
};
inline constexpr const char* kRecordPhaseNames[] = {"exec",   "trace",      "sign",
                                                    "verify", "log_append", "snapshot"};
inline constexpr size_t kNumRecordPhases = std::size(kRecordPhaseNames);

// A copy of one node's ledger. Ledgers live as long as the process, so
// a run is isolated by subtracting the copy taken before it.
struct LedgerTotals {
  std::array<uint64_t, kNumRecordPhases> ns{};
  std::array<uint64_t, kNumRecordPhases> count{};

  double Seconds(RecordPhase p) const {
    return static_cast<double>(ns[static_cast<size_t>(p)]) / 1e9;
  }
  uint64_t Count(RecordPhase p) const { return count[static_cast<size_t>(p)]; }
  LedgerTotals operator-(const LedgerTotals& o) const;
};

// One node's ledger: registry gauges record_ns{node,phase} and
// record_count{node,phase}, so every export carries them. Gauges, not
// counters: a gauge is one unsharded cell, which the single writer (the
// thread driving the node's record path) bumps with a load and a store
// instead of a locked add. Ledgers built for the same node share cells.
class RecordLedger {
 public:
  explicit RecordLedger(const std::string& node);

  LedgerTotals Totals() const;

  // Runs `fn` under a LedgerTimer for `phase`; returns what `fn` returns.
  template <typename Fn>
  decltype(auto) Time(RecordPhase phase, Fn&& fn);

 private:
  friend class LedgerTimer;

  void Add(RecordPhase phase, uint64_t ns) {
    const size_t i = static_cast<size_t>(phase);
    ns_[i]->Set(ns_[i]->Value() + static_cast<int64_t>(ns));
    count_[i]->Set(count_[i]->Value() + 1);
  }

  std::array<Gauge*, kNumRecordPhases> ns_{};
  std::array<Gauge*, kNumRecordPhases> count_{};
};

// Charges the enclosing scope to one phase of one ledger, as self time.
class LedgerTimer {
 public:
  LedgerTimer(RecordLedger* ledger, RecordPhase phase)
      : ledger_(ledger), phase_(phase), parent_(open_), start_ns_(SteadyNanos()) {
    open_ = this;
  }
  LedgerTimer(const LedgerTimer&) = delete;
  LedgerTimer& operator=(const LedgerTimer&) = delete;
  ~LedgerTimer() {
    const uint64_t dur = SteadyNanos() - start_ns_;
    open_ = parent_;
    if (parent_ != nullptr) {
      parent_->nested_ns_ += dur;
    }
    ledger_->Add(phase_, dur - nested_ns_);
  }

 private:
  static inline thread_local LedgerTimer* open_ = nullptr;  // Innermost open timer.

  RecordLedger* ledger_;
  RecordPhase phase_;
  LedgerTimer* parent_;
  uint64_t start_ns_;
  uint64_t nested_ns_ = 0;  // Inclusive time of the timers nested in this one.
};

template <typename Fn>
decltype(auto) RecordLedger::Time(RecordPhase phase, Fn&& fn) {
  LedgerTimer timer(this, phase);
  return fn();
}

// Exact per-phase aggregates, maintained on every span end while
// enabled (even when the event buffer is full).
struct PhaseTotals {
  uint64_t count = 0;
  uint64_t total_us = 0;
};
double PhaseSeconds(const std::string& phase);
uint64_t PhaseCount(const std::string& phase);
std::vector<std::pair<std::string, PhaseTotals>> PhaseAggregates();

// Chrome Trace Event Format (complete "X" events), one JSON document.
// https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
std::string ChromeTraceJson();

// Buffered event count and how many were dropped at the buffer cap
// (aggregates above are exact regardless).
size_t TraceEventCount();
uint64_t TraceEventsDropped();

// Clears buffered events and phase aggregates (benches isolate
// sections; tests isolate cases). Does not touch the registry.
void ResetTrace();

}  // namespace obs
}  // namespace avm

#endif  // SRC_OBS_TRACE_H_
