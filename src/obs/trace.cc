#include "src/obs/trace.h"

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <thread>

#include "src/obs/metrics.h"

namespace avm {
namespace obs {
namespace {

std::atomic<bool> g_enabled{false};

// Small dense thread ids for trace events: Perfetto renders one track
// per (pid, tid), and hashed std::thread::ids make unreadable tracks.
uint32_t CurrentTid() {
  static std::atomic<uint32_t> next{1};
  static thread_local const uint32_t tid = next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

struct TraceEvent {
  const char* name;
  const char* cat;
  uint64_t ts_us;
  uint64_t dur_us;
  uint32_t tid;
};

// Global trace sink. Events are bounded (the aggregates are not): a
// long fleet run keeps exact phase totals while the event buffer holds
// the most recent-run window for Perfetto.
class TraceLog {
 public:
  static TraceLog& Get() {
    static TraceLog* g = new TraceLog();
    return *g;
  }

  static constexpr size_t kMaxEvents = 1u << 18;

  void RecordSpanEnd(const char* phase, const char* cat, uint64_t start_us, uint64_t dur_us) {
    Histogram* hist = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (events_.size() < kMaxEvents) {
        events_.push_back(TraceEvent{phase, cat, start_us, dur_us, CurrentTid()});
      } else {
        dropped_++;
      }
      PhaseTotals& agg = aggregates_[phase];
      agg.count++;
      agg.total_us += dur_us;
      auto it = phase_hists_.find(phase);
      if (it == phase_hists_.end()) {
        it = phase_hists_
                 .emplace(phase, Registry::Global().GetHistogram("span_us", {{"phase", phase}}))
                 .first;
      }
      hist = it->second;
    }
    // Outside mu_: the registry has its own lock.
    hist->Record(dur_us);
  }

  PhaseTotals Totals(const std::string& phase) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = aggregates_.find(phase);
    return it == aggregates_.end() ? PhaseTotals{} : it->second;
  }

  std::vector<std::pair<std::string, PhaseTotals>> AllTotals() const {
    std::lock_guard<std::mutex> lock(mu_);
    return {aggregates_.begin(), aggregates_.end()};
  }

  std::string ChromeJson() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::string out;
    out.reserve(64 + events_.size() * 96);
    out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const TraceEvent& e : events_) {
      if (!first) {
        out += ',';
      }
      first = false;
      out += "{\"name\":\"";
      out += e.name;  // Phase names are static identifiers; no escaping needed.
      out += "\",\"cat\":\"";
      out += e.cat;
      out += "\",\"ph\":\"X\",\"pid\":1,\"tid\":";
      out += std::to_string(e.tid);
      out += ",\"ts\":";
      out += std::to_string(e.ts_us);
      out += ",\"dur\":";
      out += std::to_string(e.dur_us);
      out += '}';
    }
    out += "]}";
    return out;
  }

  size_t EventCount() const {
    std::lock_guard<std::mutex> lock(mu_);
    return events_.size();
  }

  uint64_t Dropped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return dropped_;
  }

  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    events_.clear();
    aggregates_.clear();
    dropped_ = 0;
  }

 private:
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  std::map<std::string, PhaseTotals> aggregates_;
  std::map<std::string, Histogram*> phase_hists_;  // span_us{phase=...}, cached.
  uint64_t dropped_ = 0;
};

}  // namespace

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void SetEnabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

uint64_t NowMicros() {
  static const uint64_t epoch = SteadyNanos();
  return (SteadyNanos() - epoch) / 1000;
}

Span::Span(const char* phase, const char* cat)
    : phase_(phase), cat_(cat), start_ns_(SteadyNanos()), recorded_(Enabled()) {}

double Span::End() {
  if (!open_) {
    return 0.0;
  }
  open_ = false;
  const uint64_t dur_ns = SteadyNanos() - start_ns_;
  if (recorded_) {
    const uint64_t dur_us = dur_ns / 1000;
    TraceLog::Get().RecordSpanEnd(phase_, cat_, NowMicros() - dur_us, dur_us);
  }
  return static_cast<double>(dur_ns) / 1e9;
}

LedgerTotals LedgerTotals::operator-(const LedgerTotals& o) const {
  LedgerTotals d;
  for (size_t i = 0; i < kNumRecordPhases; i++) {
    d.ns[i] = ns[i] - o.ns[i];
    d.count[i] = count[i] - o.count[i];
  }
  return d;
}

RecordLedger::RecordLedger(const std::string& node) {
  Registry& reg = Registry::Global();
  for (size_t i = 0; i < kNumRecordPhases; i++) {
    const Labels labels{{"node", node}, {"phase", kRecordPhaseNames[i]}};
    ns_[i] = reg.GetGauge("record_ns", labels);
    count_[i] = reg.GetGauge("record_count", labels);
  }
}

LedgerTotals RecordLedger::Totals() const {
  LedgerTotals t;
  for (size_t i = 0; i < kNumRecordPhases; i++) {
    t.ns[i] = static_cast<uint64_t>(ns_[i]->Value());
    t.count[i] = static_cast<uint64_t>(count_[i]->Value());
  }
  return t;
}

double PhaseSeconds(const std::string& phase) {
  return static_cast<double>(TraceLog::Get().Totals(phase).total_us) / 1e6;
}

uint64_t PhaseCount(const std::string& phase) { return TraceLog::Get().Totals(phase).count; }

std::vector<std::pair<std::string, PhaseTotals>> PhaseAggregates() {
  return TraceLog::Get().AllTotals();
}

std::string ChromeTraceJson() { return TraceLog::Get().ChromeJson(); }

size_t TraceEventCount() { return TraceLog::Get().EventCount(); }

uint64_t TraceEventsDropped() { return TraceLog::Get().Dropped(); }

void ResetTrace() { TraceLog::Get().Reset(); }

}  // namespace obs
}  // namespace avm
