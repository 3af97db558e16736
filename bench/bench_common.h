// Shared helpers for the paper-reproduction bench binaries.
//
// Each bench prints the rows/series of one table or figure from the
// paper's evaluation (§6). Absolute numbers differ from the paper's
// testbed (AVM-32 interpreter vs. real hardware + VMware); the *shape* of
// each result is what EXPERIMENTS.md compares.
#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/avmm/config.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace avm {

// Median of `v` (the upper one for an even count); `v` must not be empty.
inline double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// Machine-readable results: BENCH_<name>.json in the working directory,
// one {metric, value, unit} row per Add() call (AddSamples rows also carry
// n/min/max), so the perf trajectory can be tracked PR-over-PR without
// scraping the human-readable tables.
// Written atomically (tmp + rename) so a crashed bench never leaves a
// truncated JSON for the trajectory scraper to choke on.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}
  ~BenchJson() { Write(); }

  BenchJson(const BenchJson&) = delete;
  BenchJson& operator=(const BenchJson&) = delete;

  void Add(const std::string& metric, double value, const std::string& unit) {
    rows_.push_back({metric, value, unit});
  }

  // One row for repeated samples of a metric: the value is their median,
  // with n/min/max alongside.
  void AddSamples(const std::string& metric, const std::vector<double>& samples,
                  const std::string& unit) {
    const auto [lo, hi] = std::minmax_element(samples.begin(), samples.end());
    rows_.push_back({metric, Median(samples), unit, samples.size(), *lo, *hi});
  }

  // Attach the current obs metrics snapshot (and phase aggregates) to
  // the JSON under an "obs" key, so the telemetry that explains a run's
  // numbers travels with them.
  void EmbedObsSnapshot() { embed_obs_ = true; }

  void Write() {
    if (written_ || rows_.empty()) {
      return;
    }
    written_ = true;
    std::string path = "BENCH_" + name_ + ".json";
    std::string out = "{\"bench\":\"" + name_ + "\",\"results\":[";
    char row[512];
    for (size_t i = 0; i < rows_.size(); i++) {
      std::snprintf(row, sizeof(row), "%s{\"metric\":\"%s\",\"value\":%.6g,\"unit\":\"%s\"",
                    i == 0 ? "" : ",", rows_[i].metric.c_str(), rows_[i].value,
                    rows_[i].unit.c_str());
      out += row;
      if (rows_[i].n > 0) {
        std::snprintf(row, sizeof(row), ",\"n\":%zu,\"min\":%.6g,\"max\":%.6g", rows_[i].n,
                      rows_[i].min, rows_[i].max);
        out += row;
      }
      out += "}";
    }
    out += "]";
    if (embed_obs_) {
      out += ",\"obs\":" + obs::SnapshotJson();
    }
    out += "}\n";
    std::string error;
    if (!obs::WriteFileAtomic(path, out, &error)) {
      std::fprintf(stderr, "  BENCH JSON WRITE FAILED: %s\n", error.c_str());
      return;
    }
    std::printf("  wrote %s (%zu metrics)\n", path.c_str(), rows_.size());
  }

 private:
  struct Row {
    std::string metric;
    double value;
    std::string unit;
    size_t n = 0;  // Sample count of an AddSamples row; 0 for Add.
    double min = 0;
    double max = 0;
  };
  std::string name_;
  std::vector<Row> rows_;
  bool written_ = false;
  bool embed_obs_ = false;
};

// Telemetry overhead from interleaved off/on pairs. `run()` does one
// identical run and returns its seconds; telemetry is switched off or
// on around it. Pairs alternate which side goes first, so host drift and
// warm-up hit both sides alike. Prints the median of the per-pair
// overheads with their min and max, and adds them to `json` as
// telemetry_overhead_pct. Leaves telemetry off.
inline constexpr int kOverheadPairs = 9;

template <typename Fn>
void MeasureTelemetryOverhead(BenchJson& json, Fn&& run) {
  std::vector<double> secs[2];
  std::vector<double> pct;  // Per pair: 100 * (on - off) / off.
  for (int pair = 0; pair < kOverheadPairs; pair++) {
    for (int k = 0; k < 2; k++) {
      const int on = (pair + k) % 2;
      obs::SetEnabled(on != 0);
      obs::ResetTrace();
      secs[on].push_back(run());
    }
    pct.push_back(100.0 * (secs[1].back() - secs[0].back()) / secs[0].back());
  }
  obs::SetEnabled(false);
  const auto [lo, hi] = std::minmax_element(pct.begin(), pct.end());
  std::printf("  %-26s %10.3f s  (median)\n", "obs off", Median(secs[0]));
  std::printf("  %-26s %10.3f s  (median)\n", "obs on", Median(secs[1]));
  std::printf("  overhead: %+.2f%% median of %d interleaved pairs (min %+.2f%%, max %+.2f%%)\n",
              Median(pct), kOverheadPairs, *lo, *hi);
  json.AddSamples("telemetry_overhead_pct", pct, "%");
}

// The paper's five evaluation configurations (Figure 5/6/7's x-axis).
inline std::vector<RunConfig> PaperConfigs() {
  return {RunConfig::BareHw(), RunConfig::VmNoRec(), RunConfig::VmRec(), RunConfig::AvmmNoSig(),
          RunConfig::AvmmRsa768()};
}

inline void PrintHeader(const char* experiment, const char* paper_result) {
  std::printf("================================================================\n");
  std::printf("%s\n", experiment);
  std::printf("  paper: %s\n", paper_result);
  std::printf("================================================================\n");
}

inline void PrintRule() {
  std::printf("----------------------------------------------------------------\n");
}

// Scale note shared by every bench that runs the simulator.
inline void PrintScaleNote() {
  std::printf(
      "  (AVM-32 substrate: guest runs at %u instr/simulated-us; numbers\n"
      "   are shape-comparable, not absolute-comparable, to the paper.)\n\n",
      RunConfig().ips_per_us);
}

}  // namespace avm

#endif  // BENCH_BENCH_COMMON_H_
