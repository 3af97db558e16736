// Shared pieces of the record-and-audit benchmark: run options, the
// statistics every timing goes through, and the outcome ledger behind
// `attempted`/`failed`.
#ifndef AVMBENCH_SRC_COMMON_H_
#define AVMBENCH_SRC_COMMON_H_

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace avmbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;  // Measuring time of one run.
  bool trace = false;   // Per-layer run instead of the end-to-end run.
  bool tiny = false;    // Smoke/determinism size (test_bench.py).
  std::string work_dir; // Scratch directory for stores and trace files.
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// What one run reports: its metrics, plus every per-pass timing behind
// them (printed, not reported as metrics, so a noisy run can be diagnosed).
struct RunResult {
  std::vector<Metric> metrics;
  std::map<std::string, std::vector<double>> passes;
};

inline double NowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Linear-interpolated quantile (q in [0,1]) of an unsorted sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double Min(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

// Element-wise minimum over passes of the same operation sequence: the
// i-th operation of every pass is identical work, so interference (which
// only ever adds time) is filtered per operation before the median/p90
// across the differing operations is taken.
inline std::vector<double> PerOpMin(const std::vector<std::vector<double>>& passes) {
  std::vector<double> out;
  for (const std::vector<double>& p : passes) {
    if (out.empty()) {
      out = p;
      continue;
    }
    for (size_t i = 0; i < out.size() && i < p.size(); i++) {
      out[i] = std::min(out[i], p[i]);
    }
  }
  return out;
}

// Rotates passes across the CPUs this process may use. Interference on a
// shared host is per CPU and per phase (one vCPU can run 1.5x slow for
// seconds while another runs clean), so passes that visit every CPU give
// the run's low-order statistics a clean sample to find. Threads a pass
// creates inherit its mask.
class CpuRotor {
 public:
  CpuRotor() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof(all_), &all_) == 0) {
      for (int c = 0; c < CPU_SETSIZE; c++) {
        if (CPU_ISSET(c, &all_)) {
          cpus_.push_back(c);
        }
      }
    }
  }
  ~CpuRotor() { Release(); }
  CpuRotor(const CpuRotor&) = delete;
  CpuRotor& operator=(const CpuRotor&) = delete;

  // Pins the calling thread to the next `width` CPUs in turn.
  void Next(int width) {
    if (cpus_.size() < 2) {
      return;
    }
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int i = 0; i < width && static_cast<size_t>(i) < cpus_.size(); i++) {
      CPU_SET(cpus_[(next_ + static_cast<size_t>(i)) % cpus_.size()], &set);
    }
    next_++;
    sched_setaffinity(0, sizeof(set), &set);
  }
  void Release() {
    if (cpus_.size() >= 2) {
      sched_setaffinity(0, sizeof(all_), &all_);
    }
  }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

// Every checked operation (audit, spot check, ping, control) lands here;
// a wrong outcome is printed immediately so a failing run says why.
class Ledger {
 public:
  void Check(bool correct, const std::string& what) {
    attempted_++;
    if (!correct) {
      failed_++;
      std::printf("WRONG %s\n", what.c_str());
    }
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

}  // namespace avmbench

#endif  // AVMBENCH_SRC_COMMON_H_
