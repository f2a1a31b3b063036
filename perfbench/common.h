// Shared plumbing of the repo benchmark: the ruler (exact percentiles with
// sample counts), the seeded generator, the self-checking value encoding and
// the metric report. Nothing here calls into src/ measurement code: the
// benchmark must not move with the code it measures (sdg::Histogram and
// serve::RunLoadGen are deliberately unused).
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}
inline double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
inline double Us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

// Host CPU ticks from /proc/stat since boot: all of them, those stolen by
// other tenants of the VM host, and those idle waiting on disk.
struct HostTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
  uint64_t iowait = 0;
};
// False when /proc/stat is unreadable.
bool ReadHostTicks(HostTicks* out);

// Wall milliseconds of a fixed sort of 2M seeded 64-bit values (16 MiB): how
// fast the host runs right now, independent of the code under test.
double HostReferenceMs();

// CPU seconds consumed by the calling thread.
double ThreadCpuSeconds();
// CPU seconds (user + system) consumed by this process.
double ProcessCpuSeconds();
// CPU seconds (utime + stime) of another process from /proc/<pid>/stat;
// negative when unreadable.
double PidCpuSeconds(int pid);

// Exact percentiles over every recorded sample (nearest-rank on the sorted
// samples), so a reported p99 is a sample that was measured, never a bucket
// edge. Not thread-safe: one recorder per thread, merged afterwards.
class Samples {
 public:
  void Add(double v) {
    v_.push_back(v);
    sorted_ = false;
  }
  void Merge(const Samples& o) {
    v_.insert(v_.end(), o.v_.begin(), o.v_.end());
    sorted_ = false;
  }
  size_t count() const { return v_.size(); }
  // q in [0,1]; 0 when empty.
  double Quantile(double q) {
    if (v_.empty()) {
      return 0;
    }
    if (!sorted_) {
      std::sort(v_.begin(), v_.end());
      sorted_ = true;
    }
    size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v_.size())));
    rank = std::clamp<size_t>(rank, 1, v_.size());
    return v_[rank - 1];
  }
  double Max() { return v_.empty() ? 0 : Quantile(1.0); }

 private:
  std::vector<double> v_;
  bool sorted_ = true;
};

// Median of a handful of values (setup repeats).
inline double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Latency samples bucketed by the second they completed in. A tail is then
// reported as the median over those windows of each window's quantile: one
// noisy second on a shared host moves it by one rank instead of dominating
// it. Not thread-safe, like Samples.
class WindowedSamples {
 public:
  void Start(Clock::time_point t0) { t0_ = t0; }
  void Add(Clock::time_point at, double v) {
    auto idx = std::chrono::duration_cast<std::chrono::seconds>(at - t0_).count();
    size_t i = idx < 0 ? 0 : static_cast<size_t>(idx);
    if (windows_.size() <= i) {
      windows_.resize(i + 1);
    }
    windows_[i].Add(v);
    all_.Add(v);
  }
  void Merge(const WindowedSamples& o) {
    if (windows_.size() < o.windows_.size()) {
      windows_.resize(o.windows_.size());
    }
    for (size_t i = 0; i < o.windows_.size(); ++i) {
      windows_[i].Merge(o.windows_[i]);
    }
    all_.Merge(o.all_);
  }
  Samples& all() { return all_; }
  size_t count() const { return all_.count(); }
  // Median over windows holding at least `min_samples` of their q-quantile;
  // falls back to the pooled quantile when no window qualifies.
  double WindowedQuantile(double q, size_t min_samples = 200) {
    std::vector<double> per_window;
    for (auto& w : windows_) {
      if (w.count() >= min_samples) {
        per_window.push_back(w.Quantile(q));
      }
    }
    return per_window.empty() ? all_.Quantile(q) : Median(per_window);
  }

 private:
  Clock::time_point t0_{};
  std::vector<Samples> windows_;
  Samples all_;
};


// splitmix64: deterministic per (seed, stream) generator.
class Rng {
 public:
  Rng(uint64_t seed, uint64_t stream)
      : s_(seed * 0x9E3779B97F4A7C15ULL ^ (stream + 1) * 0xBF58476D1CE4E5B9ULL) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }
  double Unit() { return static_cast<double>(Next() >> 11) / 9007199254740992.0; }

 private:
  uint64_t s_;
};

// Every stored value is exactly kValueBytes and names the write that made
// it: (key, writer, seq) plus a seed-derived filler. A read decodes it and
// the model checks that this very write was once issued to that key.
inline constexpr size_t kValueBytes = 64;
struct WriteId {
  int64_t key = -1;
  uint32_t writer = 0;
  uint64_t seq = 0;
};
std::string EncodeValue(const WriteId& w, uint64_t seed);
// False when the bytes are not a value EncodeValue(seed) could produce.
bool DecodeValue(const std::string& v, uint64_t seed, WriteId* out);

// Result of one benchmark run.
struct Metric {
  double value = 0;
  std::string unit;
};
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  // Records a failed operation; `what` goes to stderr (first few only).
  void Fail(const std::string& what, uint64_t n = 1);
  // The result: the last line the benchmark prints.
  std::string ToJson() const;

 private:
  uint64_t reported_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
