// Shared plumbing for the per-figure reproduction benches.
//
// Every binary regenerates one table/figure of the paper's §6 and prints the
// same rows/series the paper reports. Run durations are scaled for a single
// machine; set SDG_BENCH_SECONDS to stretch the measurement window and
// SDG_BENCH_SCALE (a float, default 1.0) to scale state sizes / key counts.
#ifndef SDG_BENCH_BENCH_COMMON_H_
#define SDG_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/clock.h"
#include "src/common/metrics.h"
#include "src/runtime/cluster.h"

namespace sdg::bench {

inline double MeasureSeconds(double default_s) {
  const char* env = std::getenv("SDG_BENCH_SECONDS");
  if (env != nullptr) {
    double v = std::atof(env);
    if (v > 0) {
      return v;
    }
  }
  return default_s;
}

inline double Scale() {
  const char* env = std::getenv("SDG_BENCH_SCALE");
  if (env != nullptr) {
    double v = std::atof(env);
    if (v > 0) {
      return v;
    }
  }
  return 1.0;
}

// Core count stamped into every BENCH_*.json row: scripts/diff_bench.py only
// compares rows measured on same-shape hardware.
inline uint64_t HwThreads() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

// Linear-interpolated quantile of an ascending vector.
inline double Quantile(const std::vector<double>& sorted, double q) {
  double pos = q * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - static_cast<double>(lo));
}

inline std::filesystem::path FreshBenchDir(const std::string& tag) {
  auto dir = std::filesystem::temp_directory_path() / ("sdg_bench_" + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// Tag carrying the injection time, for end-to-end request latency.
inline uint64_t NowTag() { return static_cast<uint64_t>(Stopwatch::NowNanos()); }

inline double LatencyMsFromTag(uint64_t tag) {
  return static_cast<double>(Stopwatch::NowNanos() -
                             static_cast<int64_t>(tag)) *
         1e-6;
}

// Header/row helpers keeping all benches' output uniform.
inline void PrintHeader(const std::string& figure, const std::string& title) {
  std::printf("=== %s: %s ===\n", figure.c_str(), title.c_str());
}

inline void PrintNote(const std::string& note) {
  std::printf("  note: %s\n", note.c_str());
}

// Open-loop load needs backpressure or reported latency is just unbounded
// queue wait: when the deployment's aggregate mailbox depth passes `limit`,
// callers should pause injection briefly. Returns true when overloaded.
inline bool Backpressure(runtime::Deployment& d, size_t limit = 4096) {
  if (d.TotalQueueDepth() > limit) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    return true;
  }
  return false;
}

// Accumulates rows of (key, value) pairs and writes them as a JSON array of
// objects — the machine-readable sibling of the printed tables, consumed by
// perf-trajectory tooling (e.g. BENCH_hotpath.json).
class BenchJson {
 public:
  void BeginRow() { rows_.emplace_back(); }

  void Add(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.2f", value);
    rows_.back().emplace_back(key, buf);
  }

  void Add(const std::string& key, uint64_t value) {
    rows_.back().emplace_back(key, std::to_string(value));
  }

  void Add(const std::string& key, const std::string& value) {
    rows_.back().emplace_back(key, "\"" + value + "\"");
  }

  // Provenance element: the git revision, host and CPU the rows were
  // measured on. It carries no "config", so scripts/diff_bench.py never
  // compares it as a row.
  void Stamp() {
    BeginRow();
    Add("git_sha", FirstLineOf("git describe --always --dirty --abbrev=12"));
    Add("host", FirstLineOf("hostname"));
    Add("cpu", FirstLineOf("sed -n 's/^model name[[:space:]]*: //p' "
                           "/proc/cpuinfo"));
    Add("hw_threads", HwThreads());
  }

  bool WriteFile(const std::string& path) const {
    std::ostringstream os;
    os << "[\n";
    for (size_t r = 0; r < rows_.size(); ++r) {
      os << "  {";
      for (size_t f = 0; f < rows_[r].size(); ++f) {
        os << "\"" << rows_[r][f].first << "\": " << rows_[r][f].second;
        if (f + 1 < rows_[r].size()) {
          os << ", ";
        }
      }
      os << "}" << (r + 1 < rows_.size() ? "," : "") << "\n";
    }
    os << "]\n";
    std::ofstream out(path);
    if (!out) {
      return false;
    }
    out << os.str();
    return static_cast<bool>(out);
  }

 private:
  // First output line of a shell command, minus characters a JSON string
  // would need escaped; "unknown" when the command prints nothing.
  static std::string FirstLineOf(const std::string& command) {
    std::string line;
    if (FILE* p = ::popen((command + " 2>/dev/null").c_str(), "r")) {
      for (int c = std::fgetc(p); c != EOF && c != '\n'; c = std::fgetc(p)) {
        if (c != '"' && c != '\\') {
          line.push_back(static_cast<char>(c));
        }
      }
      ::pclose(p);
    }
    return line.empty() ? "unknown" : line;
  }

  std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
};

// Drives `inject` from `threads` threads as fast as possible for
// `duration_s`; returns the number of successful injections.
inline uint64_t DriveLoad(double duration_s, int threads,
                          const std::function<bool(int thread_id)>& inject) {
  std::atomic<uint64_t> injected{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      while (!stop.load(std::memory_order_relaxed)) {
        if (inject(t)) {
          injected.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::this_thread::sleep_for(
      std::chrono::nanoseconds(static_cast<int64_t>(duration_s * 1e9)));
  stop = true;
  for (auto& w : workers) {
    w.join();
  }
  return injected.load();
}

}  // namespace sdg::bench

#endif  // SDG_BENCH_BENCH_COMMON_H_
