// The repo benchmark's binary. run.py builds and invokes it:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --bin-dir DIR --work-dir DIR
//
// Prints progress lines, then as its last stdout line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Exits non-zero without a
// result line when the run could not be carried out.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "fleet.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// BENCHMARK.json's end_to_end list, in order.
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"ok_qps", "req/s"},
};

// BENCHMARK.json's per_layer list. A layer a workload never reaches (the
// gateway on the in-process cluster, checkpoint internals on the fleet)
// reads 0 there.
const MetricSpec kPerLayer[] = {
    {"serve.batch_mean", "count"},
    {"serve.shed_frac", "fraction"},
    {"serve.replica_hit_frac", "fraction"},
    {"serve.replica_epochs_per_s", "1/s"},
    {"serve.gateway_self_us_p50", "us"},
    {"serve.gateway_self_us_p99", "us"},
    {"elastic.put_inject_us_p50", "us"},
    {"elastic.put_inject_us_p99", "us"},
    {"elastic.get_roundtrip_us_p50", "us"},
    {"elastic.get_roundtrip_us_p99", "us"},
    {"elastic.unacked_backlog_p50", "count"},
    {"elastic.unacked_backlog_max", "count"},
    {"net.get_wire_us_p50", "us"},
    {"runtime.put_us_p50", "us"},
    {"runtime.put_us_p99", "us"},
    {"runtime.get_roundtrip_us_p50", "us"},
    {"runtime.get_roundtrip_us_p99", "us"},
    {"runtime.inject_stall_frac", "fraction"},
    {"runtime.queue_depth_p50", "count"},
    {"runtime.steals_per_ktask", "count"},
    {"state.put_ns", "ns"},
    {"state.get_ns", "ns"},
    {"state.bytes", "B"},
    {"checkpoint.ckpt_p50_ms", "ms"},
    {"checkpoint.bytes_per_epoch", "B"},
    {"checkpoint.records_per_epoch", "count"},
    {"checkpoint.ingest_ratio_during", "ratio"},
    {"recover.total_s", "s"},
    {"recover.restore_s", "s"},
    {"recover.replay_s", "s"},
    {"cpu.gateway_util", "cores"},
    {"cpu.worker_util", "cores"},
    {"cpu.gateway_us_per_req", "us"},
    {"cpu.worker_us_per_req", "us"},
    {"cpu.loadgen_util", "cores"},
    {"loadgen.late_ms_p99", "ms"},
    {"loadgen.valid", "bool"},
    {"trace.put_p50_overhead_ms", "ms"},
    {"trace.get_p50_overhead_ms", "ms"},
    {"e2e.put_p50_ms", "ms"},
    {"e2e.get_p50_ms", "ms"},
    {"e2e.put_p99_ms", "ms"},
    {"e2e.get_p99_ms", "ms"},
    {"e2e.put_samples", "count"},
    {"e2e.get_samples", "count"},
    {"host.steal_frac", "fraction"},
    {"host.iowait_frac", "fraction"},
    {"host.ref_sort_ms", "ms"},
};

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload kv_write_peak|dataflow_ckpt_recover "
               "--seed N --seconds S --trace 0|1 --bin-dir DIR --work-dir DIR\n");
  std::exit(2);
}

// Keeps exactly the metrics BENCHMARK.json lists for this mode.
template <size_t N>
bool Finalize(const MetricSpec (&specs)[N], bool zero_missing, Report* report) {
  std::map<std::string, Metric> out;
  for (const MetricSpec& s : specs) {
    auto it = report->metrics.find(s.name);
    if (it == report->metrics.end()) {
      if (!zero_missing) {
        std::fprintf(stderr, "perfbench: metric %s was not measured\n", s.name);
        return false;
      }
      out[s.name] = Metric{0, s.unit};
    } else {
      out[s.name] = Metric{it->second.value, s.unit};
    }
  }
  report->metrics = std::move(out);
  return true;
}

int Main(int argc, char** argv) {
  RunArgs args;
  std::string work_root;
  for (int i = 1; i < argc; ++i) {
    auto need = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage();
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--workload") == 0) {
      args.workload = need();
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      args.seed = std::strtoull(need().c_str(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--seconds") == 0) {
      args.seconds = std::atof(need().c_str());
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      args.trace = std::atoi(need().c_str()) != 0;
    } else if (std::strcmp(argv[i], "--bin-dir") == 0) {
      args.bin_dir = need();
    } else if (std::strcmp(argv[i], "--work-dir") == 0) {
      work_root = need();
    } else {
      Usage();
    }
  }
  if ((args.workload != "kv_write_peak" && args.workload != "dataflow_ckpt_recover") ||
      args.seconds <= 0 || args.bin_dir.empty() || work_root.empty()) {
    Usage();
  }
  std::string strays;
  if (!NoStrayFleet(&strays)) {
    std::fprintf(stderr, "perfbench: refusing to run beside a stray fleet: %s\n", strays.c_str());
    return 3;
  }
  args.work_dir = work_root + "/run-" + std::to_string(getpid());
  std::error_code ec;
  std::filesystem::remove_all(args.work_dir, ec);
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", args.work_dir.c_str());
    return 1;
  }
  Report report;
  // On a shared VM, run-to-run spread comes from the host: time stolen by
  // other tenants, disk waits, or a host that slows down for every process
  // (a slower reference computation before and after the workload). Every
  // run reports all three.
  HostTicks t0, t1;
  bool ticks = ReadHostTicks(&t0);
  double ref_ms = HostReferenceMs();
  bool ran = args.workload == "kv_write_peak" ? RunServe(args, &report) : RunDataflow(args, &report);
  ref_ms = (ref_ms + HostReferenceMs()) / 2;
  report.Set("host.ref_sort_ms", ref_ms, "ms");
  if (ticks && ReadHostTicks(&t1) && t1.total > t0.total) {
    double total = static_cast<double>(t1.total - t0.total);
    double steal = static_cast<double>(t1.steal - t0.steal) / total;
    double iowait = static_cast<double>(t1.iowait - t0.iowait) / total;
    report.Set("host.steal_frac", steal, "fraction");
    report.Set("host.iowait_frac", iowait, "fraction");
    std::printf("host steal %.4f, iowait %.4f of all CPU time during the run; reference sort %.2f ms\n",
                steal, iowait, ref_ms);
  }
  std::filesystem::remove_all(args.work_dir, ec);
  if (!ran) {
    std::fprintf(stderr, "perfbench: %s could not be run\n", args.workload.c_str());
    return 1;
  }
  bool complete = args.trace ? Finalize(kPerLayer, true, &report)
                             : Finalize(kEndToEnd, false, &report);
  if (!complete) {
    return 1;
  }
  if (report.attempted == 0) {
    report.Fail("no operations attempted");
    report.attempted = 1;
  }
  std::printf("%s\n", report.ToJson().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
