// Hot-path pipeline throughput microbench: items/sec through a two-hop
// dataflow (entry TE -> partitioned stateful TE) as the node count, the
// cross-node serialisation flag and the worker batch size vary. This is the
// repo's perf-trajectory anchor for the dataflow hot path: every item pays
// mailbox push/pop, in-flight accounting, routing and (optionally) a
// serialise/deserialise round trip, so the numbers move whenever those costs
// do. The `_ft` rows run with async-local checkpoints every 100 ms, so every
// item is also written to the upstream-backup log and trimmed by checkpoint
// acks. Each configuration runs `SDG_BENCH_REPS` times (default 5) and
// reports the median rate with the interquartile range beside it
// (`items_iqr_per_sec`). Emits BENCH_hotpath.json, stamped with the git
// revision and host, next to the printed table.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/graph/sdg.h"
#include "src/runtime/cluster.h"
#include "src/state/keyed_dict.h"

namespace sdg::bench {
namespace {

using state::KeyedDict;
using state::StateAs;
using IntDict = KeyedDict<int64_t, int64_t>;

struct Config {
  std::string name;
  uint32_t nodes = 1;
  bool serialize = false;
  size_t max_batch = 256;    // worker mailbox drain limit
  size_t inject_chunk = 64;  // tuples per InjectAll call
  uint32_t instances = 4;    // materialised `count` instances
  bool ft = false;           // async-local checkpoints every 100 ms
};

int Reps() {
  const char* env = std::getenv("SDG_BENCH_REPS");
  if (env != nullptr) {
    int v = std::atoi(env);
    if (v > 0) {
      return v;
    }
  }
  return 5;
}

// feed (entry) --kPartitioned--> count (stateful, 4 partitions). Returns
// items/sec processed by the `count` stage.
double RunPipeline(const Config& cfg, double seconds) {
  graph::SdgBuilder b;
  auto dict = b.AddState("d", graph::StateDistribution::kPartitioned,
                         [] { return std::make_unique<IntDict>(); });
  auto feed = b.AddEntryTask("feed", [](const Tuple& in,
                                        graph::TaskContext& ctx) {
    ctx.Emit(0, in);
  });
  auto count = b.AddTask("count", [](const Tuple& in, graph::TaskContext& ctx) {
    StateAs<IntDict>(ctx.state())->Put(in[0].AsInt(), in[1].AsInt());
  });
  (void)b.SetAccess(count, dict, graph::AccessMode::kPartitioned);
  b.SetInitialInstances(count, cfg.instances);
  (void)b.Connect(feed, count, graph::Dispatch::kPartitioned, 0);
  auto g = std::move(b).Build();

  runtime::ClusterOptions o;
  o.num_nodes = cfg.nodes;
  o.serialize_cross_node = cfg.serialize;
  o.max_batch = cfg.max_batch;
  if (cfg.ft) {
    o.fault_tolerance.mode = runtime::FtMode::kAsyncLocal;
    o.fault_tolerance.checkpoint_interval_s = 0.1;
    o.fault_tolerance.store.root = FreshBenchDir("hotpath_" + cfg.name);
  }
  runtime::Cluster cluster(o);
  auto d = cluster.Deploy(std::move(*g));

  Stopwatch timer;
  std::atomic<int64_t> key{0};
  DriveLoad(seconds, 1, [&](int) {
    if (Backpressure(**d, 8192)) {
      return false;
    }
    std::vector<Tuple> chunk;
    chunk.reserve(cfg.inject_chunk);
    for (size_t i = 0; i < cfg.inject_chunk; ++i) {
      int64_t k = key.fetch_add(1, std::memory_order_relaxed);
      chunk.push_back(Tuple{Value(k % 10000), Value(k)});
    }
    return (*d)->InjectAll("feed", std::move(chunk)).ok();
  });
  (*d)->Drain();
  double elapsed = timer.ElapsedSeconds();
  auto processed = static_cast<double>((*d)->ProcessedOf("count"));
  (*d)->Shutdown();
  return processed / elapsed;
}

// Ascending items/sec of `reps` runs.
std::vector<double> Rates(int reps, const Config& cfg, double seconds) {
  std::vector<double> rates;
  for (int r = 0; r < reps; ++r) {
    rates.push_back(RunPipeline(cfg, seconds));
  }
  std::sort(rates.begin(), rates.end());
  return rates;
}

}  // namespace
}  // namespace sdg::bench

int main() {
  using namespace sdg::bench;
  const double seconds = MeasureSeconds(2.0);
  const int reps = Reps();
  PrintHeader("Hotpath", "pipeline items/sec vs nodes x serialisation x batch");

  // Main grid at the default batch size, then a batch-size sweep on the
  // heaviest configuration (4 nodes, serialised) down to max_batch = 1,
  // which reproduces strict item-at-a-time processing.
  std::vector<Config> configs = {
      {"1node_raw", 1, false},
      {"1node_ser", 1, true},
      {"4node_raw", 4, false},
      {"4node_ser", 4, true},
      {"4node_ser_b1", 4, true, /*max_batch=*/1, /*inject_chunk=*/1},
      {"4node_ser_b8", 4, true, /*max_batch=*/8, /*inject_chunk=*/8},
      {"4node_ser_b64", 4, true, /*max_batch=*/64, /*inject_chunk=*/64},
      // Instance scaling on the shared fixed pool: the same two-hop pipeline
      // with the stateful stage materialised 64/256/1024-wide. Before the
      // executor this sweep was unrunnable (one thread per instance); now the
      // instances multiplex over hw_threads workers and the rows track the
      // scheduling overhead of an oversubscribed ready set.
      {"4node_ser_inst64", 4, true, 256, 64, /*instances=*/64},
      {"4node_ser_inst256", 4, true, 256, 64, /*instances=*/256},
      {"4node_ser_inst1024", 4, true, 256, 64, /*instances=*/1024},
      // Fault tolerance on: the upstream-backup log and its checkpoint trim
      // join the hot path.
      {"1node_ser_ft", 1, true, 256, 64, 4, /*ft=*/true},
      {"4node_ser_ft", 4, true, 256, 64, 4, /*ft=*/true},
  };

  BenchJson json;
  json.Stamp();
  std::printf("%-22s %8s %10s %10s %10s %4s %16s %12s\n", "config", "nodes",
              "serialize", "max_batch", "instances", "ft", "items/sec", "IQR");
  for (const auto& cfg : configs) {
    const std::vector<double> rates = Rates(reps, cfg, seconds);
    const double rate = Quantile(rates, 0.5);
    const double iqr = Quantile(rates, 0.75) - Quantile(rates, 0.25);
    std::printf("%-22s %8u %10s %10zu %10u %4s %16.0f %12.0f\n",
                cfg.name.c_str(), cfg.nodes, cfg.serialize ? "on" : "off",
                cfg.max_batch, cfg.instances, cfg.ft ? "on" : "off", rate, iqr);
    json.BeginRow();
    json.Add("config", cfg.name);
    json.Add("nodes", static_cast<uint64_t>(cfg.nodes));
    json.Add("serialize", std::string(cfg.serialize ? "on" : "off"));
    json.Add("max_batch", static_cast<uint64_t>(cfg.max_batch));
    json.Add("instances", static_cast<uint64_t>(cfg.instances));
    json.Add("reps", static_cast<uint64_t>(reps));
    json.Add("hw_threads", HwThreads());
    json.Add("ft", std::string(cfg.ft ? "on" : "off"));
    json.Add("items_per_sec", rate);
    json.Add("items_iqr_per_sec", iqr);
  }
  if (!json.WriteFile("BENCH_hotpath.json")) {
    std::printf("  warning: could not write BENCH_hotpath.json\n");
    return 1;
  }
  PrintNote("wrote BENCH_hotpath.json");
  return 0;
}
