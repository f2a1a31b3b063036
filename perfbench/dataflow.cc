// dataflow_ckpt_recover: the paper's in-process §6 cluster. A runtime::Cluster
// of 4 serving nodes plus 1 spare runs the KV SDG (4 partitions) with
// serialize_cross_node on and async-local delta checkpoints to an unthrottled
// BackupStore. One injector thread streams 90% puts / 10% gets over 1,000,000
// prefilled 64-byte keys as fast as the runtime accepts them (no sleeps); the
// benchmark calls CheckpointAllNodes() every 500 ms. At the end it kills one
// serving node and recovers it onto the spare. No socket, gateway or replica
// is involved, so src/net and src/serve changes must not move these numbers.
//
// Also the layer strips of the traced runs that need no fleet: the KV SDG on
// a one-node Cluster, and a bare KeyedDict.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "src/apps/kv.h"
#include "src/runtime/cluster.h"
#include "src/state/keyed_dict.h"
#include "workloads.h"

namespace perfbench {
namespace {

using sdg::Tuple;
using sdg::Value;
using sdg::runtime::Deployment;
using StoreDict = sdg::state::KeyedDict<int64_t, std::string>;

constexpr uint32_t kPartitions = 4;
constexpr uint32_t kNodes = 5;  // 4 serving + 1 spare
constexpr int64_t kKeys = 1000000;
constexpr double kGetFrac = 0.1;
constexpr size_t kBatch = 256;
constexpr int kCkptPeriodMs = 500;
constexpr uint32_t kDeltaInterval = 8;  // base + up to 7 delta epochs per chain
constexpr uint64_t kTailOps = 100000;  // post-checkpoint work each recovery replays
constexpr uint32_t kRecoveries = 3;    // serving nodes killed in turn, each onto the spare
constexpr int kSetupRepeats = 3;
constexpr double kWarmSeconds = 2.0;
constexpr size_t kPrefillBatch = 4096;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
          .count());
}

// The injector's op stream is a pure function of (seed, op index), so the
// model needs no per-write log at a million writes per second: op i is a get
// or a put of key Key(i), and a put's seq is its op index.
class OpStream {
 public:
  explicit OpStream(uint64_t seed) : seed_(seed) {}
  bool IsGet(uint64_t i) const { return Mix(i, 1) % 1000 < static_cast<uint64_t>(kGetFrac * 1000); }
  int64_t Key(uint64_t i) const { return static_cast<int64_t>(Mix(i, 2) % kKeys); }

 private:
  uint64_t Mix(uint64_t i, uint64_t salt) const {
    Rng r(seed_ ^ (salt * 0xD6E8FEB86659FD93ULL), i);
    return r.Next();
  }
  uint64_t seed_;
};

constexpr uint32_t kInjector = 1;  // writer id of the injector; 0 is the prefill

struct Sink {
  std::mutex mu;
  std::vector<ReadRec> reads;
  WindowedSamples get_ms;
  uint64_t outputs = 0;
};

sdg::runtime::ClusterOptions DataflowOptions(const std::string& dir) {
  sdg::runtime::ClusterOptions o;
  o.num_nodes = kNodes;
  o.serialize_cross_node = true;
  o.fault_tolerance.mode = sdg::runtime::FtMode::kAsyncLocal;
  o.fault_tolerance.checkpoint_interval_s = 0;  // the benchmark drives them
  o.fault_tolerance.delta_epoch_interval = kDeltaInterval;
  o.fault_tolerance.store.root = dir;
  o.fault_tolerance.store.num_backup_nodes = 2;
  return o;
}

std::unique_ptr<Deployment> Deploy(const sdg::runtime::ClusterOptions& options) {
  sdg::apps::KvOptions kv;
  kv.partitions = kPartitions;
  auto g = sdg::apps::BuildKvSdg(kv);
  if (!g.ok()) {
    std::fprintf(stderr, "perfbench: build kv sdg: %s\n", g.status().ToString().c_str());
    return nullptr;
  }
  sdg::runtime::Cluster cluster(options);
  auto d = cluster.Deploy(std::move(*g));
  if (!d.ok()) {
    std::fprintf(stderr, "perfbench: deploy: %s\n", d.status().ToString().c_str());
    return nullptr;
  }
  return std::move(*d);
}

bool Prefill(Deployment& d, int64_t keys, uint64_t seed) {
  for (int64_t k0 = 0; k0 < keys; k0 += kPrefillBatch) {
    std::vector<Tuple> batch;
    for (int64_t k = k0; k < std::min<int64_t>(keys, k0 + kPrefillBatch); ++k) {
      batch.push_back(Tuple{Value(k), Value(EncodeValue(WriteId{k, 0, static_cast<uint64_t>(k)}, seed))});
    }
    if (!d.InjectAll("put", std::move(batch)).ok()) {
      return false;
    }
  }
  d.Drain();
  return true;
}

struct DataflowRun {
  explicit DataflowRun(uint64_t s) : seed(s) {}
  uint64_t seed;
  Sink sink;  // declared first: outlives the deployment that calls into it
  std::unique_ptr<Deployment> d;
  std::vector<uint32_t> victims;  // hosts of store partitions 0..kRecoveries-1
  uint32_t spare = 0;
  uint64_t next_op = 0;
};

// Deploy, prefill, base checkpoint: everything before the first timed op.
bool SetUp(const std::string& dir, DataflowRun* run) {
  const uint64_t seed = run->seed;
  std::filesystem::create_directories(dir);
  run->d = Deploy(DataflowOptions(dir));
  if (run->d == nullptr) {
    return false;
  }
  Deployment& d = *run->d;
  Sink* sink = &run->sink;
  sdg::Status st = d.OnOutput("get", [sink, seed](const Tuple& t, uint64_t tag) {
    auto now = Clock::now();
    double ms = 1e-6 * static_cast<double>(
                           std::chrono::duration_cast<std::chrono::nanoseconds>(
                               now.time_since_epoch()).count() -
                           static_cast<int64_t>(tag));
    ReadRec rec;
    rec.key = t[0].AsInt();
    rec.decoded = DecodeValue(t[1].AsString(), seed, &rec.got);
    std::lock_guard<std::mutex> lock(sink->mu);
    sink->get_ms.Add(now, ms);
    sink->reads.push_back(rec);
    sink->outputs++;
  });
  if (!st.ok()) {
    return false;
  }
  // The spare is the node that hosts no instance at all; the victims host
  // store partitions 0, 1, 2.
  std::vector<bool> used(kNodes, false);
  for (uint32_t i = 0; i < d.NumStateInstances("store"); ++i) {
    uint32_t n = d.NodeOfStateInstance("store", i);
    if (n < kNodes) {
      used[n] = true;
    }
  }
  for (const char* task : {"put", "get", "del"}) {
    for (uint32_t i = 0; i < d.NumInstancesOf(task); ++i) {
      uint32_t n = d.NodeOfTaskInstance(task, i);
      if (n < kNodes) {
        used[n] = true;
      }
    }
  }
  for (uint32_t i = 0; i < kRecoveries; ++i) {
    run->victims.push_back(d.NodeOfStateInstance("store", i));
  }
  run->spare = kNodes;
  for (uint32_t n = 0; n < kNodes; ++n) {
    if (!used[n]) {
      run->spare = n;
    }
  }
  std::vector<uint32_t> distinct = run->victims;
  std::sort(distinct.begin(), distinct.end());
  if (run->spare == kNodes || distinct.back() >= kNodes ||
      std::unique(distinct.begin(), distinct.end()) != distinct.end()) {
    std::fprintf(stderr, "perfbench: no spare node in the placement\n%s\n",
                 d.DescribeTopology().c_str());
    return false;
  }
  return Prefill(d, kKeys, seed) && d.CheckpointAllNodes().ok();
}

struct WindowResult {
  double wall_s = 0;
  double items_per_s = 0;  // processed by the store stage while injecting / that time
  uint64_t items = 0;  // processed by the store stage (put + get instances), drained
  uint64_t gets = 0;
  WindowedSamples put_ms;  // one sample per InjectAll("put") call
  Samples ckpt_ms;
  // Traced only.
  double inject_wall_s = 0;
  double inject_cpu_s = 0;
  Samples queue_depth;
  double ingest_ratio_during = 0;
  sdg::ExecutorStats exec0, exec1;
  Deployment::CheckpointStats ckpt0, ckpt1;
  uint64_t ckpt_calls = 0;
};

bool InjectOps(DataflowRun& run, const OpStream& ops, uint64_t n, WindowResult* w, bool traced) {
  Deployment& d = *run.d;
  std::vector<Tuple> puts;
  std::vector<Tuple> gets;
  for (uint64_t done = 0; done < n; done += kBatch) {
    puts.clear();
    gets.clear();
    for (uint64_t i = run.next_op; i < run.next_op + kBatch; ++i) {
      int64_t key = ops.Key(i);
      if (ops.IsGet(i)) {
        gets.push_back(Tuple{Value(key)});
      } else {
        puts.push_back(Tuple{Value(key), Value(EncodeValue(WriteId{key, kInjector, i}, run.seed))});
      }
    }
    run.next_op += kBatch;
    w->gets += gets.size();
    double cpu0 = traced ? ThreadCpuSeconds() : 0;
    auto t0 = Clock::now();
    if (!d.InjectAll("put", std::move(puts)).ok()) {
      return false;
    }
    auto t1 = Clock::now();
    if (!gets.empty() && !d.InjectAll("get", std::move(gets), NowNs()).ok()) {
      return false;
    }
    w->put_ms.Add(t1, Ms(t1 - t0));
    if (traced) {
      w->inject_wall_s += SecondsSince(t0);
      w->inject_cpu_s += ThreadCpuSeconds() - cpu0;
    }
  }
  return true;
}

// The measured window: the injector runs on this thread until `seconds`
// have passed (in whole batches), checkpoints on their own thread.
bool RunWindow(DataflowRun& run, const OpStream& ops, double seconds, bool traced,
               WindowResult* w) {
  Deployment& d = *run.d;
  uint64_t processed0 = d.ProcessedOf("put") + d.ProcessedOf("get");
  if (traced) {
    w->exec0 = d.ExecutorStatsSnapshot();
    w->ckpt0 = d.CheckpointStatsSnapshot();
  }
  auto start = Clock::now();
  auto end = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::atomic<bool> stop{false};
  std::vector<std::pair<Clock::time_point, Clock::time_point>> ckpt_windows;
  bool ckpt_ok = true;
  std::thread checkpointer([&] {
    auto next = Clock::now();
    while (true) {
      next += std::chrono::milliseconds(kCkptPeriodMs);
      while (Clock::now() < next && !stop.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      if (stop.load()) {
        return;
      }
      auto t0 = Clock::now();
      ckpt_ok = ckpt_ok && d.CheckpointAllNodes().ok();
      auto t1 = Clock::now();
      w->ckpt_ms.Add(Ms(t1 - t0));
      ckpt_windows.emplace_back(t0, t1);
    }
  });
  std::vector<std::pair<Clock::time_point, uint64_t>> progress;
  std::thread sampler;
  if (traced) {
    sampler = std::thread([&] {
      while (!stop.load()) {
        w->queue_depth.Add(static_cast<double>(d.TotalQueueDepth()));
        progress.emplace_back(Clock::now(), d.ProcessedOf("put") + d.ProcessedOf("get"));
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
  }
  w->put_ms.Start(start);
  {
    std::lock_guard<std::mutex> lock(run.sink.mu);
    run.sink.get_ms = WindowedSamples();
    run.sink.get_ms.Start(start);
  }
  bool ok = true;
  while (ok && Clock::now() < end) {
    ok = InjectOps(run, ops, 16 * kBatch, w, traced);
  }
  uint64_t processed1 = d.ProcessedOf("put") + d.ProcessedOf("get");
  w->items_per_s = static_cast<double>(processed1 - processed0) / SecondsSince(start);
  stop.store(true);
  checkpointer.join();
  if (sampler.joinable()) {
    sampler.join();
  }
  d.Drain();
  w->wall_s = SecondsSince(start);
  w->items = d.ProcessedOf("put") + d.ProcessedOf("get") - processed0;
  w->ckpt_calls = w->ckpt_ms.count();
  if (traced) {
    w->exec1 = d.ExecutorStatsSnapshot();
    w->ckpt1 = d.CheckpointStatsSnapshot();
    // Ingest rate inside checkpoint calls vs outside them, from the 5 ms
    // progress samples (each interval attributed by its midpoint).
    double in_items = 0, in_s = 0, out_items = 0, out_s = 0;
    for (size_t i = 1; i < progress.size(); ++i) {
      auto mid = progress[i - 1].first + (progress[i].first - progress[i - 1].first) / 2;
      bool inside = false;
      for (const auto& [a, b] : ckpt_windows) {
        inside = inside || (mid >= a && mid < b);
      }
      double dt = std::chrono::duration<double>(progress[i].first - progress[i - 1].first).count();
      double di = static_cast<double>(progress[i].second - progress[i - 1].second);
      (inside ? in_items : out_items) += di;
      (inside ? in_s : out_s) += dt;
    }
    w->ingest_ratio_during =
        in_s > 0 && out_s > 0 && out_items > 0 ? (in_items / in_s) / (out_items / out_s) : 0;
  }
  return ok && ckpt_ok;
}

// A read is valid if it returns the prefill or a put the injector issued to
// that key.
void CheckDataflowReads(const OpStream& ops, uint64_t issued, const std::vector<ReadRec>& reads,
                        Report* report) {
  for (const ReadRec& r : reads) {
    const WriteId& w = r.got;
    bool valid = r.decoded && w.key == r.key &&
                 ((w.writer == 0 && w.seq == static_cast<uint64_t>(r.key)) ||
                  (w.writer == kInjector && w.seq < issued && !ops.IsGet(w.seq) &&
                   ops.Key(w.seq) == r.key));
    if (!valid) {
      report->Fail("get of key " + std::to_string(r.key) + " returned a value never written to it");
    }
  }
}

// Every store partition must hold exactly the model: the prefill overwritten
// by the injector's puts in op order.
void CheckState(Deployment& d, const OpStream& ops, uint64_t issued, uint64_t seed,
                Report* report) {
  std::vector<uint64_t> last(static_cast<size_t>(kKeys), UINT64_MAX);
  for (uint64_t i = 0; i < issued; ++i) {
    if (!ops.IsGet(i)) {
      last[static_cast<size_t>(ops.Key(i))] = i;
    }
  }
  uint64_t entries = 0;
  uint64_t wrong = 0;
  int64_t example = -1;
  for (uint32_t i = 0; i < d.NumStateInstances("store"); ++i) {
    auto* dict = dynamic_cast<StoreDict*>(d.StateInstance("store", i));
    if (dict == nullptr) {
      report->Fail("store partition " + std::to_string(i) + " missing after recovery");
      continue;
    }
    dict->ForEach([&](const int64_t& k, const std::string& v) {
      ++entries;
      bool ok = k >= 0 && k < kKeys;
      if (ok) {
        uint64_t s = last[static_cast<size_t>(k)];
        WriteId want = s == UINT64_MAX ? WriteId{k, 0, static_cast<uint64_t>(k)}
                                       : WriteId{k, kInjector, s};
        ok = v == EncodeValue(want, seed);
      }
      if (!ok) {
        ++wrong;
        example = k;
      }
    });
  }
  report->attempted += static_cast<uint64_t>(kKeys);
  if (wrong > 0) {
    report->Fail(std::to_string(wrong) + " keys differ from the model after recovery (e.g. key " +
                     std::to_string(example) + ")",
                 wrong);
  }
  if (entries != static_cast<uint64_t>(kKeys)) {
    report->Fail("recovered store holds " + std::to_string(entries) + " entries, expected " +
                 std::to_string(kKeys));
  }
}

struct RecoverResult {
  double total_s = 0;
  double restore_s = 0;
  double replay_s = 0;
};

// Checkpoints `node` until it writes a fresh full base, so every recovery
// restores the same work (one base, no delta chain) wherever the window left
// the node's chain.
bool RebaseNode(Deployment& d, uint32_t node) {
  for (uint32_t i = 0; i <= kDeltaInterval; ++i) {
    uint64_t before = d.CheckpointStatsSnapshot().full_serializations;
    if (!d.CheckpointNode(node).ok()) {
      return false;
    }
    if (d.CheckpointStatsSnapshot().full_serializations > before) {
      return true;
    }
  }
  return false;
}

// kRecoveries times: rebase the next serving node, inject a fixed
// post-checkpoint tail the recovery must replay, then kill the node ->
// RecoverNode onto the spare -> Drain. Reports the fastest cycle (the
// others only add interference from the host).
bool KillAndRecover(DataflowRun& run, const OpStream& ops, RecoverResult* r) {
  Deployment& d = *run.d;
  std::vector<double> total, restore, replay;
  for (uint32_t victim : run.victims) {
    WindowResult tail;
    if (!RebaseNode(d, victim) || !InjectOps(run, ops, kTailOps, &tail, false)) {
      return false;
    }
    d.Drain();
    auto t0 = Clock::now();
    if (!d.KillNode(victim).ok()) {
      return false;
    }
    auto t1 = Clock::now();
    sdg::Status st = d.RecoverNode(victim, {run.spare});
    auto t2 = Clock::now();
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: recover: %s\n", st.ToString().c_str());
      return false;
    }
    d.Drain();
    auto t3 = Clock::now();
    total.push_back(std::chrono::duration<double>(t3 - t0).count());
    restore.push_back(std::chrono::duration<double>(t2 - t1).count());
    replay.push_back(std::chrono::duration<double>(t3 - t2).count());
  }
  size_t best = static_cast<size_t>(std::min_element(total.begin(), total.end()) - total.begin());
  r->total_s = total[best];
  r->restore_s = restore[best];
  r->replay_s = replay[best];
  return true;
}

// One full pass of the workload on a fresh deployment; `setup_s` is the
// median over `setups` bring-ups (all but the last are torn down at once).
struct PassResult {
  double setup_s = 0;
  WindowResult window;
  RecoverResult recover;
  WindowedSamples get_ms;
};

bool RunPass(const RunArgs& args, const std::string& tag, int setups, bool traced,
             PassResult* out, Report* report) {
  std::vector<double> setup_s;
  std::unique_ptr<DataflowRun> run;
  for (int i = 0; i < setups; ++i) {
    run.reset();
    run = std::make_unique<DataflowRun>(args.seed);
    auto t0 = Clock::now();
    if (!SetUp(args.work_dir + "/" + tag + std::to_string(i), run.get())) {
      return false;
    }
    setup_s.push_back(SecondsSince(t0));
  }
  out->setup_s = Median(setup_s);
  // An unmeasured warm-up window first (same ops, same checkpoint cadence).
  OpStream ops(args.seed);
  WindowResult warm;
  if (!RunWindow(*run, ops, kWarmSeconds, false, &warm) ||
      !RunWindow(*run, ops, args.seconds, traced, &out->window)) {
    return false;
  }
  {
    std::lock_guard<std::mutex> lock(run->sink.mu);
    uint64_t gets = warm.gets + out->window.gets;
    if (run->sink.outputs != gets) {
      report->Fail(std::to_string(gets) + " gets injected but " +
                       std::to_string(run->sink.outputs) + " answered",
                   gets > run->sink.outputs ? gets - run->sink.outputs : 1);
    }
    out->get_ms = run->sink.get_ms;
  }
  report->attempted += run->next_op;
  if (!KillAndRecover(*run, ops, &out->recover)) {
    return false;
  }
  {
    std::lock_guard<std::mutex> lock(run->sink.mu);
    CheckDataflowReads(ops, run->next_op, run->sink.reads, report);
  }
  CheckState(*run->d, ops, run->next_op, args.seed, report);
  run->d->Shutdown();
  std::printf(
      "%s: setup %.3f s | %llu items in %.3f s | put-call p50 %.3f p99/s %.3f ms (n=%zu) | "
      "get p50 %.3f p99 %.3f ms (n=%zu) | ckpt p50 %.1f ms (n=%zu) | recover %.3f s "
      "(restore %.3f, replay %.3f)\n",
      tag.c_str(), out->setup_s, static_cast<unsigned long long>(out->window.items),
      out->window.wall_s, out->window.put_ms.all().Quantile(0.5),
      out->window.put_ms.WindowedQuantile(0.99), out->window.put_ms.count(),
      out->get_ms.all().Quantile(0.5), out->get_ms.WindowedQuantile(0.99),
      out->get_ms.count(), out->window.ckpt_ms.Quantile(0.5), out->window.ckpt_ms.count(),
      out->recover.total_s, out->recover.restore_s, out->recover.replay_s);
  return true;
}

}  // namespace

bool RunDataflow(const RunArgs& args, Report* report) {
  PassResult a;
  if (!RunPass(args, "untraced", args.trace ? 1 : kSetupRepeats, false, &a, report)) {
    return false;
  }
  if (!args.trace) {
    report->Set("setup_s", a.setup_s, "s");
    report->Set("ok_qps", a.window.items_per_s, "req/s");
    return true;
  }
  report->Set("loadgen.valid", 1, "bool");  // the injector is never ahead of the runtime
  report->Set("e2e.put_p50_ms", a.window.put_ms.all().Quantile(0.5), "ms");
  report->Set("e2e.get_p50_ms", a.get_ms.all().Quantile(0.5), "ms");
  report->Set("e2e.put_p99_ms", a.window.put_ms.WindowedQuantile(0.99), "ms");
  report->Set("e2e.get_p99_ms", a.get_ms.WindowedQuantile(0.99), "ms");
  report->Set("e2e.put_samples", static_cast<double>(a.window.put_ms.count()), "count");
  report->Set("e2e.get_samples", static_cast<double>(a.get_ms.count()), "count");
  report->Set("checkpoint.ckpt_p50_ms", a.window.ckpt_ms.Quantile(0.5), "ms");
  report->Set("recover.total_s", a.recover.total_s, "s");
  report->Set("recover.restore_s", a.recover.restore_s, "s");
  report->Set("recover.replay_s", a.recover.replay_s, "s");

  PassResult b;
  if (!RunPass(args, "traced", 1, true, &b, report)) {
    return false;
  }
  WindowResult& w = b.window;
  report->Set("trace.put_p50_overhead_ms", w.put_ms.all().Quantile(0.5) - a.window.put_ms.all().Quantile(0.5), "ms");
  report->Set("trace.get_p50_overhead_ms", b.get_ms.all().Quantile(0.5) - a.get_ms.all().Quantile(0.5), "ms");
  report->Set("runtime.inject_stall_frac",
              w.wall_s > 0 ? (w.inject_wall_s - w.inject_cpu_s) / w.wall_s : 0, "fraction");
  report->Set("runtime.queue_depth_p50", b.window.queue_depth.Quantile(0.5), "count");
  double tasks = static_cast<double>(w.exec1.tasks_run - w.exec0.tasks_run);
  report->Set("runtime.steals_per_ktask",
              tasks > 0 ? 1000.0 * static_cast<double>(w.exec1.steals - w.exec0.steals) / tasks : 0,
              "count");
  double calls = static_cast<double>(w.ckpt_calls);
  report->Set("checkpoint.bytes_per_epoch",
              calls > 0 ? static_cast<double>(w.ckpt1.bytes_written - w.ckpt0.bytes_written) / calls : 0,
              "B");
  report->Set("checkpoint.records_per_epoch",
              calls > 0 ? static_cast<double>((w.ckpt1.records_full - w.ckpt0.records_full) +
                                              (w.ckpt1.records_delta - w.ckpt0.records_delta)) /
                              calls
                        : 0,
              "count");
  report->Set("checkpoint.ingest_ratio_during", w.ingest_ratio_during, "ratio");

  StripMix strip;
  strip.threads = 1;  // one injector thread, as in the workload
  strip.get_frac = kGetFrac;
  strip.keys = kKeys;
  strip.batch = kBatch;
  strip.seed = args.seed;
  strip.seconds = std::max(2.0, args.seconds / 2);
  strip.work_dir = args.work_dir + "/cluster";
  if (!ClusterStrip(strip, report)) {
    return false;
  }
  DictStrip(strip, report);
  return true;
}

// --- Layer strips -------------------------------------------------------------

bool ClusterStrip(const StripMix& mix, Report* report) {
  sdg::runtime::ClusterOptions o;
  o.num_nodes = 1;
  // Mirrors an elastic worker's deployment: async-local delta checkpoints
  // every 100 ms.
  o.fault_tolerance.mode = sdg::runtime::FtMode::kAsyncLocal;
  o.fault_tolerance.checkpoint_interval_s = 0.1;
  o.fault_tolerance.delta_epoch_interval = 8;
  o.fault_tolerance.store.root = mix.work_dir;
  std::filesystem::create_directories(mix.work_dir);
  TaggedGets gets(mix.threads);  // declared first: outlives the deployment that calls into it
  std::unique_ptr<Deployment> d = Deploy(o);
  if (d == nullptr) {
    return false;
  }
  Model model(mix.keys);
  std::mutex mu;
  Samples put_us;
  uint64_t errors = 0;  // failed put injections
  sdg::Status st = d->OnOutput("get", [&gets, &mix](const Tuple& t, uint64_t tag) {
    ReadRec rec;
    rec.decoded = DecodeValue(t[1].AsString(), mix.seed, &rec.got);
    gets.Answer(tag, rec);
  });
  if (!st.ok() || !Prefill(*d, mix.keys, mix.seed)) {
    return false;
  }
  std::vector<uint32_t> writers;
  for (int t = 0; t < mix.threads; ++t) {
    writers.push_back(model.AddWriter(1 << 16));
  }
  auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(mix.seconds));
  std::vector<std::thread> threads;
  for (int t = 0; t < mix.threads; ++t) {
    uint32_t w = writers[static_cast<size_t>(t)];
    WriterLog& log = model.log(w);
    threads.emplace_back([&, t, w] {
      Rng rng(mix.seed, 400 + static_cast<uint64_t>(t));
      std::vector<Tuple> puts;
      std::vector<int64_t> get_keys;
      while (Clock::now() < end) {
        puts.clear();
        get_keys.clear();
        size_t first_seq = log.keys.size();
        for (size_t i = 0; i < mix.batch; ++i) {
          int64_t key = SliceKey(rng, mix.keys, t, mix.threads);
          if (rng.Unit() < mix.get_frac) {
            get_keys.push_back(key);
          } else {
            puts.push_back(Tuple{Value(key), Value(EncodeValue(WriteId{key, w, log.keys.size()}, mix.seed))});
            log.keys.push_back(key);
            log.status.push_back(kPending);
          }
        }
        if (!puts.empty()) {
          auto t0 = Clock::now();
          bool ok = d->InjectAll("put", std::move(puts)).ok();
          double us = Us(Clock::now() - t0);
          std::lock_guard<std::mutex> lock(mu);
          put_us.Add(us);
          errors += !ok;
          for (size_t s = first_seq; s < log.status.size(); ++s) {
            log.status[s] = ok ? kAcked : kErrored;
          }
        }
        gets.SendAndWait(t, get_keys, [&](const std::vector<uint64_t>& tags) {
          bool ok = true;
          for (size_t i = 0; i < get_keys.size(); ++i) {
            ok = ok && d->Inject("get", Tuple{Value(get_keys[i])}, tags[i]).ok();
          }
          return ok;
        });
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  d->Drain();
  d->Shutdown();
  uint64_t failed = errors + gets.errors();
  report->attempted += put_us.count() + gets.reads().size();
  if (failed > 0) {
    report->Fail("cluster strip: " + std::to_string(failed) + " failed injections/gets", failed);
  }
  CheckReads(model, gets.reads(), report);
  Samples& get_us = gets.roundtrip_us();
  report->Set("runtime.put_us_p50", put_us.Quantile(0.5), "us");
  report->Set("runtime.put_us_p99", put_us.Quantile(0.99), "us");
  report->Set("runtime.get_roundtrip_us_p50", get_us.Quantile(0.5), "us");
  report->Set("runtime.get_roundtrip_us_p99", get_us.Quantile(0.99), "us");
  std::printf("cluster strip: batch=%zu put p50 %.1f us (n=%zu) get_roundtrip p50 %.1f us (n=%zu)\n",
              mix.batch, put_us.Quantile(0.5), put_us.count(), get_us.Quantile(0.5), get_us.count());
  return true;
}

void TaggedGets::Answer(uint64_t tag, ReadRec rec) {
  auto now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pending_.find(tag);
  if (it == pending_.end()) {
    return;
  }
  roundtrip_us_.Add(Us(now - it->second.t0));
  rec.key = it->second.key;
  reads_.push_back(rec);
  outstanding_[static_cast<size_t>(it->second.thread)]--;
  pending_.erase(it);
  cv_.notify_all();
}

void TaggedGets::SendAndWait(int thread, const std::vector<int64_t>& keys,
                             const std::function<bool(const std::vector<uint64_t>&)>& send) {
  if (keys.empty()) {
    return;
  }
  const size_t t = static_cast<size_t>(thread);
  auto t0 = Clock::now();
  std::vector<uint64_t> tags;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int64_t key : keys) {
      tags.push_back(next_tag_);
      pending_[next_tag_++] = Pending{t0, key, thread};
    }
    outstanding_[t] += static_cast<int>(keys.size());
  }
  bool sent = send(tags);
  std::unique_lock<std::mutex> lock(mu_);
  if (!sent ||
      !cv_.wait_for(lock, std::chrono::seconds(10), [&] { return outstanding_[t] == 0; })) {
    errors_ += static_cast<uint64_t>(outstanding_[t]);
    for (auto it = pending_.begin(); it != pending_.end();) {
      it = it->second.thread == thread ? pending_.erase(it) : std::next(it);
    }
    outstanding_[t] = 0;
  }
}

void DictStrip(const StripMix& mix, Report* report) {
  StoreDict dict;
  for (int64_t k = 0; k < mix.keys; ++k) {
    dict.Put(k, EncodeValue(WriteId{k, 0, static_cast<uint64_t>(k)}, mix.seed));
  }
  Rng rng(mix.seed, 500);
  constexpr size_t kChunk = 256;
  constexpr uint64_t kOps = 2000000;
  double put_s = 0, get_s = 0;
  uint64_t puts = 0, gets = 0, found = 0, seq = 0;
  std::vector<std::pair<int64_t, std::string>> put_ops;
  std::vector<int64_t> get_ops;
  for (uint64_t done = 0; done < kOps; done += kChunk) {
    put_ops.clear();
    get_ops.clear();
    for (size_t i = 0; i < kChunk; ++i) {
      int64_t key = static_cast<int64_t>(rng.Below(static_cast<uint64_t>(mix.keys)));
      if (rng.Unit() < mix.get_frac) {
        get_ops.push_back(key);
      } else {
        put_ops.emplace_back(key, EncodeValue(WriteId{key, 1, seq++}, mix.seed));
      }
    }
    auto t0 = Clock::now();
    for (auto& [k, v] : put_ops) {
      dict.Put(k, std::move(v));
    }
    auto t1 = Clock::now();
    for (int64_t k : get_ops) {
      found += dict.View(k, [](const std::string& v) { (void)v; });
    }
    auto t2 = Clock::now();
    put_s += std::chrono::duration<double>(t1 - t0).count();
    get_s += std::chrono::duration<double>(t2 - t1).count();
    puts += put_ops.size();
    gets += get_ops.size();
  }
  report->attempted += puts + gets;
  if (found != gets) {
    report->Fail("bare KeyedDict lost " + std::to_string(gets - found) + " keys", gets - found);
  }
  report->Set("state.put_ns", puts > 0 ? 1e9 * put_s / static_cast<double>(puts) : 0, "ns");
  report->Set("state.get_ns", gets > 0 ? 1e9 * get_s / static_cast<double>(gets) : 0, "ns");
  report->Set("state.bytes", static_cast<double>(dict.SizeBytes()), "B");
}

}  // namespace perfbench
