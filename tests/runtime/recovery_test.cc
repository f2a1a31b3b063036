// Failure-recovery tests: checkpoints, kill, m-to-n restore, and replay (§5).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <chrono>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "src/graph/sdg.h"
#include "src/runtime/cluster.h"
#include "src/state/keyed_dict.h"
#include "tests/common/scoped_test_dir.h"

namespace sdg::runtime {
namespace {

using graph::AccessMode;
using graph::SdgBuilder;
using graph::StateDistribution;
using state::KeyedDict;
using state::StateAs;

using IntDict = KeyedDict<int64_t, int64_t>;

Result<graph::Sdg> BuildKvGraph() {
  SdgBuilder b;
  auto dict = b.AddState("dict", StateDistribution::kPartitioned,
                         [] { return std::make_unique<IntDict>(); });
  auto put = b.AddEntryTask("put", [](const Tuple& in, graph::TaskContext& ctx) {
    StateAs<IntDict>(ctx.state())->Put(in[0].AsInt(), in[1].AsInt());
  });
  auto get = b.AddEntryTask("get", [](const Tuple& in, graph::TaskContext& ctx) {
    auto v = StateAs<IntDict>(ctx.state())->Get(in[0].AsInt());
    ctx.Emit(0, Tuple{in[0], Value(v.value_or(-1))});
  });
  EXPECT_TRUE(b.SetAccess(put, dict, AccessMode::kPartitioned).ok());
  EXPECT_TRUE(b.SetAccess(get, dict, AccessMode::kPartitioned).ok());
  return std::move(b).Build();
}

ClusterOptions FtCluster(const std::filesystem::path& dir, FtMode mode,
                         uint32_t nodes = 3, uint32_t backup_nodes = 2) {
  ClusterOptions o;
  o.num_nodes = nodes;
  o.mailbox_capacity = 8192;
  o.fault_tolerance.mode = mode;
  o.fault_tolerance.checkpoint_interval_s = 0;  // manual checkpoints only
  o.fault_tolerance.chunks_per_state = 4;
  o.fault_tolerance.store.root = dir;
  o.fault_tolerance.store.num_backup_nodes = backup_nodes;
  o.fault_tolerance.store.io_threads = 4;
  return o;
}

std::map<int64_t, int64_t> ReadAll(Deployment& d, int64_t num_keys) {
  std::mutex mu;
  std::map<int64_t, int64_t> results;
  EXPECT_TRUE(d.OnOutput("get", [&](const Tuple& t, uint64_t) {
              std::lock_guard<std::mutex> lock(mu);
              results[t[0].AsInt()] = t[1].AsInt();
            }).ok());
  for (int64_t k = 0; k < num_keys; ++k) {
    EXPECT_TRUE(d.Inject("get", Tuple{Value(k)}).ok());
  }
  d.Drain();
  return results;
}

TEST(CheckpointTest, ManualCheckpointCompletes) {
  ScopedTestDir dir("ckpt_basic");
  auto g = BuildKvGraph();
  ASSERT_TRUE(g.ok());
  Cluster cluster(FtCluster(dir.path(), FtMode::kAsyncLocal));
  auto d = cluster.Deploy(std::move(*g));
  ASSERT_TRUE(d.ok());

  for (int64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE((*d)->Inject("put", Tuple{Value(k), Value(k)}).ok());
  }
  (*d)->Drain();
  ASSERT_TRUE((*d)->CheckpointAllNodes().ok());
  EXPECT_GT((*d)->CheckpointsCompleted(), 0u);
  // After the checkpoint, no SE may be left with an active dirty overlay.
  auto* dict = StateAs<IntDict>((*d)->StateInstance("dict", 0));
  ASSERT_NE(dict, nullptr);
  EXPECT_FALSE(dict->checkpoint_active());
}

TEST(CheckpointTest, DisabledModeRejectsCheckpoint) {
  auto g = BuildKvGraph();
  ASSERT_TRUE(g.ok());
  ClusterOptions o;
  o.num_nodes = 1;
  Cluster cluster(o);
  auto d = cluster.Deploy(std::move(*g));
  ASSERT_TRUE(d.ok());
  EXPECT_EQ((*d)->CheckpointNode(0).code(), StatusCode::kFailedPrecondition);
}

TEST(CheckpointTest, ProcessingContinuesDuringAsyncCheckpoint) {
  ScopedTestDir dir("ckpt_async");
  auto g = BuildKvGraph();
  ASSERT_TRUE(g.ok());
  Cluster cluster(FtCluster(dir.path(), FtMode::kAsyncLocal, /*nodes=*/1));
  auto d = cluster.Deploy(std::move(*g));
  ASSERT_TRUE(d.ok());

  for (int64_t k = 0; k < 5000; ++k) {
    ASSERT_TRUE((*d)->Inject("put", Tuple{Value(k), Value(1)}).ok());
  }
  // Checkpoint while puts continue from another thread.
  std::thread injector([&] {
    for (int64_t k = 0; k < 5000; ++k) {
      ASSERT_TRUE((*d)->Inject("put", Tuple{Value(k), Value(2)}).ok());
    }
  });
  ASSERT_TRUE((*d)->CheckpointNode(0).ok());
  injector.join();
  (*d)->Drain();
  // Everything written, dirty overlay consolidated.
  auto all = ReadAll(**d, 5000);
  for (int64_t k = 0; k < 5000; ++k) {
    EXPECT_EQ(all[k], 2);
  }
}

TEST(CheckpointTest, ParallelSerializeFanoutRoundTrip) {
  // Forces the per-shard serialize fan-out (ckpt_parallelism > 1) plus the
  // concurrent ChunkStreamWriter, which auto-parallelism would leave off on
  // a single-core machine, and proves the bytes it writes restore a node.
  ScopedTestDir dir("ckpt_fanout");
  auto g = BuildKvGraph();
  ASSERT_TRUE(g.ok());
  auto opts = FtCluster(dir.path(), FtMode::kAsyncLocal);
  opts.fault_tolerance.ckpt_parallelism = 4;
  Cluster cluster(opts);
  auto d = cluster.Deploy(std::move(*g));
  ASSERT_TRUE(d.ok());

  constexpr int64_t kKeys = 2000;
  for (int64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE((*d)->Inject("put", Tuple{Value(k), Value(k * 3)}).ok());
  }
  (*d)->Drain();
  ASSERT_TRUE((*d)->CheckpointAllNodes().ok());

  ASSERT_TRUE((*d)->KillNode(0).ok());
  ASSERT_TRUE((*d)->RecoverNode(0, {1}).ok());
  (*d)->Drain();

  auto all = ReadAll(**d, kKeys);
  ASSERT_EQ(all.size(), static_cast<size_t>(kKeys));
  for (int64_t k = 0; k < kKeys; ++k) {
    ASSERT_EQ(all[k], k * 3) << "key " << k << " lost through fan-out ckpt";
  }
}

class RecoveryModeTest : public ::testing::TestWithParam<FtMode> {};

TEST_P(RecoveryModeTest, KillAndRecoverOneToOne) {
  ScopedTestDir dir(std::string("rec_") +
                      std::string(FtModeName(GetParam())));
  auto g = BuildKvGraph();
  ASSERT_TRUE(g.ok());
  // Single-node KV plus two spares.
  auto opts = FtCluster(dir.path(), GetParam(), /*nodes=*/3);
  Cluster cluster(opts);
  auto d = cluster.Deploy(std::move(*g));
  ASSERT_TRUE(d.ok());

  constexpr int64_t kKeys = 500;
  for (int64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE((*d)->Inject("put", Tuple{Value(k), Value(k)}).ok());
  }
  (*d)->Drain();
  ASSERT_TRUE((*d)->CheckpointNode(0).ok());

  // Post-checkpoint updates: recovered only via external-buffer replay.
  for (int64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE((*d)->Inject("put", Tuple{Value(k), Value(k + 1000)}).ok());
  }
  (*d)->Drain();

  ASSERT_TRUE((*d)->KillNode(0).ok());
  EXPECT_FALSE((*d)->NodeAlive(0));
  ASSERT_TRUE((*d)->RecoverNode(0, {1}).ok());
  (*d)->Drain();

  auto all = ReadAll(**d, kKeys);
  ASSERT_EQ(all.size(), static_cast<size_t>(kKeys));
  for (int64_t k = 0; k < kKeys; ++k) {
    EXPECT_EQ(all[k], k + 1000) << "key " << k << " lost post-checkpoint update";
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, RecoveryModeTest,
                         ::testing::Values(FtMode::kAsyncLocal,
                                           FtMode::kSyncLocal,
                                           FtMode::kSyncGlobal),
                         [](const auto& info) {
                           return std::string(FtModeName(info.param)) == "async-local"
                                      ? std::string("AsyncLocal")
                                  : FtModeName(info.param) == "sync-local"
                                      ? std::string("SyncLocal")
                                      : std::string("SyncGlobal");
                         });

TEST(RecoveryTest, OneToTwoSplitRecovery) {
  ScopedTestDir dir("rec_split");
  auto g = BuildKvGraph();
  ASSERT_TRUE(g.ok());
  Cluster cluster(FtCluster(dir.path(), FtMode::kAsyncLocal, /*nodes=*/3));
  auto d = cluster.Deploy(std::move(*g));
  ASSERT_TRUE(d.ok());

  constexpr int64_t kKeys = 400;
  for (int64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE((*d)->Inject("put", Tuple{Value(k), Value(k * 3)}).ok());
  }
  (*d)->Drain();
  ASSERT_TRUE((*d)->CheckpointNode(0).ok());

  ASSERT_TRUE((*d)->KillNode(0).ok());
  // Restore the lost single-instance SE as two partitioned instances on the
  // two spare nodes (1-to-2 of Fig. 4 / Fig. 11).
  ASSERT_TRUE((*d)->RecoverNode(0, {1, 2}).ok());
  (*d)->Drain();

  EXPECT_EQ((*d)->NumStateInstances("dict"), 2u);
  EXPECT_EQ((*d)->NumInstancesOf("put"), 2u);
  EXPECT_EQ((*d)->NumInstancesOf("get"), 2u);

  auto all = ReadAll(**d, kKeys);
  ASSERT_EQ(all.size(), static_cast<size_t>(kKeys));
  for (int64_t k = 0; k < kKeys; ++k) {
    EXPECT_EQ(all[k], k * 3) << "key " << k;
  }
  // Both new partitions hold a share.
  auto* p0 = StateAs<IntDict>((*d)->StateInstance("dict", 0));
  auto* p1 = StateAs<IntDict>((*d)->StateInstance("dict", 1));
  ASSERT_NE(p0, nullptr);
  ASSERT_NE(p1, nullptr);
  EXPECT_GT(p0->Size(), 100u);
  EXPECT_GT(p1->Size(), 100u);
}

TEST(RecoveryTest, RecoveryWithoutCheckpointFails) {
  ScopedTestDir dir("rec_nockpt");
  auto g = BuildKvGraph();
  ASSERT_TRUE(g.ok());
  Cluster cluster(FtCluster(dir.path(), FtMode::kAsyncLocal, /*nodes=*/2));
  auto d = cluster.Deploy(std::move(*g));
  ASSERT_TRUE(d.ok());
  ASSERT_TRUE((*d)->KillNode(0).ok());
  EXPECT_FALSE((*d)->RecoverNode(0, {1}).ok());
}

TEST(RecoveryTest, PeriodicCheckpointDriverRuns) {
  ScopedTestDir dir("rec_periodic");
  auto g = BuildKvGraph();
  ASSERT_TRUE(g.ok());
  auto opts = FtCluster(dir.path(), FtMode::kAsyncLocal, /*nodes=*/1);
  opts.fault_tolerance.checkpoint_interval_s = 0.05;
  Cluster cluster(opts);
  auto d = cluster.Deploy(std::move(*g));
  ASSERT_TRUE(d.ok());
  for (int64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE((*d)->Inject("put", Tuple{Value(k), Value(k)}).ok());
  }
  // Give the driver a few intervals.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  EXPECT_GT((*d)->CheckpointsCompleted(), 1u);
  (*d)->Shutdown();
}

TEST(RecoveryTest, MigrateNodeMovesStateAndKeepsServing) {
  ScopedTestDir dir("rec_migrate");
  auto g = BuildKvGraph();
  ASSERT_TRUE(g.ok());
  Cluster cluster(FtCluster(dir.path(), FtMode::kAsyncLocal, /*nodes=*/3));
  auto d = cluster.Deploy(std::move(*g));
  ASSERT_TRUE(d.ok());

  constexpr int64_t kKeys = 300;
  for (int64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE((*d)->Inject("put", Tuple{Value(k), Value(k * 7)}).ok());
  }
  (*d)->Drain();

  // Evacuate node 0 (hosting the single store partition) onto node 2.
  ASSERT_TRUE((*d)->MigrateNode(0, {2}).ok());
  (*d)->Drain();
  EXPECT_FALSE((*d)->NodeAlive(0));
  std::string dump = (*d)->DescribeTopology();
  EXPECT_NE(dump.find("node 0 [DEAD]"), std::string::npos);

  // All state survives, and new traffic keeps flowing.
  for (int64_t k = kKeys; k < kKeys + 50; ++k) {
    ASSERT_TRUE((*d)->Inject("put", Tuple{Value(k), Value(k * 7)}).ok());
  }
  (*d)->Drain();
  auto all = ReadAll(**d, kKeys + 50);
  ASSERT_EQ(all.size(), static_cast<size_t>(kKeys + 50));
  for (int64_t k = 0; k < kKeys + 50; ++k) {
    EXPECT_EQ(all[k], k * 7) << "key " << k;
  }
  EXPECT_FALSE((*d)->MigrateNode(1, {1}).ok());  // self-migration rejected
}

// One thread injects 64-put batches without pausing while the main thread
// kills the partition's host and recovers it elsewhere, three times; every
// key must end with its last put. KillNode/RecoverNode do not take the
// ingest gate, so this needs every injected item in the log before a
// recovery replays it, and no fresh item reaching the recovered instance
// ahead of the replay (its watermark would make dedup drop the replayed
// items). Values are the put's sequence number, so the last put of each key
// is known without a per-write log.
TEST(RecoveryTest, ConcurrentInjectionAcrossKillAndRecover) {
  ScopedTestDir dir("rec_concurrent_inject");
  auto g = BuildKvGraph();
  ASSERT_TRUE(g.ok());
  constexpr uint32_t kNodes = 4;
  Cluster cluster(FtCluster(dir.path(), FtMode::kAsyncLocal, kNodes));
  auto d = cluster.Deploy(std::move(*g));
  ASSERT_TRUE(d.ok());
  Deployment& dep = **d;

  constexpr int64_t kKeys = 1 << 16;
  constexpr int64_t kBatch = 64;
  std::atomic<bool> stop{false};
  std::atomic<int64_t> batches{0};
  std::thread injector([&] {
    for (int64_t b = 0; !stop.load(std::memory_order_acquire); ++b) {
      std::vector<Tuple> batch;
      for (int64_t i = 0; i < kBatch; ++i) {
        const int64_t seq = b * kBatch + i;
        batch.push_back(Tuple{Value(seq % kKeys), Value(seq)});
      }
      if (!dep.InjectAll("put", std::move(batch)).ok()) {
        ADD_FAILURE() << "InjectAll failed at batch " << b;
        return;
      }
      batches.store(b + 1, std::memory_order_release);
    }
  });
  // Blocks until the injector has pushed `n` more batches.
  auto await_batches = [&](int64_t n) {
    const int64_t target = batches.load(std::memory_order_acquire) + n;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (batches.load(std::memory_order_acquire) < target &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  };

  for (int round = 0; round < 3; ++round) {
    await_batches(16);
    ASSERT_TRUE(dep.CheckpointAllNodes().ok()) << "round " << round;
    await_batches(16);  // a post-checkpoint tail for the replay
    const uint32_t host = dep.NodeOfStateInstance("dict", 0);
    ASSERT_LT(host, kNodes);
    ASSERT_TRUE(dep.KillNode(host).ok()) << "round " << round;
    uint32_t target = kNodes;
    for (uint32_t n = 0; n < kNodes; ++n) {
      if (n != host && dep.NodeAlive(n)) {
        target = n;
        break;
      }
    }
    ASSERT_LT(target, kNodes);
    ASSERT_TRUE(dep.RecoverNode(host, {target}).ok()) << "round " << round;
  }
  stop.store(true, std::memory_order_release);
  injector.join();
  dep.Drain();

  const int64_t total = batches.load() * kBatch;
  ASSERT_GT(total, 0);
  auto* dict = StateAs<IntDict>(dep.StateInstance("dict", 0));
  ASSERT_NE(dict, nullptr);
  int64_t wrong = 0;
  for (int64_t k = 0; k < std::min(kKeys, total); ++k) {
    // The last seq < total that maps to key k.
    const int64_t last = k + ((total - 1 - k) / kKeys) * kKeys;
    auto v = dict->Get(k);
    if (!v.has_value() || *v != last) {
      if (++wrong <= 5) {
        ADD_FAILURE() << "key " << k << " holds "
                      << (v.has_value() ? std::to_string(*v) : "nothing")
                      << ", last put was " << last;
      }
    }
  }
  EXPECT_EQ(wrong, 0) << "of " << std::min(kKeys, total) << " keys";
}

TEST(RecoveryTest, RecoverNodeRejectsBadReplacementLists) {
  ScopedTestDir dir("rec_badargs");
  auto g = BuildKvGraph();
  ASSERT_TRUE(g.ok());
  Cluster cluster(FtCluster(dir.path(), FtMode::kAsyncLocal, /*nodes=*/3));
  auto d = cluster.Deploy(std::move(*g));
  ASSERT_TRUE(d.ok());

  constexpr int64_t kKeys = 100;
  for (int64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE((*d)->Inject("put", Tuple{Value(k), Value(k)}).ok());
  }
  (*d)->Drain();
  ASSERT_TRUE((*d)->CheckpointNode(0).ok());
  ASSERT_TRUE((*d)->KillNode(0).ok());

  // The failed node cannot host its own replacement, alone or in a split
  // list; the rejection must not consume the checkpoint or mutate topology.
  auto s = (*d)->RecoverNode(0, {0});
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("failed node"), std::string::npos)
      << s.ToString();
  EXPECT_FALSE((*d)->RecoverNode(0, {1, 0}).ok());
  EXPECT_FALSE((*d)->RecoverNode(0, {}).ok());
  EXPECT_FALSE((*d)->RecoverNode(0, {7}).ok());  // unknown node

  // A live node is not recoverable, even onto a valid replacement.
  EXPECT_FALSE((*d)->RecoverNode(1, {2}).ok());

  // After every rejection, a well-formed recovery still succeeds intact.
  ASSERT_TRUE((*d)->RecoverNode(0, {1}).ok());
  (*d)->Drain();
  auto all = ReadAll(**d, kKeys);
  ASSERT_EQ(all.size(), static_cast<size_t>(kKeys));
  for (int64_t k = 0; k < kKeys; ++k) {
    EXPECT_EQ(all[k], k) << "key " << k;
  }
}

TEST(RecoveryTest, KillingDeadNodeFails) {
  ScopedTestDir dir("rec_dead");
  auto g = BuildKvGraph();
  ASSERT_TRUE(g.ok());
  Cluster cluster(FtCluster(dir.path(), FtMode::kAsyncLocal, /*nodes=*/2));
  auto d = cluster.Deploy(std::move(*g));
  ASSERT_TRUE(d.ok());
  ASSERT_TRUE((*d)->KillNode(0).ok());
  EXPECT_FALSE((*d)->KillNode(0).ok());
  EXPECT_FALSE((*d)->RecoverNode(0, {0}).ok());  // dead replacement
}

}  // namespace
}  // namespace sdg::runtime
