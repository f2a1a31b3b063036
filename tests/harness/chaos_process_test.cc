// Multi-process differential chaos: an in-process ElasticHead drives REAL
// elastic_worker child processes over loopback TCP, and a seeded event
// roulette kills them (SIGKILL), respawns them under the same member id /
// data port / backup root, migrates partitions live — including killing the
// source mid-migration — and checkpoints. The surviving fleet's durable
// state (read straight from the shared backup store after a final quiesce)
// must equal a single-threaded reference model: nothing lost, nothing
// double-applied. A deterministic crash-point matrix covers each phase of
// the migration protocol, and an m-to-n scenario recovers a dead worker's
// partitions across multiple survivors.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/apps/kv.h"
#include "src/checkpoint/backup_store.h"
#include "src/common/rng.h"
#include "src/runtime/elastic.h"
#include "src/state/chunk.h"
#include "src/state/keyed_dict.h"
#include "tests/common/scoped_test_dir.h"
#include "tests/harness/chaos_harness.h"
#include "tests/harness/process_fleet.h"

#ifndef SDG_ELASTIC_WORKER_BIN
#error "SDG_ELASTIC_WORKER_BIN must point at the elastic_worker binary"
#endif

namespace sdg::harness {
namespace {

constexpr uint32_t kPartitions = 4;

// One head + a fleet of worker child processes sharing a backup root.
class ProcessFleet {
 public:
  // Disk-backed store mode for every spawned worker (kv only). The spill
  // dir defaults inside the worker to a member-scoped subtree of the backup
  // root, so respawns under the same id wipe their own stale cold tier.
  uint64_t spill_budget_kb = 0;
  uint32_t store_stripes = 0;
  bool serve = false;  // kv only: serving entries + replica feed

  ProcessFleet(std::string app, std::string state,
               std::vector<std::string> entries, uint32_t partitions,
               int migrate_timeout_ms = 6000)
      : dir_("proc_chaos"), app_(std::move(app)), partitions_(partitions) {
    elastic::ElasticHeadOptions h;
    h.state = std::move(state);
    h.entries = std::move(entries);
    h.partitions = partitions;
    h.backup_root = BackupRoot();
    h.monitor_interval_ms = 50;
    h.migrate_timeout_ms = migrate_timeout_ms;
    head_ = std::make_unique<elastic::ElasticHead>(h);
  }

  ~ProcessFleet() {
    for (auto& [id, pid] : pids_) {
      if (pid > 0) {
        KillHard(pid);
      }
    }
    head_->Stop();
  }

  Status StartHead() { return head_->Start(); }
  elastic::ElasticHead& head() { return *head_; }
  std::string BackupRoot() const { return (dir_.path() / "backup").string(); }

  void Spawn(uint32_t id, const std::string& crash_at = "") {
    if (ports_.find(id) == ports_.end()) {
      ports_[id] = PickFreePort();
      ASSERT_NE(ports_[id], 0);
    }
    WorkerSpec spec;
    spec.app = app_;
    spec.head_port = head_->port();
    spec.member_id = id;
    spec.data_port = ports_[id];
    spec.backup_root = BackupRoot();
    spec.partitions = partitions_;
    spec.crash_at = crash_at;
    spec.serve = serve;
    spec.spill_budget_kb = spill_budget_kb;
    spec.store_stripes = store_stripes;
    pid_t pid = SpawnElasticWorker(SDG_ELASTIC_WORKER_BIN, spec);
    ASSERT_GT(pid, 0);
    pids_[id] = pid;
  }

  void Kill(uint32_t id) {
    KillHard(pids_.at(id));
    pids_[id] = -1;
  }

  // Reaps the child and returns its exit code (41 = armed crash point).
  int Reap(uint32_t id) {
    int code = WaitExit(pids_.at(id));
    pids_[id] = -1;
    return code;
  }

  int Stop(uint32_t id) {
    int code = StopSoft(pids_.at(id));
    pids_[id] = -1;
    return code;
  }

  void StopAll() {
    for (auto& [id, pid] : pids_) {
      if (pid > 0) {
        (void)StopSoft(pid);
        pid = -1;
      }
    }
  }

  std::vector<uint32_t> ids() const {
    std::vector<uint32_t> v;
    for (const auto& [id, pid] : pids_) {
      v.push_back(id);
    }
    return v;
  }

 private:
  ScopedTestDir dir_;
  std::string app_;
  uint32_t partitions_;
  std::unique_ptr<elastic::ElasticHead> head_;
  std::map<uint32_t, pid_t> pids_;
  std::map<uint32_t, uint16_t> ports_;
};

// Reads partition `p` of `state` from `member`'s latest durable epoch into
// `backend`; fails the test when the owner's store lacks the partition.
template <typename Backend>
void RestorePartitionFromBackup(const std::string& root, uint32_t member,
                                const std::string& state, uint32_t p,
                                Backend& backend) {
  checkpoint::BackupStoreOptions o;
  o.root = root;
  o.num_backup_nodes = 2;
  checkpoint::BackupStore store(o);
  auto epoch = store.LatestEpoch(member);
  ASSERT_TRUE(epoch.ok()) << "member " << member << " has no durable epoch";
  auto meta = store.ReadMeta(member, *epoch);
  ASSERT_TRUE(meta.ok());
  const checkpoint::StateInstanceMeta* sm = nullptr;
  for (const auto& s : meta->states) {
    if (s.instance == p) {
      sm = &s;
    }
  }
  ASSERT_NE(sm, nullptr) << "owner " << member << " never persisted p" << p;
  auto chunks = store.ReadChunks(member, *epoch,
                                 state + "." + std::to_string(p),
                                 sm->num_chunks);
  ASSERT_TRUE(chunks.ok()) << chunks.status().ToString();
  for (const auto& blob : *chunks) {
    ASSERT_TRUE(state::RestoreChunk(backend, blob).ok());
  }
}

// Quiesces the deployment and merges every partition's durable state (read
// from its current owner's backup) into one dictionary.
template <typename K, typename V>
void MergedDurableState(ProcessFleet& fleet, const std::string& state,
                        uint32_t partitions, std::map<K, V>* merged) {
  ASSERT_TRUE(fleet.head().AwaitQuiesce(90000))
      << "logs never drained: " << fleet.head().UnackedTotal()
      << " items unacked";
  ASSERT_TRUE(fleet.head().CheckpointAll().ok());
  std::map<uint32_t, uint32_t> owner_of;
  for (uint32_t p = 0; p < partitions; ++p) {
    owner_of[p] = fleet.head().OwnerOf(p);
    ASSERT_NE(owner_of[p], elastic::kNoOwner) << "p" << p << " unowned";
  }
  // Stop the fleet first so no concurrent checkpoint prunes epochs mid-read.
  fleet.StopAll();
  for (uint32_t p = 0; p < partitions; ++p) {
    state::KeyedDict<K, V> dict;
    RestorePartitionFromBackup(fleet.BackupRoot(), owner_of[p], state, p,
                               dict);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
    dict.ForEach([&](const K& k, const V& v) {
      EXPECT_TRUE(merged->emplace(k, v).second)
          << "key in two partitions: " << k;
    });
  }
}

// --- Seeded kv chaos ---------------------------------------------------------

class KvProcessChaos : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KvProcessChaos, MatchesReferenceModel) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  ProcessFleet fleet("kv", "store", {"put", "del"}, kPartitions);
  ASSERT_TRUE(fleet.StartHead().ok());
  fleet.Spawn(1);
  fleet.Spawn(2);
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_TRUE(fleet.head().WaitForMembers(2, 20000));
  ASSERT_TRUE(fleet.head().WaitForAssignment(20000));

  std::map<int64_t, std::string> model;
  uint64_t vseq = 0;
  // Chaos rounds are put-only: puts and dels ride DIFFERENT per-source logs,
  // and replay order across sources is undefined — racing a put against a
  // del of the same key asserts an ordering the protocol never promises.
  // Dels get their own phase after a quiesce barrier below.
  auto burst = [&](int count) {
    for (int i = 0; i < count; ++i) {
      int64_t key = static_cast<int64_t>(rng.NextBounded(300));
      std::string value = "v" + std::to_string(vseq++);
      ASSERT_TRUE(
          fleet.head().Inject(0, Tuple{Value(key), Value(value)}, 60000).ok());
      model[key] = value;
    }
  };

  for (int round = 0; round < 3; ++round) {
    burst(120);
    if (::testing::Test::HasFatalFailure()) return;
    uint32_t victim = rng.NextBounded(2) == 0 ? 1 : 2;
    uint32_t other = victim == 1 ? 2 : 1;
    switch (rng.NextBounded(5)) {
      case 0: {  // SIGKILL + respawn under the same identity, load during both
        fleet.Kill(victim);
        fleet.Spawn(victim);
        burst(40);  // injects retry while the worker rejoins and restores
        break;
      }
      case 1: {  // live migration under load
        uint32_t p = rng.NextBounded(kPartitions);
        uint32_t owner = fleet.head().OwnerOf(p);
        uint32_t target = owner == 1 ? 2 : 1;
        (void)fleet.head().MigratePartition(p, target);
        break;
      }
      case 2: {  // SIGKILL the migration source mid-flight
        uint32_t p = 0;
        for (uint32_t q = 0; q < kPartitions; ++q) {
          if (fleet.head().OwnerOf(q) == victim) {
            p = q;
          }
        }
        if (fleet.head().OwnerOf(p) != victim) {
          break;  // victim owns nothing to migrate
        }
        std::thread migrate(
            [&] { (void)fleet.head().MigratePartition(p, other); });
        std::this_thread::sleep_for(
            std::chrono::milliseconds(rng.NextBounded(40)));
        fleet.Kill(victim);
        migrate.join();
        fleet.Spawn(victim);
        break;
      }
      case 3: {  // checkpoint barrier (best effort under churn)
        (void)fleet.head().CheckpointAll(10000);
        break;
      }
      default:
        break;  // plain load round
    }
    if (::testing::Test::HasFatalFailure()) return;
  }

  // Quiesce makes every put durable and acked, so the del phase below cannot
  // race a replayed put for the same key; dels still run through a kill.
  ASSERT_TRUE(fleet.head().AwaitQuiesce(90000));
  for (int i = 0; i < 60; ++i) {
    if (i == 30) {
      uint32_t victim = rng.NextBounded(2) == 0 ? 1 : 2;
      fleet.Kill(victim);
      fleet.Spawn(victim);
      if (::testing::Test::HasFatalFailure()) return;
    }
    int64_t key = static_cast<int64_t>(rng.NextBounded(300));
    ASSERT_TRUE(fleet.head().Inject(1, Tuple{Value(key)}, 60000).ok());
    model.erase(key);
  }

  std::map<int64_t, std::string> merged;
  MergedDurableState(fleet, "store", kPartitions, &merged);
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_EQ(merged, model) << "seed " << seed << ": durable state diverged ("
                           << merged.size() << " keys vs model "
                           << model.size() << ")";
}

INSTANTIATE_TEST_SUITE_P(Seeds, KvProcessChaos,
                         ::testing::ValuesIn(ChaosSeeds()), SeedTestName);

// --- Seeded wordcount chaos --------------------------------------------------
//
// Counts increment on every delivery, so a replayed-but-not-deduped item
// shows up as an inflated count and a lost one as a deficit: the sharpest
// exactly-once assertion the differential harness has. Lines are single
// words so head routing (line hash) and the splitter's word routing agree.

class WordCountProcessChaos : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WordCountProcessChaos, CountsAreExact) {
  const uint64_t seed = GetParam();
  Rng rng(seed ^ 0x5dc0u);
  ProcessFleet fleet("wordcount", "counts", {"line"}, kPartitions);
  ASSERT_TRUE(fleet.StartHead().ok());
  fleet.Spawn(1);
  fleet.Spawn(2);
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_TRUE(fleet.head().WaitForMembers(2, 20000));
  ASSERT_TRUE(fleet.head().WaitForAssignment(20000));

  std::map<std::string, int64_t> model;
  auto burst = [&](int count) {
    for (int i = 0; i < count; ++i) {
      std::string word = "w" + std::to_string(rng.NextBounded(40));
      ASSERT_TRUE(fleet.head().Inject(0, Tuple{Value(word)}, 60000).ok());
      model[word] += 1;
    }
  };

  for (int round = 0; round < 3; ++round) {
    burst(150);
    if (::testing::Test::HasFatalFailure()) return;
    uint32_t victim = rng.NextBounded(2) == 0 ? 1 : 2;
    switch (rng.NextBounded(4)) {
      case 0: {
        fleet.Kill(victim);
        fleet.Spawn(victim);
        burst(50);  // injects retry while the worker rejoins and restores
        break;
      }
      case 1: {
        uint32_t p = rng.NextBounded(kPartitions);
        uint32_t owner = fleet.head().OwnerOf(p);
        (void)fleet.head().MigratePartition(p, owner == 1 ? 2 : 1);
        break;
      }
      case 2: {
        (void)fleet.head().CheckpointAll(10000);
        break;
      }
      default:
        break;
    }
    if (::testing::Test::HasFatalFailure()) return;
  }

  std::map<std::string, int64_t> merged;
  MergedDurableState(fleet, "counts", kPartitions, &merged);
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_EQ(merged, model) << "seed " << seed
                           << ": word mass diverged (dup or loss)";
}

INSTANTIATE_TEST_SUITE_P(Seeds, WordCountProcessChaos,
                         ::testing::ValuesIn(ChaosSeeds()), SeedTestName);

// --- Migration crash-point matrix --------------------------------------------
//
// Each phase of the live-migration protocol is armed to _Exit(41) in the
// SOURCE process; the head must converge to a consistent outcome: the
// migration aborts with the source still the owner (base / delta /
// precutover), or completes because the TARGET durably committed and
// reported the cutover (postcommit — the source's death after commit must
// not lose the partition). Either way, after the crashed worker restarts
// from its backup, the durable fleet state must equal the model.

class MigrationCrashPoint : public ::testing::TestWithParam<const char*> {};

TEST_P(MigrationCrashPoint, ExactlyOnceAcrossSourceCrash) {
  const std::string phase = GetParam();
  ProcessFleet fleet("kv", "store", {"put", "del"}, kPartitions,
                     /*migrate_timeout_ms=*/6000);
  ASSERT_TRUE(fleet.StartHead().ok());
  fleet.Spawn(1, phase);  // the armed source joins first and owns everything
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_TRUE(fleet.head().WaitForMembers(1, 20000));
  ASSERT_TRUE(fleet.head().WaitForAssignment(20000));
  fleet.Spawn(2);
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_TRUE(fleet.head().WaitForMembers(2, 20000));

  std::map<int64_t, std::string> model;
  for (int64_t k = 0; k < 150; ++k) {
    std::string v = "v" + std::to_string(k);
    ASSERT_TRUE(fleet.head().Inject(0, Tuple{Value(k), Value(v)}, 60000).ok());
    model[k] = v;
  }

  Status st = fleet.head().MigratePartition(0, 2);
  EXPECT_EQ(fleet.Reap(1), 41) << "crash point " << phase << " never fired";
  if (phase == "migrate.postcommit") {
    // The target committed durably and reported the cutover: the source's
    // death after commit must not abort the migration.
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(fleet.head().OwnerOf(0), 2u);
  } else {
    EXPECT_FALSE(st.ok()) << "migration survived a dead source mid-" << phase;
    EXPECT_EQ(fleet.head().OwnerOf(0), 1u);
  }

  fleet.Spawn(1);  // restart clean from the backup store
  if (::testing::Test::HasFatalFailure()) return;
  for (int64_t k = 100; k < 220; ++k) {
    std::string v = "r" + std::to_string(k);
    ASSERT_TRUE(fleet.head().Inject(0, Tuple{Value(k), Value(v)}, 60000).ok());
    model[k] = v;
  }

  std::map<int64_t, std::string> merged;
  MergedDurableState(fleet, "store", kPartitions, &merged);
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_EQ(merged, model) << "crash at " << phase << " diverged";
}

INSTANTIATE_TEST_SUITE_P(Phases, MigrationCrashPoint,
                         ::testing::Values("migrate.base", "migrate.delta",
                                           "migrate.precutover",
                                           "migrate.postcommit"),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           std::string name = i.param;
                           for (auto& c : name) {
                             if (c == '.') c = '_';
                           }
                           return name;
                         });

// --- m-to-n recovery ---------------------------------------------------------

TEST(MToNRecovery, DeadWorkersPartitionsSpreadAcrossSurvivors) {
  constexpr uint32_t kParts = 6;
  ProcessFleet fleet("kv", "store", {"put", "del"}, kParts);
  ASSERT_TRUE(fleet.StartHead().ok());
  fleet.Spawn(1);
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_TRUE(fleet.head().WaitForMembers(1, 20000));
  ASSERT_TRUE(fleet.head().WaitForAssignment(20000));  // worker 1 owns all 6
  fleet.Spawn(2);
  fleet.Spawn(3);
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_TRUE(fleet.head().WaitForMembers(3, 20000));

  std::map<int64_t, std::string> model;
  for (int64_t k = 0; k < 300; ++k) {
    std::string v = "v" + std::to_string(k);
    ASSERT_TRUE(fleet.head().Inject(0, Tuple{Value(k), Value(v)}, 60000).ok());
    model[k] = v;
  }
  ASSERT_TRUE(fleet.head().CheckpointAll().ok());
  // A tail beyond the last checkpoint: recovery must replay exactly this.
  for (int64_t k = 250; k < 330; ++k) {
    std::string v = "t" + std::to_string(k);
    ASSERT_TRUE(fleet.head().Inject(0, Tuple{Value(k), Value(v)}, 60000).ok());
    model[k] = v;
  }

  fleet.Kill(1);
  ASSERT_TRUE(fleet.head().RecoverMember(1).ok());

  // m-to-n: the six lost partitions land on BOTH survivors.
  std::set<uint32_t> owners;
  for (uint32_t p = 0; p < kParts; ++p) {
    uint32_t o = fleet.head().OwnerOf(p);
    EXPECT_TRUE(o == 2u || o == 3u) << "p" << p << " still on m" << o;
    owners.insert(o);
  }
  EXPECT_EQ(owners.size(), 2u) << "recovery did not spread across survivors";

  for (int64_t k = 0; k < 80; ++k) {
    ASSERT_TRUE(fleet.head().Inject(1, Tuple{Value(k)}, 60000).ok());
    model.erase(k);
  }

  std::map<int64_t, std::string> merged;
  MergedDurableState(fleet, "store", kParts, &merged);
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_EQ(merged, model) << "m-to-n recovery diverged";
}

// --- Cold-tier crash-point matrix --------------------------------------------
//
// Spill files are a cache, not a durability tier (src/state/spill.h): a
// process that dies inside the spill machinery — spill file renamed but the
// victim stripe not yet dropped (spill.evict), stripe merged back but the
// file not yet removed (spill.faultin), or mid-serialize of a spilled stripe
// during a checkpoint (spill.ckpt) — must restart from its checkpoint chain
// with nothing lost and nothing double-applied, and the stale spill dir it
// left behind must never be read. The armed worker runs a working set
// several times its resident budget so the cold tier is active when the
// crash fires; fault-in needs a read path, so that leg runs the serve-mode
// entry set and drives "get" through the head.

class SpillCrashPoint : public ::testing::TestWithParam<const char*> {};

TEST_P(SpillCrashPoint, DurableStateSurvivesColdTierCrash) {
  const std::string phase = GetParam();
  const bool serve = phase == "spill.faultin";
  ProcessFleet fleet("kv", "store",
                     serve ? std::vector<std::string>{"put", "get", "del"}
                           : std::vector<std::string>{"put", "del"},
                     kPartitions);
  fleet.spill_budget_kb = 2;  // per store instance; see working set below
  fleet.store_stripes = 8;
  fleet.serve = serve;
  ASSERT_TRUE(fleet.StartHead().ok());
  fleet.Spawn(1, phase);
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_TRUE(fleet.head().WaitForMembers(1, 20000));
  ASSERT_TRUE(fleet.head().WaitForAssignment(20000));

  // ~150 B values, 240 keys over 4 instances: ~9 KiB resident demand per
  // instance against the 2 KiB budget, so eviction starts almost at once
  // and the periodic checkpoint (100 ms) soon serializes spilled stripes.
  // Injection runs in a thread: once the crash point fires, in-flight puts
  // block unacked until the respawned worker rejoins and replays them.
  std::map<int64_t, std::string> model;
  const std::string pad(120, 'x');
  std::thread load([&] {
    for (int64_t k = 0; k < 240; ++k) {
      std::string v = "v" + std::to_string(k) + pad;
      if (!fleet.head().Inject(0, Tuple{Value(k), Value(v)}, 120000).ok()) {
        ADD_FAILURE() << "put " << k << " never acked";
        return;
      }
      model[k] = v;
    }
    if (serve) {
      // Touch every key: any key untouched since its stripe was evicted is
      // blob-only, and the first such read pages the stripe back in.
      for (int64_t k = 0; k < 240; ++k) {
        if (!fleet.head().Inject(1, Tuple{Value(k)}, 120000).ok()) {
          ADD_FAILURE() << "get " << k << " never acked";
          return;
        }
      }
    }
  });
  int code = fleet.Reap(1);  // blocks until the armed phase fires
  fleet.Spawn(1);  // restart: spill dir wiped, checkpoint chain replayed
  load.join();
  EXPECT_EQ(code, 41) << "crash point " << phase << " never fired";
  if (::testing::Test::HasFatalFailure()) return;

  // A post-restart tail proves the respawned worker (spilling again from
  // restore onward) still applies new writes exactly once.
  for (int64_t k = 200; k < 280; ++k) {
    std::string v = "r" + std::to_string(k) + pad;
    ASSERT_TRUE(fleet.head().Inject(0, Tuple{Value(k), Value(v)}, 60000).ok());
    model[k] = v;
  }

  std::map<int64_t, std::string> merged;
  MergedDurableState(fleet, "store", kPartitions, &merged);
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_EQ(merged, model) << "crash at " << phase << " diverged ("
                           << merged.size() << " keys vs model "
                           << model.size() << ")";
}

INSTANTIATE_TEST_SUITE_P(Phases, SpillCrashPoint,
                         ::testing::Values("spill.evict", "spill.faultin",
                                           "spill.ckpt"),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           std::string name = i.param;
                           for (auto& c : name) {
                             if (c == '.') c = '_';
                           }
                           return name;
                         });

// --- Seeded kv chaos with a disk-backed store --------------------------------
//
// The KvProcessChaos roulette re-run with every worker under a 2 KiB
// per-instance resident budget and a working set ~5x that (padded values),
// so SIGKILL/respawn restores spill as they load, migrations stream spilled
// stripes off disk, and checkpoints serialize cold state — all while the
// reference model watches for loss or double-apply.

class KvSpillProcessChaos : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KvSpillProcessChaos, MatchesReferenceModelUnderBudget) {
  const uint64_t seed = GetParam();
  Rng rng(seed ^ 0x51dau);
  ProcessFleet fleet("kv", "store", {"put", "del"}, kPartitions);
  fleet.spill_budget_kb = 2;
  fleet.store_stripes = 8;
  ASSERT_TRUE(fleet.StartHead().ok());
  fleet.Spawn(1);
  fleet.Spawn(2);
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_TRUE(fleet.head().WaitForMembers(2, 20000));
  ASSERT_TRUE(fleet.head().WaitForAssignment(20000));

  std::map<int64_t, std::string> model;
  uint64_t vseq = 0;
  const std::string pad(120, 'x');  // ~150 B/key: ~5x the per-instance budget
  auto burst = [&](int count) {
    for (int i = 0; i < count; ++i) {
      int64_t key = static_cast<int64_t>(rng.NextBounded(300));
      std::string value = "v" + std::to_string(vseq++) + pad;
      ASSERT_TRUE(
          fleet.head().Inject(0, Tuple{Value(key), Value(value)}, 60000).ok());
      model[key] = value;
    }
  };

  for (int round = 0; round < 3; ++round) {
    burst(120);
    if (::testing::Test::HasFatalFailure()) return;
    uint32_t victim = rng.NextBounded(2) == 0 ? 1 : 2;
    uint32_t other = victim == 1 ? 2 : 1;
    switch (rng.NextBounded(5)) {
      case 0: {  // SIGKILL + respawn: restore must spill as it loads
        fleet.Kill(victim);
        fleet.Spawn(victim);
        burst(40);
        break;
      }
      case 1: {  // live migration streams spilled stripes straight off disk
        uint32_t p = rng.NextBounded(kPartitions);
        uint32_t owner = fleet.head().OwnerOf(p);
        uint32_t target = owner == 1 ? 2 : 1;
        (void)fleet.head().MigratePartition(p, target);
        break;
      }
      case 2: {  // SIGKILL the migration source mid-flight
        uint32_t p = 0;
        for (uint32_t q = 0; q < kPartitions; ++q) {
          if (fleet.head().OwnerOf(q) == victim) {
            p = q;
          }
        }
        if (fleet.head().OwnerOf(p) != victim) {
          break;
        }
        std::thread migrate(
            [&] { (void)fleet.head().MigratePartition(p, other); });
        std::this_thread::sleep_for(
            std::chrono::milliseconds(rng.NextBounded(40)));
        fleet.Kill(victim);
        migrate.join();
        fleet.Spawn(victim);
        break;
      }
      case 3: {  // checkpoint barrier serializes cold stripes without paging
        (void)fleet.head().CheckpointAll(10000);
        break;
      }
      default:
        break;
    }
    if (::testing::Test::HasFatalFailure()) return;
  }

  // Del phase after a quiesce barrier (same reasoning as KvProcessChaos);
  // erases on spilled stripes land as cold-overlay tombstones.
  ASSERT_TRUE(fleet.head().AwaitQuiesce(90000));
  for (int i = 0; i < 60; ++i) {
    if (i == 30) {
      uint32_t victim = rng.NextBounded(2) == 0 ? 1 : 2;
      fleet.Kill(victim);
      fleet.Spawn(victim);
      if (::testing::Test::HasFatalFailure()) return;
    }
    int64_t key = static_cast<int64_t>(rng.NextBounded(300));
    ASSERT_TRUE(fleet.head().Inject(1, Tuple{Value(key)}, 60000).ok());
    model.erase(key);
  }

  std::map<int64_t, std::string> merged;
  MergedDurableState(fleet, "store", kPartitions, &merged);
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_EQ(merged, model) << "seed " << seed
                           << ": durable state diverged under spill ("
                           << merged.size() << " keys vs model "
                           << model.size() << ")";
}

INSTANTIATE_TEST_SUITE_P(Seeds, KvSpillProcessChaos,
                         ::testing::ValuesIn(ChaosSeeds()), SeedTestName);

}  // namespace
}  // namespace sdg::harness
