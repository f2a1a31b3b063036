// Unit tests for the serve front door's control pieces: admission hysteresis
// and the replica pipeline (SerializeEpochBlobs -> EpochTail -> ReplicaView /
// ReplicaTable) including the staleness bound and owner-change re-basing.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/checkpoint/epoch_tail.h"
#include "src/common/value.h"
#include "src/net/frame.h"
#include "src/serve/admission.h"
#include "src/serve/replica_table.h"
#include "src/state/chunk.h"
#include "src/state/keyed_dict.h"
#include "src/state/replica_view.h"

namespace sdg::serve {
namespace {

using KvDict = state::KeyedDict<int64_t, std::string>;

// --- Admission hysteresis ----------------------------------------------------

TEST(AdmissionTest, HysteresisBand) {
  AdmissionController ac({/*high_water=*/100, /*low_water=*/20});

  // Below the high-water mark: admitting.
  ac.Observe(99);
  EXPECT_FALSE(ac.shedding());
  EXPECT_TRUE(ac.Admit());

  // Crossing high water flips to shedding.
  ac.Observe(100);
  EXPECT_TRUE(ac.shedding());
  EXPECT_FALSE(ac.Admit());

  // Anywhere inside the band while shedding: still shedding. This is the
  // hysteresis — a single threshold would flap admit/shed here.
  ac.Observe(55);
  EXPECT_TRUE(ac.shedding());
  ac.Observe(21);
  EXPECT_TRUE(ac.shedding());

  // Only draining to low water readmits.
  ac.Observe(20);
  EXPECT_FALSE(ac.shedding());
  EXPECT_TRUE(ac.Admit());

  // And the signal must climb all the way back to high water to shed again.
  ac.Observe(99);
  EXPECT_FALSE(ac.shedding());
  ac.Observe(150);
  EXPECT_TRUE(ac.shedding());

  EXPECT_EQ(ac.accepted(), 2u);
  EXPECT_EQ(ac.shed(), 1u);
}

TEST(AdmissionTest, RefuseRecountsAnAdmittedRequestAsShed) {
  AdmissionController ac({/*high_water=*/100, /*low_water=*/20});
  ASSERT_TRUE(ac.Admit());
  ASSERT_TRUE(ac.Admit());
  ac.Refuse();  // e.g. the flush found the head's log full
  EXPECT_EQ(ac.accepted(), 1u);
  EXPECT_EQ(ac.shed(), 1u);
  // A refusal is not a load signal: the controller keeps admitting.
  EXPECT_FALSE(ac.shedding());
}

// --- Replica pipeline --------------------------------------------------------

std::unique_ptr<KvDict> MakeDict() { return std::make_unique<KvDict>(); }

// Cuts one epoch from `dict` the way the worker's Checkpoint does: under the
// delta protocol, emitting a delta iff the dirty tracker is armed and the
// tail does not demand a base.
checkpoint::EpochTail::Entry CutEpoch(KvDict& dict, checkpoint::EpochTail& tail,
                                      uint64_t epoch) {
  dict.BeginCheckpoint();
  bool delta = dict.DeltaReady() && !tail.NeedsBase();
  auto blobs = checkpoint::SerializeEpochBlobs(dict, "store", /*num_chunks=*/2,
                                               delta, state::kChunkCodecPrefix);
  dict.EndCheckpoint();
  dict.ResolveEpoch(blobs.ok());
  EXPECT_TRUE(blobs.ok()) << blobs.status().ToString();
  if (delta) {
    delta = tail.PushDelta(epoch, *blobs);
  }
  if (!delta) {
    tail.PushBase(epoch, *blobs);
  }
  return checkpoint::EpochTail::Entry{epoch, !delta, std::move(*blobs)};
}

TEST(ReplicaPipelineTest, BaseAndDeltaRoundTrip) {
  auto owner = MakeDict();
  owner->EnableDeltaTracking();
  checkpoint::EpochTail tail(/*max_deltas=*/8);
  state::ReplicaView view(MakeDict());

  owner->Put(1, "one");
  owner->Put(2, "two");
  auto e1 = CutEpoch(*owner, tail, 1);
  EXPECT_TRUE(e1.base);  // empty tail demands a base
  ASSERT_TRUE(view.ApplyBase(7, 1, e1.chunks).ok());

  // Delta epoch: one overwrite, one insert, one tombstone.
  owner->Put(2, "two'");
  owner->Put(3, "three");
  owner->Erase(1);
  auto e2 = CutEpoch(*owner, tail, 2);
  EXPECT_FALSE(e2.base);
  ASSERT_TRUE(view.ApplyDelta(7, 2, e2.chunks).ok());

  bool ok = view.ReadWithin(0, [&](const state::StateBackend& b, uint64_t ep) {
    EXPECT_EQ(ep, 2u);
    const auto* dict = dynamic_cast<const KvDict*>(&b);
    ASSERT_NE(dict, nullptr);
    EXPECT_FALSE(dict->Get(1).has_value());  // tombstone applied
    EXPECT_EQ(dict->Get(2).value_or(""), "two'");
    EXPECT_EQ(dict->Get(3).value_or(""), "three");
  });
  EXPECT_TRUE(ok);

  // Duplicate replay (reconnect) is a no-op, not corruption.
  ASSERT_TRUE(view.ApplyDelta(7, 2, e2.chunks).ok());
  EXPECT_EQ(view.applied_epoch(), 2u);
}

TEST(ReplicaPipelineTest, TailReplayCatchesUpFreshSubscriber) {
  auto owner = MakeDict();
  owner->EnableDeltaTracking();
  checkpoint::EpochTail tail(/*max_deltas=*/8);

  owner->Put(10, "a");
  CutEpoch(*owner, tail, 1);
  owner->Put(11, "b");
  CutEpoch(*owner, tail, 2);
  owner->Erase(10);
  owner->Put(12, "c");
  CutEpoch(*owner, tail, 3);

  // A fresh subscriber replays the retained base + deltas in order.
  state::ReplicaView view(MakeDict());
  for (const auto& e : tail.Replay()) {
    if (e.base) {
      ASSERT_TRUE(view.ApplyBase(7, e.epoch, e.chunks).ok());
    } else {
      ASSERT_TRUE(view.ApplyDelta(7, e.epoch, e.chunks).ok());
    }
  }
  EXPECT_EQ(view.applied_epoch(), 3u);
  bool ok = view.ReadWithin(0, [&](const state::StateBackend& b, uint64_t) {
    const auto* dict = dynamic_cast<const KvDict*>(&b);
    ASSERT_NE(dict, nullptr);
    EXPECT_FALSE(dict->Get(10).has_value());
    EXPECT_EQ(dict->Get(11).value_or(""), "b");
    EXPECT_EQ(dict->Get(12).value_or(""), "c");
  });
  EXPECT_TRUE(ok);
}

TEST(ReplicaPipelineTest, DeltaCapForcesRebase) {
  auto owner = MakeDict();
  owner->EnableDeltaTracking();
  checkpoint::EpochTail tail(/*max_deltas=*/2);

  owner->Put(1, "x");
  EXPECT_TRUE(CutEpoch(*owner, tail, 1).base);
  owner->Put(2, "x");
  EXPECT_FALSE(CutEpoch(*owner, tail, 2).base);
  owner->Put(3, "x");
  EXPECT_FALSE(CutEpoch(*owner, tail, 3).base);
  // Delta run at its cap: the next epoch must re-base, bounding replay.
  owner->Put(4, "x");
  EXPECT_TRUE(CutEpoch(*owner, tail, 4).base);
  EXPECT_EQ(tail.Replay().size(), 1u);
}

TEST(ReplicaViewTest, StalenessBoundAgainstAnnounceWatermark) {
  auto owner = MakeDict();
  owner->EnableDeltaTracking();
  checkpoint::EpochTail tail;
  state::ReplicaView view(MakeDict());

  owner->Put(1, "v");
  auto e1 = CutEpoch(*owner, tail, 5);
  ASSERT_TRUE(view.ApplyBase(7, 5, e1.chunks).ok());

  // In sync: admissible even at lag 0.
  EXPECT_TRUE(view.ReadWithin(0, [](const state::StateBackend&, uint64_t) {}));

  // The owner cuts epochs 6..8 whose blobs never arrive (wedged feed). The
  // announce watermark moves; the replica must fail the bound, not serve
  // arbitrarily old data.
  view.Announce(7, 8);
  EXPECT_FALSE(view.ReadWithin(2, [](const state::StateBackend&, uint64_t) {}));
  EXPECT_TRUE(view.ReadWithin(3, [](const state::StateBackend&, uint64_t) {}));
}

TEST(ReplicaViewTest, OwnerChangeRefusesReadsUntilNewBase) {
  auto owner = MakeDict();
  owner->EnableDeltaTracking();
  checkpoint::EpochTail tail;
  state::ReplicaView view(MakeDict());

  owner->Put(1, "v");
  auto e1 = CutEpoch(*owner, tail, 3);
  ASSERT_TRUE(view.ApplyBase(7, 3, e1.chunks).ok());
  EXPECT_TRUE(view.ReadWithin(8, [](const state::StateBackend&, uint64_t) {}));

  // The partition migrates: member 9 announces. Reads are refused however
  // generous the lag bound — the applied base belongs to the old owner.
  view.Announce(9, 1);
  EXPECT_FALSE(
      view.ReadWithin(1000, [](const state::StateBackend&, uint64_t) {}));

  // So are deltas from the new owner (no matching base yet).
  owner->Put(2, "w");
  auto stray = CutEpoch(*owner, tail, 4);
  EXPECT_FALSE(view.ApplyDelta(9, 4, stray.chunks).ok());

  // The new owner's base restores service.
  ASSERT_TRUE(view.ApplyBase(9, 4, stray.chunks).ok());
  EXPECT_TRUE(view.ReadWithin(0, [](const state::StateBackend&, uint64_t) {}));
}

TEST(ReplicaTableTest, FeedEventsAnswerBoundedStaleReads) {
  ReplicaTable table(/*partitions=*/1);
  auto owner = MakeDict();
  owner->EnableDeltaTracking();
  checkpoint::EpochTail tail;

  owner->Put(5, "five");
  auto e1 = CutEpoch(*owner, tail, 1);

  net::ReplicaEpochMsg announce;
  announce.partition = 0;
  announce.member_id = 2;
  announce.kind = net::kEpochAnnounce;
  announce.epoch = 1;
  announce.queue_depth = 33;
  table.OnEpoch(announce);

  // Announce landed but no blobs yet: nothing to answer from.
  EXPECT_FALSE(table.TryGet(5, 8).admissible);
  EXPECT_EQ(table.owner_queue_depth(), 33u);

  net::ReplicaEpochMsg base = announce;
  base.kind = net::kEpochBase;
  base.chunks = e1.chunks;
  table.OnEpoch(base);

  auto hit = table.TryGet(5, 0);
  EXPECT_TRUE(hit.admissible);
  EXPECT_TRUE(hit.found);
  EXPECT_EQ(hit.value, "five");
  EXPECT_EQ(hit.epoch, 1u);

  auto miss = table.TryGet(6, 0);
  EXPECT_TRUE(miss.admissible);
  EXPECT_FALSE(miss.found);

  // The owner announces epoch 4 without blobs arriving: lag 3 exceeds a
  // client bound of 2 and the read falls back to the strong path.
  announce.epoch = 4;
  table.OnEpoch(announce);
  EXPECT_FALSE(table.TryGet(5, 2).admissible);
  EXPECT_TRUE(table.TryGet(5, 3).admissible);
  EXPECT_EQ(table.epochs_applied(), 1u);
}

}  // namespace
}  // namespace sdg::serve
