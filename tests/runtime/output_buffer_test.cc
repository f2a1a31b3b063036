#include "src/runtime/output_buffer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>

namespace sdg::runtime {
namespace {

DataItem Item(uint64_t ts, uint64_t tag = 0) {
  DataItem i;
  i.from = SourceId{1, 0};
  i.ts = ts;
  i.user_tag = tag;
  i.payload = Tuple{Value(static_cast<int64_t>(ts))};
  return i;
}

TEST(OutputBufferTest, AppendAndItemsAfter) {
  OutputBuffer b;
  b.Append(Item(1), 0);
  b.Append(Item(2), 1);
  b.Append(Item(3), 0);
  EXPECT_EQ(b.size(), 3u);

  auto replay = b.ItemsAfter(/*dest_instance=*/0, /*from_ts=*/1);
  ASSERT_EQ(replay.size(), 1u);
  EXPECT_EQ(replay[0].ts, 3u);

  auto all0 = b.ItemsAfter(0, 0);
  EXPECT_EQ(all0.size(), 2u);
  auto none = b.ItemsAfter(0, 10);
  EXPECT_TRUE(none.empty());
}

TEST(OutputBufferTest, AckTrimsCoveredPrefix) {
  OutputBuffer b;
  for (uint64_t ts = 1; ts <= 6; ++ts) {
    b.Append(Item(ts), ts % 2);  // alternating destinations
  }
  // Covering dest 1 up to ts 3 trims its entries ts 1 and ts 3 — dest 0's
  // interleaved entries no longer pin them (per-destination logs).
  b.Ack(1, 3);
  EXPECT_EQ(b.size(), 4u);
  EXPECT_EQ(b.SizeFor(1), 1u);
  // Covering dest 0 up to ts 4 releases ts 2 and ts 4.
  b.Ack(0, 4);
  EXPECT_EQ(b.size(), 2u);
  auto rest = b.ItemsAfter(1, 0);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].ts, 5u);
  auto rest0 = b.ItemsAfter(0, 0);
  ASSERT_EQ(rest0.size(), 1u);
  EXPECT_EQ(rest0[0].ts, 6u);
}

TEST(OutputBufferTest, SlowDestinationDoesNotPinAckedSiblings) {
  // Regression: with one FIFO shared by all destinations, a never-acking
  // head entry (a slow or failed instance) pinned every acknowledged entry
  // queued behind it, so the buffer grew without bound even though all
  // other destinations kept up. Per-destination logs keep each destination's
  // retained set equal to exactly its own unacked suffix.
  OutputBuffer b;
  b.Append(Item(1), /*dest=*/9);  // dest 9 never acks
  constexpr uint64_t kRounds = 1000;
  for (uint64_t ts = 2; ts < 2 + kRounds; ++ts) {
    b.Append(Item(ts), ts % 2);
    if (ts % 10 == 0) {
      b.Ack(0, ts);  // both healthy destinations ack promptly
      b.Ack(1, ts);
    }
  }
  b.Ack(0, 2 + kRounds);
  b.Ack(1, 2 + kRounds);
  EXPECT_EQ(b.SizeFor(0), 0u);
  EXPECT_EQ(b.SizeFor(1), 0u);
  EXPECT_EQ(b.SizeFor(9), 1u);
  EXPECT_EQ(b.size(), 1u);  // only the genuinely unacked entry is retained
  // The straggler's entry is still replayable.
  auto replay = b.ItemsAfter(9, 0);
  ASSERT_EQ(replay.size(), 1u);
  EXPECT_EQ(replay[0].ts, 1u);
}

TEST(OutputBufferTest, AckKeepsMaximum) {
  OutputBuffer b;
  b.Append(Item(5), 0);
  b.Ack(0, 10);
  b.Ack(0, 2);  // lower ack must not resurrect trimming threshold
  b.Append(Item(7), 0);
  b.Ack(0, 2);
  // ts 7 <= max ack 10: trimmed immediately.
  EXPECT_EQ(b.size(), 0u);
}

TEST(OutputBufferTest, SnapshotAndRestore) {
  OutputBuffer b;
  b.Append(Item(1, 100), 2);
  b.Append(Item(2, 200), 3);
  auto snap = b.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].item.user_tag, 100u);
  EXPECT_EQ(snap[0].dest_instance, 2u);

  OutputBuffer restored;
  for (const auto& e : snap) {
    restored.RestoreEntry(e.item, e.dest_instance);
  }
  EXPECT_EQ(restored.size(), 2u);
  EXPECT_EQ(restored.ItemsAfter(3, 0).size(), 1u);
}

TEST(OutputBufferTest, ClearEmpties) {
  OutputBuffer b;
  b.Append(Item(1), 0);
  b.Clear();
  EXPECT_EQ(b.size(), 0u);
}

// --- Encoded log -------------------------------------------------------------

DataItem FullItem(uint64_t ts, Tuple payload) {
  DataItem i;
  i.from = SourceId{7, 3};
  i.ts = ts;
  i.barrier_id = 0xB0000000000 + ts;
  i.expected_partials = 5;
  i.user_tag = 0xFEEDFACECAFE + ts;
  i.replayed = ts % 2 == 0;
  i.payload = std::move(payload);
  return i;
}

void ExpectSameItem(const DataItem& got, const DataItem& want) {
  EXPECT_EQ(got.from, want.from);
  EXPECT_EQ(got.ts, want.ts);
  EXPECT_EQ(got.barrier_id, want.barrier_id);
  EXPECT_EQ(got.expected_partials, want.expected_partials);
  EXPECT_EQ(got.user_tag, want.user_tag);
  EXPECT_EQ(got.replayed, want.replayed);
  EXPECT_EQ(got.payload, want.payload);
}

TEST(OutputBufferTest, EncodedEntriesKeepEveryField) {
  const std::vector<DataItem> items = {
      FullItem(1, Tuple{Value(int64_t{-42})}),
      FullItem(2, Tuple{Value(2.5)}),
      FullItem(3, Tuple{Value(std::string(300, 'x'))}),
      FullItem(4, Tuple{}),
      FullItem(5, Tuple{Value(int64_t{9}), Value(0.125), Value("k")}),
  };
  OutputBuffer b;
  EncodedBatch batch;
  for (const auto& item : items) {
    batch.Add(item);
  }
  b.AppendEncoded(batch, 6);
  for (size_t i = 0; i < items.size(); ++i) {
    ExpectSameItem(batch.Decode(i), items[i]);
  }

  auto after = b.ItemsAfter(6, 0);
  ASSERT_EQ(after.size(), items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    ExpectSameItem(after[i], items[i]);
  }

  auto snap = b.Snapshot();
  ASSERT_EQ(snap.size(), items.size());
  OutputBuffer restored;
  for (size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(snap[i].dest_instance, 6u);
    ExpectSameItem(snap[i].item, items[i]);
    restored.RestoreEntry(snap[i].item, snap[i].dest_instance);
  }
  auto copy = restored.ItemsAfter(6, 0);
  ASSERT_EQ(copy.size(), items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    ExpectSameItem(copy[i], items[i]);
  }
}

TEST(OutputBufferTest, WriteEntriesMatchesSerialisedSnapshotAndRestores) {
  // The checkpoint blob copies the logged bytes; it must equal serialising
  // the decoded entries, destination by destination, and read back whole.
  OutputBuffer b;
  for (uint64_t ts = 1; ts <= 40; ++ts) {
    b.Append(FullItem(ts, Tuple{Value(static_cast<int64_t>(ts)), Value("v")}),
             static_cast<uint32_t>(ts % 3));
  }
  b.Ack(1, 20);
  BinaryWriter copied;
  b.WriteEntries(copied);
  BinaryWriter encoded;
  auto snap = b.Snapshot();
  encoded.Write<uint64_t>(snap.size());
  for (const auto& e : snap) {
    encoded.Write<uint32_t>(e.dest_instance);
    e.item.Serialize(encoded);
  }
  EXPECT_EQ(copied.buffer(), encoded.buffer());

  OutputBuffer restored;
  BinaryReader r(copied.buffer());
  ASSERT_TRUE(restored.RestoreEntries(r).ok());
  EXPECT_TRUE(r.AtEnd());
  BinaryWriter again;
  restored.WriteEntries(again);
  EXPECT_EQ(again.buffer(), copied.buffer());
}

// Items whose encodings are `bytes` long (payload padded to fit).
DataItem SizedItem(uint64_t ts, size_t bytes) {
  DataItem probe = Item(ts);
  probe.payload = Tuple{Value(std::string())};
  const size_t overhead = probe.ToBytes().size();
  probe.payload = Tuple{Value(std::string(bytes - overhead, 'p'))};
  return probe;
}

TEST(OutputBufferTest, AckMidSegment) {
  // 1 KiB entries: 64 per segment. The watermark lands inside the second.
  OutputBuffer b;
  for (uint64_t ts = 1; ts <= 200; ++ts) {
    b.Append(SizedItem(ts, 1024), 0);
  }
  b.Ack(0, 100);
  EXPECT_EQ(b.SizeFor(0), 100u);
  auto rest = b.ItemsAfter(0, 0);
  ASSERT_EQ(rest.size(), 100u);
  EXPECT_EQ(rest.front().ts, 101u);
  EXPECT_EQ(rest.back().ts, 200u);
  b.Ack(0, 150);
  EXPECT_EQ(b.size(), 50u);
  EXPECT_EQ(b.ItemsAfter(0, 0).front().ts, 151u);
}

TEST(OutputBufferTest, AckExactlyAtSegmentEnd) {
  constexpr uint64_t kPerSegment = OutputBuffer::kSegmentBytes / 1024;
  OutputBuffer b;
  for (uint64_t ts = 1; ts <= 3 * kPerSegment; ++ts) {
    b.Append(SizedItem(ts, 1024), 0);
  }
  b.Ack(0, kPerSegment);  // the first segment's last entry
  EXPECT_EQ(b.SizeFor(0), 2 * kPerSegment);
  EXPECT_EQ(b.ItemsAfter(0, 0).front().ts, kPerSegment + 1);
  b.Ack(0, 3 * kPerSegment);  // everything: the log empties
  EXPECT_EQ(b.size(), 0u);
  EXPECT_TRUE(b.Snapshot().empty());
  // Appends after a full trim start a fresh log.
  b.Append(SizedItem(3 * kPerSegment + 1, 1024), 0);
  EXPECT_EQ(b.SizeFor(0), 1u);
}

TEST(OutputBufferTest, AckPastEntryLargerThanSegment) {
  OutputBuffer b;
  b.Append(SizedItem(1, 100), 0);
  const DataItem big = SizedItem(2, 3 * OutputBuffer::kSegmentBytes);
  b.Append(big, 0);
  b.Append(SizedItem(3, 100), 0);
  ASSERT_EQ(b.SizeFor(0), 3u);
  auto all = b.ItemsAfter(0, 0);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[1].payload, big.payload);
  b.Ack(0, 1);
  EXPECT_EQ(b.SizeFor(0), 2u);
  b.Ack(0, 2);  // past the oversized entry
  EXPECT_EQ(b.SizeFor(0), 1u);
  auto last = b.ItemsAfter(0, 0);
  ASSERT_EQ(last.size(), 1u);
  EXPECT_EQ(last[0].ts, 3u);
}

TEST(OutputBufferTest, ConcurrentAppendAndTrailingAck) {
  // One appender, one acker trailing it: the final sizes are exactly the
  // unacked suffix (runs under TSan in CI).
  constexpr uint64_t kItems = 20000;
  constexpr uint32_t kDests = 3;
  OutputBuffer b;
  std::atomic<uint64_t> appended{0};
  std::thread appender([&] {
    for (uint64_t ts = 1; ts <= kItems; ++ts) {
      b.Append(SizedItem(ts, 64 + ts % 200), static_cast<uint32_t>(ts % kDests));
      appended.store(ts, std::memory_order_release);
    }
  });
  uint64_t acked = 0;
  while (acked + 500 < kItems) {
    const uint64_t seen = appended.load(std::memory_order_acquire);
    if (seen > acked + 500) {
      acked = seen - 500;
      for (uint32_t d = 0; d < kDests; ++d) {
        b.Ack(d, acked);
      }
      // Nothing past `acked` is trimmed, whatever the appender adds.
      EXPECT_GE(b.size(), seen - acked);
    } else {
      std::this_thread::yield();
    }
  }
  appender.join();
  size_t expected_total = 0;
  for (uint32_t d = 0; d < kDests; ++d) {
    size_t expected = 0;
    for (uint64_t ts = acked + 1; ts <= kItems; ++ts) {
      expected += ts % kDests == d ? 1 : 0;
    }
    EXPECT_EQ(b.SizeFor(d), expected) << "dest " << d;
    auto rest = b.ItemsAfter(d, 0);
    ASSERT_EQ(rest.size(), expected);
    if (!rest.empty()) {
      EXPECT_GT(rest.front().ts, acked);
    }
    expected_total += expected;
  }
  EXPECT_EQ(b.size(), expected_total);
}

}  // namespace
}  // namespace sdg::runtime
