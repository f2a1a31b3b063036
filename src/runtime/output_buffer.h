// OutputBuffer: the upstream-backup message log of the recovery protocol (§5).
//
// Every TE instance logs, per downstream TE, each item it sent together with
// the destination instance chosen by the dispatcher. After a downstream
// failure, entries past the restored checkpoint's vector timestamp are
// replayed; once a downstream instance's checkpoint is persisted, its entries
// at or below the acknowledged timestamp are trimmed.
//
// A log entry is the item's wire encoding (DataItem::Serialize), not the
// item. A producer encodes each item exactly once into an EncodedBatch, and
// three consumers share those bytes: the log copies them, a delivery across
// a node boundary decodes its copies from them, and a RemoteChannel sends
// them as its kData payload. Only replay and recovery decode entries
// (ItemsAfter, Snapshot). WriteEntries copies the logged bytes into the
// checkpoint blob, which is therefore byte-identical to serialising the items.
//
// Entries are kept PER destination instance, in byte segments of
// kSegmentBytes with a per-entry (ts, end offset) index. Acks for one
// destination therefore trim that destination's log regardless of what other
// destinations still retain — a slow (or failed) instance can never pin
// acknowledged entries of its healthy siblings behind it. Ack only advances a
// head index under the mutex; the whole segments it passes are freed after
// the mutex is released, so appenders never wait on frees.
#ifndef SDG_RUNTIME_OUTPUT_BUFFER_H_
#define SDG_RUNTIME_OUTPUT_BUFFER_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <vector>

#include "src/common/logging.h"
#include "src/common/serialize.h"
#include "src/runtime/data_item.h"

namespace sdg::runtime {

// The wire encodings of a run of items, back to back, with each item's
// timestamp and end offset. A caller header (a kData frame's item count) may
// precede the first encoding.
class EncodedBatch {
 public:
  // Writes `value` ahead of the encodings; only before the first Add.
  template <typename T>
  void WriteHeader(T value) {
    writer_.Write<T>(value);
    begin_ = writer_.size();
  }

  void Add(const DataItem& item) {
    item.Serialize(writer_);
    ends_.push_back(End{item.ts, writer_.size()});
  }

  // A fresh copy of item `i`, decoded from its encoding.
  DataItem Decode(size_t i) const {
    return Decode(writer_.data() + Start(i), ends_[i].offset - Start(i));
  }

  size_t size() const { return ends_.size(); }

  // Empties the batch, keeping its capacity for reuse.
  void Clear() {
    writer_.Clear();
    begin_ = 0;
    ends_.clear();
  }

  // Header plus encodings, e.g. as a frame payload.
  std::vector<uint8_t> TakeBytes() && { return std::move(writer_).TakeBuffer(); }

 private:
  friend class OutputBuffer;
  struct End {
    uint64_t ts = 0;
    size_t offset = 0;  // one past the encoding's last byte
  };

  size_t Start(size_t i) const { return i == 0 ? begin_ : ends_[i - 1].offset; }

  static DataItem Decode(const uint8_t* data, size_t size) {
    auto item = DataItem::FromBytes(data, size);
    SDG_CHECK(item.ok()) << "wire encoding failed to decode";
    return std::move(*item);
  }

  BinaryWriter writer_;
  size_t begin_ = 0;
  std::vector<End> ends_;
};

class OutputBuffer {
 public:
  // An entry never straddles two segments: one that would overflow the tail
  // segment opens a new one, and an entry larger than a whole segment gets a
  // segment of its own.
  static constexpr size_t kSegmentBytes = 64 * 1024;

  struct Entry {
    DataItem item;
    uint32_t dest_instance = 0;
  };

  void Append(const DataItem& item, uint32_t dest_instance) {
    EncodedBatch one;
    one.Add(item);
    AppendEncoded(one, dest_instance);
  }

  // Logs a whole batch destined to one instance under a single lock hold by
  // copying its encodings (the producer keeps the batch for delivery).
  void AppendEncoded(const EncodedBatch& batch, uint32_t dest_instance) {
    const uint8_t* data = batch.writer_.data();
    std::lock_guard<std::mutex> lock(mutex_);
    Log& log = logs_[dest_instance];
    for (size_t i = 0; i < batch.size(); ++i) {
      const size_t start = batch.Start(i);
      const size_t n = batch.ends_[i].offset - start;
      if (log.segments.empty() ||
          log.segments.back().bytes.size() + n > kSegmentBytes) {
        // A log's first segment grows on demand, so a lightly used
        // destination holds only its bytes; the successor of a full segment
        // is allocated at full size up front.
        const bool busy = !log.segments.empty();
        log.segments.emplace_back();
        if (busy) {
          log.segments.back().bytes.reserve(kSegmentBytes);
        }
      }
      Segment& seg = log.segments.back();
      seg.bytes.insert(seg.bytes.end(), data + start, data + start + n);
      seg.ends.push_back(EncodedBatch::End{batch.ends_[i].ts, seg.bytes.size()});
    }
    log.live += batch.size();
  }

  // Records that `dest_instance` has durably checkpointed items from this
  // source up to `acked_ts`, then drops that destination's entries at or
  // below the highest acknowledgement seen (the watermark is sticky: an
  // entry restored or appended below it is trimmed by the next Ack, however
  // low). Timestamps per source are monotone, so covered entries are exactly
  // a prefix of the destination's log.
  void Ack(uint32_t dest_instance, uint64_t acked_ts) {
    std::vector<Segment> passed;  // freed below, once the mutex is released
    {
      std::lock_guard<std::mutex> lock(mutex_);
      uint64_t& slot = acked_[dest_instance];
      slot = std::max(slot, acked_ts);
      auto it = logs_.find(dest_instance);
      if (it == logs_.end()) {
        return;
      }
      Log& log = it->second;
      while (!log.segments.empty()) {
        const Segment& front = log.segments.front();
        while (log.head < front.ends.size() && front.ends[log.head].ts <= slot) {
          ++log.head;
          --log.live;
        }
        if (log.head < front.ends.size()) {
          break;
        }
        passed.push_back(std::move(log.segments.front()));
        log.segments.pop_front();
        log.head = 0;
      }
      if (log.segments.empty()) {
        logs_.erase(it);
      }
    }
  }

  // Entries with ts > from_ts destined to `dest_instance` (replay set).
  std::vector<DataItem> ItemsAfter(uint32_t dest_instance,
                                   uint64_t from_ts) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<DataItem> out;
    auto it = logs_.find(dest_instance);
    if (it == logs_.end()) {
      return out;
    }
    ForEachLive(it->second, [&](uint64_t ts, const uint8_t* p, size_t n) {
      if (ts > from_ts) {
        out.push_back(EncodedBatch::Decode(p, n));
      }
    });
    return out;
  }

  // All retained entries. Grouped by destination (FIFO within each
  // destination) — the restore path replays per destination, so
  // cross-destination order carries no meaning.
  std::vector<Entry> Snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Entry> out;
    for (const auto& [dest, log] : logs_) {
      ForEachLive(log, [&](uint64_t, const uint8_t* p, size_t n) {
        out.push_back(Entry{EncodedBatch::Decode(p, n), dest});
      });
    }
    return out;
  }

  // Writes the retained entries in Snapshot() order, in the checkpoint blob's
  // layout: a u64 count, then per entry its u32 destination and its
  // encoding. The logged bytes are copied, not re-encoded.
  void WriteEntries(BinaryWriter& w) const {
    std::lock_guard<std::mutex> lock(mutex_);
    uint64_t count = 0;
    for (const auto& [dest, log] : logs_) {
      count += log.live;
    }
    w.Write<uint64_t>(count);
    for (const auto& [dest, log] : logs_) {
      ForEachLive(log, [&](uint64_t, const uint8_t* p, size_t n) {
        w.Write<uint32_t>(dest);
        w.WriteBytes(p, n);
      });
    }
  }

  void RestoreEntry(const DataItem& item, uint32_t dest_instance) {
    Append(item, dest_instance);
  }

  // Reads entries written by WriteEntries and logs them.
  Status RestoreEntries(BinaryReader& r) {
    SDG_ASSIGN_OR_RETURN(uint64_t count, r.Read<uint64_t>());
    for (uint64_t i = 0; i < count; ++i) {
      SDG_ASSIGN_OR_RETURN(uint32_t dest, r.Read<uint32_t>());
      SDG_ASSIGN_OR_RETURN(DataItem item, DataItem::Deserialize(r));
      RestoreEntry(item, dest);
    }
    return Status::Ok();
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    size_t n = 0;
    for (const auto& [dest, log] : logs_) {
      n += log.live;
    }
    return n;
  }

  // Retained entries for one destination (bounded-size assertions in tests).
  size_t SizeFor(uint32_t dest_instance) const {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = logs_.find(dest_instance);
    return it == logs_.end() ? 0 : it->second.live;
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    logs_.clear();
  }

 private:
  struct Segment {
    std::vector<uint8_t> bytes;
    std::vector<EncodedBatch::End> ends;  // per entry: ts, end offset in bytes
  };
  // One destination's log. Entries before `head` in the front segment are
  // acknowledged; every later segment is entirely live.
  struct Log {
    std::deque<Segment> segments;
    size_t head = 0;
    size_t live = 0;
  };

  // fn(ts, encoding, size) for every live entry of `log`, oldest first.
  template <typename Fn>
  static void ForEachLive(const Log& log, Fn&& fn) {
    size_t first = log.head;
    for (const Segment& seg : log.segments) {
      for (size_t i = first; i < seg.ends.size(); ++i) {
        const size_t start = i == 0 ? 0 : seg.ends[i - 1].offset;
        fn(seg.ends[i].ts, seg.bytes.data() + start, seg.ends[i].offset - start);
      }
      first = 0;
    }
  }

  mutable std::mutex mutex_;
  // Ordered map so Snapshot() and WriteEntries() are deterministic across
  // runs (checkpoint bytes compare equal for equal logical state).
  std::map<uint32_t, Log> logs_;
  std::map<uint32_t, uint64_t> acked_;  // sticky per-destination watermark
};

}  // namespace sdg::runtime

#endif  // SDG_RUNTIME_OUTPUT_BUFFER_H_
