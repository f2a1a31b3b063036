// ShardedState<Shard>: the lock-striping core shared by every state backend.
//
// A backend splits its containers into N power-of-two stripes keyed by the
// same partitioning hash that travels with every checkpoint record
// (`Codec<K>::Hash` for dictionaries, `MixHash64(block)` / `MixHash64(row)`
// for the numeric backends). Each stripe owns
//   - a `std::shared_mutex` (readers share, writers exclude — the read-heavy
//     paths like @Global partial-state reads scale across cores),
//   - the backend-specific shard of the main structure and its dirty overlay
//     (the `Shard` template parameter — a plain data struct), and
//   - a `DeltaTracker` over the backend's delta granularity, so delta epochs
//     freeze and resolve shard-by-shard.
//
// The helper centralises the whole §5 dirty-state protocol — the checkpoint
// flag, Begin/End consolidation, delta epoch transitions, and the locking
// discipline — so the four backends keep only their container-specific code.
//
// Locking discipline (also documented in docs/runtime.md):
//   - single-stripe ops take that stripe's lock (shared for reads, exclusive
//     for writes); a thread holding a stripe lock never acquires another;
//   - whole-backend ops (resize, Fill, ExtractPartition, checkpoint
//     transitions) take every stripe exclusively in index order — the only
//     multi-lock pattern, so there is no deadlock cycle;
//   - `checkpoint_active_` only flips while ALL stripes are held exclusively,
//     so any thread holding any stripe lock (even shared) sees a stable flag
//     and a relaxed load inside a locked region is race-free;
//   - serialisation while a checkpoint is active takes no locks at all: the
//     main structure and the frozen delta sets are immutable until
//     EndCheckpoint/Resolve, which is what lets SerializeShardRecords run on
//     a thread pool concurrently with processing (writes go to the overlay
//     under the stripe locks).
#ifndef SDG_STATE_SHARDED_STATE_H_
#define SDG_STATE_SHARDED_STATE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/state/delta_tracker.h"
#include "src/state/spill.h"

namespace sdg::state {

// Default stripe count: a power of two sized to the machine, ~2x the
// hardware threads clamped to [4, 64] — except a single-hardware-thread
// host, which gets exactly one stripe. The BENCH_state stripe sweep
// (dict_put_hw_s{1,4,16,64}) is what this is tuned from: stripes beyond
// ~2x the writer count buy no further scaling but tax every op with extra
// lock traffic, and on a 1-core host even the old floor of 4 costs ~24%
// of single-writer put rate over one stripe (24.7M vs 18.7M items/s).
// One stripe is safe there because the executor sizes its worker pool to
// hardware_concurrency — there is exactly one processing writer — and the
// checkpoint serialize walk iterates lock-free while a checkpoint is
// active (main is frozen; writes land in the dirty overlay), so stripes
// never gate checkpoint overlap. On >=2 hardware threads the multi-writer
// regime returns and the floor of 4 stands: fewer reintroduces the
// one-lock contention striping exists to remove.
inline uint32_t DefaultStateShards() {
  static const uint32_t shards = [] {
    unsigned hw = std::thread::hardware_concurrency();
    if (hw <= 1) {
      return uint32_t{1};
    }
    uint32_t s = 4;
    while (s < 2 * hw && s < 64) {
      s <<= 1;
    }
    return s;
  }();
  return shards;
}

// Prefetches the element an iterator points at, plus — when the mapped value
// owns out-of-line storage (std::string, etc.) — its payload. The serialize
// walks rotate across num_shards pointer-chased node streams, which is more
// than the hardware prefetcher tracks; chaining a one-ahead software
// prefetch keeps two misses in flight and roughly halves the walk's wall
// time for out-of-line values (measured on 200-byte strings).
template <typename It>
inline void PrefetchRecord(It it) {
  __builtin_prefetch(std::addressof(*it));
  if constexpr (requires { it->second.data(); }) {
    __builtin_prefetch(it->second.data());
  }
}

template <typename Shard>
class ShardedState {
 public:
  using DeltaId = typename Shard::DeltaId;

  struct Stripe {
    mutable std::shared_mutex mutex;
    Shard data;
    DeltaTracker<DeltaId> delta;

    // --- Cold tier (meaningful only when spill is enabled) ----------------
    // `spilled` flips only while this stripe's mutex is held exclusively, so
    // any thread inside a locked region sees a stable value; the relaxed
    // loads outside locks (clock scan, MaybeEvict budget probe) are hints
    // that get re-validated under the lock.
    std::atomic<bool> spilled{false};
    // Clock reference bit: set on every access, cleared by the victim scan.
    // Atomic because shared-lock readers set it concurrently.
    mutable std::atomic<uint8_t> ref{1};
    // Accounted bytes of this stripe's resident containers; read/written
    // under the stripe lock only. The backend keeps it in sync with its
    // container mutations; the atomic backend-wide gauge mirrors the sum.
    int64_t resident_bytes = 0;
    // On-disk shape of the spilled blob (under the stripe lock).
    uint64_t spilled_records = 0;
    uint64_t spilled_blob_bytes = 0;
  };

  explicit ShardedState(uint32_t num_shards = DefaultStateShards()) {
    uint32_t n = 1;
    while (n < num_shards && n < 1024) {
      n <<= 1;  // round up to a power of two so routing is a mask
    }
    num_shards_ = n;
    mask_ = n - 1;
    stripes_ = std::make_unique<Stripe[]>(n);
  }

  uint32_t num_shards() const { return num_shards_; }
  uint32_t ShardOf(uint64_t hash) const {
    return static_cast<uint32_t>(hash & mask_);
  }

  Stripe& stripe(uint32_t s) { return stripes_[s]; }
  const Stripe& stripe(uint32_t s) const { return stripes_[s]; }

  bool checkpoint_active() const {
    return checkpoint_active_.load(std::memory_order_acquire);
  }

  // --- Single-stripe access -------------------------------------------------
  // fn(Shard&, DeltaTracker<DeltaId>&, bool checkpoint_active) under the
  // owning stripe's exclusive lock.
  template <typename Fn>
  decltype(auto) Write(uint64_t hash, Fn&& fn) {
    Stripe& st = stripes_[ShardOf(hash)];
    std::unique_lock<std::shared_mutex> lock(st.mutex);
    return fn(st.data, st.delta,
              checkpoint_active_.load(std::memory_order_relaxed));
  }

  // fn(const Shard&, bool checkpoint_active) under the owning stripe's shared
  // lock.
  template <typename Fn>
  decltype(auto) Read(uint64_t hash, Fn&& fn) const {
    const Stripe& st = stripes_[ShardOf(hash)];
    std::shared_lock<std::shared_mutex> lock(st.mutex);
    return fn(st.data, checkpoint_active_.load(std::memory_order_relaxed));
  }

  // --- Sequential all-stripe visitors --------------------------------------
  // One stripe locked at a time: shard-locally consistent, no global cut.
  // fn(const Shard&, bool checkpoint_active) per stripe.
  template <typename Fn>
  void ReadEach(Fn&& fn) const {
    for (uint32_t s = 0; s < num_shards_; ++s) {
      const Stripe& st = stripes_[s];
      std::shared_lock<std::shared_mutex> lock(st.mutex);
      fn(st.data, checkpoint_active_.load(std::memory_order_relaxed));
    }
  }

  // Whole-backend mutation: `fn(bool checkpoint_active)` runs once with every
  // stripe held exclusively; the body may touch any stripe via stripe(s).
  // The flag is sampled under the guard, so active-checkpoint precondition
  // checks made inside fn are race-free.
  template <typename Fn>
  decltype(auto) WriteAll(Fn&& fn) {
    AllWriteGuard guard(*this);
    return fn(checkpoint_active_.load(std::memory_order_relaxed));
  }

  // Whole-backend read: `fn(bool checkpoint_active)` with every stripe held
  // shared — a consistent cut for cross-stripe reads (ToDense, Multiply).
  template <typename Fn>
  decltype(auto) ReadAll(Fn&& fn) const {
    AllReadGuard guard(*this);
    return fn(checkpoint_active_.load(std::memory_order_relaxed));
  }

  // --- Whole-backend guards -------------------------------------------------
  // Every stripe locked simultaneously, acquired in index order.
  class AllWriteGuard {
   public:
    explicit AllWriteGuard(ShardedState& owner) : owner_(owner) {
      for (uint32_t s = 0; s < owner_.num_shards_; ++s) {
        owner_.stripes_[s].mutex.lock();
      }
    }
    ~AllWriteGuard() {
      for (uint32_t s = owner_.num_shards_; s > 0; --s) {
        owner_.stripes_[s - 1].mutex.unlock();
      }
    }
    AllWriteGuard(const AllWriteGuard&) = delete;
    AllWriteGuard& operator=(const AllWriteGuard&) = delete;

   private:
    ShardedState& owner_;
  };

  class AllReadGuard {
   public:
    explicit AllReadGuard(const ShardedState& owner) : owner_(owner) {
      for (uint32_t s = 0; s < owner_.num_shards_; ++s) {
        owner_.stripes_[s].mutex.lock_shared();
      }
    }
    ~AllReadGuard() {
      for (uint32_t s = owner_.num_shards_; s > 0; --s) {
        owner_.stripes_[s - 1].mutex.unlock_shared();
      }
    }
    AllReadGuard(const AllReadGuard&) = delete;
    AllReadGuard& operator=(const AllReadGuard&) = delete;

   private:
    const ShardedState& owner_;
  };

  // --- Checkpoint protocol (§5) --------------------------------------------
  // All stripes held exclusively: the snapshot is an atomic cut, exactly the
  // semantics the single-mutex backends had.
  void BeginCheckpoint(const char* type_name) {
    AllWriteGuard guard(*this);
    SDG_CHECK(!checkpoint_active_.load(std::memory_order_relaxed))
        << "checkpoint already active on " << type_name;
    for (uint32_t s = 0; s < num_shards_; ++s) {
      stripes_[s].delta.Freeze();
    }
    checkpoint_active_.store(true, std::memory_order_release);
  }

  // fn(uint32_t stripe, Shard&) folds that stripe's overlay into its main
  // structure and returns the number of entries consolidated.
  template <typename Fn>
  uint64_t EndCheckpoint(const char* type_name, Fn&& consolidate) {
    AllWriteGuard guard(*this);
    SDG_CHECK(checkpoint_active_.load(std::memory_order_relaxed))
        << "EndCheckpoint without BeginCheckpoint on " << type_name;
    uint64_t total = 0;
    for (uint32_t s = 0; s < num_shards_; ++s) {
      total += consolidate(s, stripes_[s].data);
    }
    checkpoint_active_.store(false, std::memory_order_release);
    return total;
  }

  // Serialise-time lock for one stripe: none while a checkpoint is active
  // (main and the frozen delta set are immutable — and taking even a shared
  // lock would contend with overlay writers), shared otherwise.
  std::shared_lock<std::shared_mutex> SerializeLock(uint32_t s) const {
    if (checkpoint_active()) {
      return std::shared_lock<std::shared_mutex>(stripes_[s].mutex,
                                                 std::defer_lock);
    }
    return std::shared_lock<std::shared_mutex>(stripes_[s].mutex);
  }

  // Serialise-time lock for a whole-backend walk (e.g. an interleaved
  // cross-stripe iteration): every stripe shared while quiesced, nothing
  // while a checkpoint is active — holding stripe locks across the full walk
  // would stall overlay writers and break the async-checkpoint contract.
  class SerializeAllLock {
   public:
    explicit SerializeAllLock(const ShardedState& owner) {
      if (!owner.checkpoint_active()) {
        guard_.emplace(owner);
      }
    }

   private:
    std::optional<AllReadGuard> guard_;
  };

  SerializeAllLock SerializeLockAll() const { return SerializeAllLock(*this); }

  // --- Delta epochs ---------------------------------------------------------
  void EnableDeltaTracking() {
    AllWriteGuard guard(*this);
    for (uint32_t s = 0; s < num_shards_; ++s) {
      stripes_[s].delta.Enable();
    }
  }

  // Stripe trackers transition in lockstep under the all-stripe guard except
  // for restore/repartition invalidation, which is per-stripe — so the
  // backend is delta-ready only when every stripe still has its baseline.
  bool DeltaReady() const {
    AllReadGuard guard(*this);
    for (uint32_t s = 0; s < num_shards_; ++s) {
      if (!stripes_[s].delta.Ready()) {
        return false;
      }
    }
    return num_shards_ > 0;
  }

  void ResolveEpoch(bool committed) {
    // The resolved frozen sets are freed after the all-stripe guard is
    // released: freeing an epoch's worth of ids under it would park every
    // writer of the partition.
    std::vector<std::unordered_set<DeltaId>> resolved(num_shards_);
    {
      AllWriteGuard guard(*this);
      for (uint32_t s = 0; s < num_shards_; ++s) {
        resolved[s] = stripes_[s].delta.Resolve(committed);
      }
    }
  }

  // fn(uint32_t stripe, Shard&) clears that stripe's containers. Also
  // invalidates every delta tracker. Leaves the checkpoint flag untouched
  // (matching the historical Clear semantics).
  template <typename Fn>
  void ClearAll(Fn&& clear) {
    AllWriteGuard guard(*this);
    for (uint32_t s = 0; s < num_shards_; ++s) {
      clear(s, stripes_[s].data);
      stripes_[s].delta.Invalidate();
    }
  }

  size_t DeltaChangedCount() const {
    AllReadGuard guard(*this);
    size_t n = 0;
    for (uint32_t s = 0; s < num_shards_; ++s) {
      n += stripes_[s].delta.ChangedCount();
    }
    return n;
  }

  // --- Cold-tier spill orchestration ---------------------------------------
  // ShardedState owns the policy half — budget, clock victim selection, the
  // resident gauge, stats — while the backend owns the data half (what a
  // stripe's bytes look like on disk). The backend calls TouchRef on every
  // access, keeps stripe.resident_bytes + the gauge in sync via
  // NoteResidentBytes, and drives EvictStripe/FaultIn itself because only it
  // can serialize its Shard.

  static constexpr uint32_t kNoVictim = ~uint32_t{0};

  // Validates and installs the policy and wipes any stale spill files. Must
  // run quiesced (the backend takes its all-stripe guard around the
  // container walk that seeds resident_bytes); not callable while a
  // checkpoint is active. One-way: spill stays enabled for the backend's
  // lifetime.
  Status EnableSpill(const SpillConfig& config) {
    if (config.budget_bytes == 0) {
      return InvalidArgumentError("spill budget must be > 0");
    }
    if (num_shards_ < 2) {
      return InvalidArgumentError(
          "spill needs >= 2 stripes (one must stay resident while another "
          "evicts); construct the backend with an explicit stripe count");
    }
    if (config.min_resident_stripes >= num_shards_) {
      return InvalidArgumentError("min_resident_stripes must leave at least "
                                  "one evictable stripe");
    }
    SDG_RETURN_IF_ERROR(PrepareSpillDir(config.dir));
    spill_config_ = config;
    resident_stripes_.store(num_shards_, std::memory_order_relaxed);
    spill_enabled_.store(true, std::memory_order_release);
    return Status::Ok();
  }

  bool spill_enabled() const {
    return spill_enabled_.load(std::memory_order_acquire);
  }
  const SpillConfig& spill_config() const { return spill_config_; }

  std::string SpillPath(uint32_t s) const {
    return spill_config_.dir + "/stripe-" + std::to_string(s) + ".spill";
  }

  // Resident-byte gauge, mirrored from the per-stripe counters so the budget
  // probe needs no locks.
  void NoteResidentBytes(int64_t delta) {
    resident_total_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t ResidentBytes() const {
    return resident_total_.load(std::memory_order_relaxed);
  }
  bool OverBudget() const {
    return spill_enabled() &&
           ResidentBytes() >
               static_cast<int64_t>(spill_config_.budget_bytes);
  }

  void TouchRef(uint32_t s) const {
    if (spill_enabled()) {
      stripes_[s].ref.store(1, std::memory_order_relaxed);
    }
  }

  // Second-chance clock over the resident stripes. `exclude` shields the
  // stripe the caller just touched/faulted-in from immediate re-eviction
  // (pass kNoVictim to scan all). Returns kNoVictim when eviction would drop
  // below min_resident_stripes or nothing is evictable.
  uint32_t PickSpillVictim(uint32_t exclude) {
    if (resident_stripes_.load(std::memory_order_relaxed) <=
        spill_config_.min_resident_stripes) {
      return kNoVictim;
    }
    const uint32_t n = num_shards_;
    for (uint32_t i = 0; i < 2 * n; ++i) {
      uint32_t s =
          static_cast<uint32_t>(clock_hand_.fetch_add(1, std::memory_order_relaxed) & mask_);
      if (s == exclude || stripes_[s].spilled.load(std::memory_order_relaxed)) {
        continue;
      }
      if (stripes_[s].ref.exchange(0, std::memory_order_relaxed) == 0) {
        return s;
      }
    }
    // Everything was recently referenced: take the next resident stripe.
    for (uint32_t i = 0; i < n; ++i) {
      uint32_t s =
          static_cast<uint32_t>(clock_hand_.fetch_add(1, std::memory_order_relaxed) & mask_);
      if (s != exclude && !stripes_[s].spilled.load(std::memory_order_relaxed)) {
        return s;
      }
    }
    return kNoVictim;
  }

  // Bookkeeping around a spilled-flag flip; call under the stripe's
  // exclusive lock, right where the flag is stored. The event counters are
  // separate (NoteEviction/NoteFaultIn) because Clear and partition
  // extraction also flip stripes back without a logical fault-in.
  void NoteStripeSpilled(Stripe& st, uint64_t records, uint64_t blob_bytes) {
    st.spilled.store(true, std::memory_order_relaxed);
    st.spilled_records = records;
    st.spilled_blob_bytes = blob_bytes;
    resident_stripes_.fetch_sub(1, std::memory_order_relaxed);
    spilled_blob_total_.fetch_add(static_cast<int64_t>(blob_bytes),
                                  std::memory_order_relaxed);
  }
  void NoteStripeResident(Stripe& st) {
    st.spilled.store(false, std::memory_order_relaxed);
    spilled_blob_total_.fetch_sub(static_cast<int64_t>(st.spilled_blob_bytes),
                                  std::memory_order_relaxed);
    st.spilled_records = 0;
    st.spilled_blob_bytes = 0;
    resident_stripes_.fetch_add(1, std::memory_order_relaxed);
  }
  // Blob rewritten in place (cold-overlay compaction / partition extraction).
  void NoteBlobRewritten(Stripe& st, uint64_t records, uint64_t blob_bytes) {
    spilled_blob_total_.fetch_add(
        static_cast<int64_t>(blob_bytes) -
            static_cast<int64_t>(st.spilled_blob_bytes),
        std::memory_order_relaxed);
    st.spilled_records = records;
    st.spilled_blob_bytes = blob_bytes;
  }
  void NoteEviction() { evictions_.fetch_add(1, std::memory_order_relaxed); }
  void NoteFaultIn() { fault_ins_.fetch_add(1, std::memory_order_relaxed); }
  void NoteColdLookup() const {
    cold_lookups_.fetch_add(1, std::memory_order_relaxed);
  }

  SpillStats GetSpillStats() const {
    SpillStats stats;
    stats.evictions = evictions_.load(std::memory_order_relaxed);
    stats.fault_ins = fault_ins_.load(std::memory_order_relaxed);
    stats.cold_lookups = cold_lookups_.load(std::memory_order_relaxed);
    stats.spilled_stripes =
        num_shards_ - resident_stripes_.load(std::memory_order_relaxed);
    int64_t blob = spilled_blob_total_.load(std::memory_order_relaxed);
    stats.spilled_bytes = blob > 0 ? static_cast<uint64_t>(blob) : 0;
    int64_t res = resident_total_.load(std::memory_order_relaxed);
    stats.resident_bytes = res > 0 ? static_cast<uint64_t>(res) : 0;
    return stats;
  }

 private:
  uint32_t num_shards_ = 0;
  uint64_t mask_ = 0;
  std::unique_ptr<Stripe[]> stripes_;
  // Flips only under AllWriteGuard; atomic so checkpoint_active() can be
  // observed without any stripe lock.
  std::atomic<bool> checkpoint_active_{false};

  // --- Cold-tier policy state ----------------------------------------------
  SpillConfig spill_config_;           // immutable after EnableSpill
  std::atomic<bool> spill_enabled_{false};
  std::atomic<int64_t> resident_total_{0};
  std::atomic<uint64_t> clock_hand_{0};
  std::atomic<uint32_t> resident_stripes_{0};  // seeded by EnableSpill caller
  std::atomic<int64_t> spilled_blob_total_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> fault_ins_{0};
  mutable std::atomic<uint64_t> cold_lookups_{0};
};

}  // namespace sdg::state

#endif  // SDG_STATE_SHARDED_STATE_H_
