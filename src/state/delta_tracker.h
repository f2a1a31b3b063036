// DeltaTracker: epoch-aware dirty-id bookkeeping shared by the StateBackend
// implementations.
//
// Between periodic full bases, a delta epoch persists only the entries that
// changed or were erased since the previous committed epoch. Each backend
// picks its delta granularity (KeyedDict: keys, SparseMatrix/DenseMatrix:
// rows, VectorState: index blocks) and funnels every mutation through
// Touch(). The tracker then implements the epoch protocol:
//
//   Touch(id)        every mutation, under the backend's state lock
//   Freeze()         at BeginCheckpoint — the accumulated change set becomes
//                    this epoch's frozen set; later writes accrue to the next,
//                    which starts with room for as many ids
//   Ready()          true when the frozen set applied over the previous
//                    committed epoch reconstructs the state (else: full base)
//   Resolve(true)    epoch durable — commit the baseline, drop the frozen set
//                    (handed back for the caller to free outside its locks)
//   Resolve(false)   epoch abandoned — merge the frozen set back so the next
//                    delta is a superset (a superset delta restores the same
//                    state, so an epoch whose durability is uncertain — e.g.
//                    a crash after the meta write but before the ack — is
//                    safe to count as failed)
//   Invalidate()     the in-memory state diverged from any persisted baseline
//                    (Clear, restore, repartition): force a full base next
#ifndef SDG_STATE_DELTA_TRACKER_H_
#define SDG_STATE_DELTA_TRACKER_H_

#include <cstddef>
#include <unordered_set>
#include <utility>

namespace sdg::state {

template <typename Id>
class DeltaTracker {
 public:
  void Enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  void Touch(const Id& id) {
    if (enabled_) {
      changed_.insert(id);
    }
  }

  void Freeze() {
    if (!enabled_) {
      return;
    }
    frozen_ = std::move(changed_);
    changed_.clear();
    // The next epoch tends to touch about as many ids: start at that size
    // instead of regrowing from zero buckets.
    changed_.reserve(frozen_.size());
  }

  bool Ready() const { return enabled_ && has_base_; }

  // The frozen set is immutable between Freeze() and Resolve(), so the
  // serialisation thread may iterate it without the state lock while a
  // checkpoint is active (writes go to `changed_`).
  const std::unordered_set<Id>& frozen() const { return frozen_; }

  // Hands the resolved frozen set back, either way, so the caller can free it
  // after releasing the state lock.
  std::unordered_set<Id> Resolve(bool committed) {
    if (!enabled_) {
      return {};
    }
    if (committed) {
      has_base_ = true;
    } else {
      changed_.insert(frozen_.begin(), frozen_.end());
    }
    return std::exchange(frozen_, {});
  }

  void Invalidate() {
    has_base_ = false;
    changed_.clear();
    frozen_.clear();
  }

  size_t ChangedCount() const { return changed_.size(); }

 private:
  bool enabled_ = false;
  bool has_base_ = false;
  std::unordered_set<Id> changed_;
  std::unordered_set<Id> frozen_;
};

}  // namespace sdg::state

#endif  // SDG_STATE_DELTA_TRACKER_H_
