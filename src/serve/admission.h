// Admission control for the serve front door.
//
// The gateway sheds load instead of queueing it: once the load signal
// crosses the high-water mark, new requests are rejected with kOverloaded
// until the signal drains below the low-water mark. The signal counts
// queueing only — the gateway's pending-request queue, its strong gets
// waiting on an owner, and the owning workers' mailbox depth (reported
// piggybacked on replica-feed announces). The gap between the marks is
// hysteresis — without it the controller flaps admit/shed around a single
// threshold and clients see an alternating stream of accepts and rejects
// instead of a clean brown-out.
#ifndef SDG_SERVE_ADMISSION_H_
#define SDG_SERVE_ADMISSION_H_

#include <atomic>
#include <cstdint>

namespace sdg::serve {

struct AdmissionOptions {
  // Enter shedding when the observed signal reaches this.
  uint64_t high_water = 4096;
  // Leave shedding when it has drained back to this.
  uint64_t low_water = 1024;
};

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions options = {})
      : options_(options) {}

  // Feeds the current load signal. Cheap; callable from any thread.
  void Observe(uint64_t signal) {
    bool shedding = shedding_.load(std::memory_order_relaxed);
    if (!shedding && signal >= options_.high_water) {
      shedding_.store(true, std::memory_order_relaxed);
    } else if (shedding && signal <= options_.low_water) {
      shedding_.store(false, std::memory_order_relaxed);
    }
  }

  // One admit/shed decision for one request; updates the counters.
  bool Admit() {
    if (shedding_.load(std::memory_order_relaxed)) {
      shed_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  // An admitted request refused later after all (the head's log was full):
  // recounts it as shed.
  void Refuse() {
    accepted_.fetch_sub(1, std::memory_order_relaxed);
    shed_.fetch_add(1, std::memory_order_relaxed);
  }

  bool shedding() const { return shedding_.load(std::memory_order_relaxed); }
  uint64_t accepted() const {
    return accepted_.load(std::memory_order_relaxed);
  }
  uint64_t shed() const { return shed_.load(std::memory_order_relaxed); }

  const AdmissionOptions& options() const { return options_; }

 private:
  const AdmissionOptions options_;
  std::atomic<bool> shedding_{false};
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> shed_{0};
};

}  // namespace sdg::serve

#endif  // SDG_SERVE_ADMISSION_H_
