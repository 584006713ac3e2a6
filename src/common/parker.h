// Parker: a place for one idle thread to sleep until another thread hands
// it work (DESIGN.md §7.3).
//
// The owner parks on a futex word; any thread that publishes work for the
// owner calls Wake() afterwards. The hand-off is the classic store-then-
// check pair: the owner stores kParked and then checks for work, the waker
// publishes work and then loads the word. Both sides' operations are
// seq_cst (the waker's publish is a seq_cst RMW, e.g. MpmcQueue::TryPush's
// tail CAS), so at least one side sees the other: either the owner finds
// the work and does not sleep, or the waker finds kParked and wakes it. A
// wake that arrives after the owner gave up waiting is harmless — the
// owner's next park may return early, and an early return is just another
// dry poll.
//
// The sleep is bounded by a timeout, so sources of work that never call
// Wake() are still noticed, only later.

#ifndef CORM_COMMON_PARKER_H_
#define CORM_COMMON_PARKER_H_

#include <atomic>
#include <cstdint>

#include "common/cpu_relax.h"

namespace corm {

class Parker {
 public:
  Parker() = default;
  Parker(const Parker&) = delete;
  Parker& operator=(const Parker&) = delete;

  // Owner thread only. Announces the park, re-checks `has_work` (which must
  // read the work sources with seq_cst loads), and sleeps for at most
  // `timeout_ns` unless woken. Returns true for a missed wake-up: the sleep
  // ran out while work was already queued and no Wake() had claimed it.
  template <typename HasWork>
  bool Park(uint64_t timeout_ns, HasWork&& has_work) {
    state_.store(kParked, std::memory_order_seq_cst);
    if (has_work()) {
      state_.store(kAwake, std::memory_order_relaxed);
      return false;
    }
    FutexWait(kParked, timeout_ns);
    // Work but no wake yet: a waker may have published just as the timeout
    // fired. Give it up to kClaimGrace relaxes to claim the park, so that a
    // missed wake-up means a producer that did not wake.
    bool work = false;
    for (int i = 0; state_.load(std::memory_order_acquire) == kParked; ++i) {
      work = has_work();
      if (!work || i == kClaimGrace) break;
      CpuRelax();
    }
    const bool claimed =
        state_.exchange(kAwake, std::memory_order_acq_rel) != kParked;
    return work && !claimed;
  }

  // Any thread, after publishing work for the owner with a seq_cst
  // operation. Costs one load when the owner is awake.
  void Wake() {
    if (state_.load(std::memory_order_seq_cst) != kParked) return;
    if (state_.exchange(kAwake, std::memory_order_acq_rel) == kParked) {
      FutexWake();
    }
  }

  // True between the owner's park announcement and its wake-up. The
  // owner's announcing store is a release: everything it did before
  // parking happens-before an acquire load that reads true.
  bool parked() const {
    return state_.load(std::memory_order_acquire) == kParked;
  }

 private:
  static constexpr uint32_t kAwake = 0;
  static constexpr uint32_t kParked = 1;
  // Relaxes a timed-out owner with work queued waits for an in-flight
  // Wake: enough to outlast a waker preempted between publish and Wake.
  static constexpr int kClaimGrace = 1024;

  // Sleeps while the word still holds `expected`, for at most `timeout_ns`.
  void FutexWait(uint32_t expected, uint64_t timeout_ns);
  // Wakes the owner if it sleeps on the word.
  void FutexWake();

  // Own cacheline: wakers read it on every publish, and it must not share
  // a line with the data they publish into.
  alignas(64) std::atomic<uint32_t> state_{kAwake};
};

}  // namespace corm

#endif  // CORM_COMMON_PARKER_H_
