#include "common/parker.h"

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <ctime>
#else
#include <chrono>
#include <thread>
#endif

namespace corm {

static_assert(sizeof(std::atomic<uint32_t>) == sizeof(uint32_t) &&
                  std::atomic<uint32_t>::is_always_lock_free,
              "the futex syscall operates on the atomic's own 32-bit word");

#if defined(__linux__)

void Parker::FutexWait(uint32_t expected, uint64_t timeout_ns) {
  timespec timeout;
  timeout.tv_sec = static_cast<time_t>(timeout_ns / 1'000'000'000);
  timeout.tv_nsec = static_cast<long>(timeout_ns % 1'000'000'000);
  // EAGAIN (the word already changed), EINTR and ETIMEDOUT all simply
  // return: the caller reads the word to learn whether it was woken.
  syscall(SYS_futex, reinterpret_cast<uint32_t*>(&state_), FUTEX_WAIT_PRIVATE,
          expected, &timeout, nullptr, 0);
}

void Parker::FutexWake() {
  syscall(SYS_futex, reinterpret_cast<uint32_t*>(&state_), FUTEX_WAKE_PRIVATE,
          1, nullptr, nullptr, 0);
}

#else

// No futex: sleep out the timeout. Wakes are then bounded by it alone.
void Parker::FutexWait(uint32_t expected, uint64_t timeout_ns) {
  if (state_.load(std::memory_order_acquire) != expected) return;
  std::this_thread::sleep_for(std::chrono::nanoseconds(timeout_ns));
}

void Parker::FutexWake() {}

#endif

}  // namespace corm
