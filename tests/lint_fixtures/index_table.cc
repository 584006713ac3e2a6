// Rule-8 strict-mode fixture for the keyed index's bucket seq-lock. The file
// NAME is the trigger: corm-tidy treats any path containing index_table.cc
// as strict. Serving workers and the compaction engine's IndexRepair both
// take bucket locks, so a wait there must give up at a Deadline: sleeps are
// banned, stop flags do not count, and NOLINT is not honored.
// EXPECT-LINE 44: corm-unbounded-wait
// EXPECT-LINE 49: corm-unbounded-wait
// EXPECT-LINE 50: corm-unbounded-wait
// EXPECT-LINE 56: corm-unbounded-wait
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

struct Deadline {
  explicit Deadline(uint64_t ns) : ns_(ns) {}
  bool Expired() const { return ns_ == 0; }
  uint64_t ns_;
};

// The real LockBucket: a CAS loop that gives up at its Deadline. Passes.
bool LockBucket(std::atomic<uint64_t>& seq) {
  const Deadline deadline(100'000);
  for (;;) {
    uint64_t cur = seq.load(std::memory_order_acquire);
    if ((cur & 1) == 0 && seq.compare_exchange_weak(cur, cur + 1)) {
      return true;
    }
    if (deadline.Expired()) return false;
  }
}

// The same wait as a while loop, its Deadline checked in the body. Passes.
bool AwaitBucketEven(std::atomic<uint64_t>& seq) {
  const Deadline deadline(100'000);
  while ((seq.load() & 1) != 0) {
    if (deadline.Expired()) return false;
  }
  return true;
}

void AwaitBucketForever(std::atomic<uint64_t>& seq) {
  std::atomic<bool> stop_requested{false};  // stop flags don't bound strict
  while ((seq.load() & 1) != 0 && !stop_requested.load()) {
  }
}

void AwaitBucketSuppressed(std::atomic<uint64_t>& seq) {
  // Attempted escape; strict mode flags the marker itself. NOLINT(corm-unbounded-wait)
  while ((seq.load() & 1) != 0) {
  }
}

void BucketBackoff() {
  // A sleeping bucket writer stalls every Get probing that bucket.
  std::this_thread::sleep_for(std::chrono::microseconds(50));
}
