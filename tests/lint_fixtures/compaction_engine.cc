// Rule-8 strict-mode fixture. The file NAME is the trigger: corm-tidy treats
// any path containing compaction_engine.cc as the engine itself, where
// NOLINT is not honored, sleeps are banned, and stop flags do not count as
// bounds — phase handlers poll once and re-enter on the next slice.
// EXPECT-LINE 22: corm-unbounded-wait
// EXPECT-LINE 27: corm-unbounded-wait
// EXPECT-LINE 28: corm-unbounded-wait
// EXPECT-LINE 33: corm-unbounded-wait
// EXPECT-LINE 34: corm-unbounded-wait
// EXPECT-LINE 40: corm-unbounded-wait
#include <atomic>
#include <chrono>
#include <thread>

struct Slice {
  std::atomic<bool> drained{false};
};

void PhaseWaitForReaders(std::atomic<int>& readers) {
  // A stop flag would bound this anywhere else; not inside the engine.
  std::atomic<bool> stop_requested{false};
  while (readers.load() != 0 && !stop_requested.load()) {  // fires: strict
  }
}

void PhaseWaitSuppressed(std::atomic<bool>& drained) {
  // Attempted escape; strict mode flags the marker itself. NOLINT(corm-unbounded-wait)
  while (!drained.load()) {
  }
}

void PhaseWaitLegacyAlias(Slice* s) {
  // The rule-5 alias is no escape either. NOLINT(corm-spin-wait)
  while (!s->drained.load()) {
  }
}

void PhaseBackoff() {
  // sleep_for inside a phase handler burns the compaction budget blind.
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
}
