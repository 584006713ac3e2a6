// corm-unbounded-wait fixture: suppressed sites. Both the canonical id and
// the legacy NOLINT(corm-spin-wait) alias from rule 5 must work.
#include <atomic>

void JoinBarrier(std::atomic<int>& arrived, int parties) {
  // Startup barrier: all parties are local threads, so a missing arrival
  // means a bug we want to hang loudly on. NOLINT(corm-unbounded-wait)
  while (arrived.load() != parties) {
  }
}

void DrainSequencer(std::atomic<unsigned>& head, unsigned until) {
  while (head.load() < until) {  // NOLINT(corm-spin-wait) test-only drain
  }
}
