// Deterministic fault injection for the simulated fabric.
//
// The substrate consults a process-global FaultInjector (null by default —
// zero overhead in production paths) at *named sites*: the RPC transport
// (drop/delay/duplicate completion), the RNIC data path (QP break), the
// worker write path (torn object publish) and the chaos driver (node
// crash/restart). Each site carries a schedule — fire with probability p,
// fire once at event N, fire every Nth event — and the fire decision is a
// pure function of (injector seed, site name, per-site event index), so an
// identical seed replays an identical fault schedule regardless of thread
// interleaving. No wall clock is involved anywhere; injected delays are
// modeled nanoseconds paced through sim::Pace.

#ifndef CORM_SIM_FAULT_INJECTOR_H_
#define CORM_SIM_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace corm::sim {

// The named injection sites wired into the substrate. Sites are plain
// strings so tests can add private ones without touching this header.
namespace fault_sites {
inline constexpr const char* kRpcDelay = "rpc.delay";
inline constexpr const char* kRpcDropRequest = "rpc.drop_request";
inline constexpr const char* kRpcDropResponse = "rpc.drop_response";
inline constexpr const char* kRpcDupCompletion = "rpc.dup_completion";
inline constexpr const char* kQpBreak = "qp.break";
inline constexpr const char* kTornWrite = "write.torn";
inline constexpr const char* kNodeCrash = "node.crash";
// A worker that receives a compaction Collect message but never answers it
// (stalled collector). Proves the engine's bounded Collect phase converts
// the stall into kTimeout instead of spinning forever.
inline constexpr const char* kCompactionCollectStall =
    "compaction.collect_stall";
// Replicated-log sites (DESIGN.md §11). A dropped ship is a log record that
// never reaches a replica's ingress ring (the shipper's retransmit path
// must fill the sequence gap); an ack delay stalls the one-sided high-water
// read; a seal race ships a stale-epoch record *after* a failover sealed
// the old epoch (the applier's epoch fence must reject it).
inline constexpr const char* kReplShipDrop = "repl.ship_drop";
inline constexpr const char* kReplAckDelay = "repl.ack_delay";
inline constexpr const char* kReplSealRace = "repl.seal_race";
// Forces a keyed lookup to treat its one-sided bucket snapshot as stale,
// driving the kIndexLookup RPC fallback path (DESIGN.md §13): the client
// discards the snapshot exactly as if validation had failed.
inline constexpr const char* kIndexStaleHint = "index.stale_hint";
// Stalls the compaction IndexRepair sub-phase before each repair slice
// (delay_ns), widening the window where bucket entries still hold src
// coordinates while objects sit kCompacting — the interleave the
// lookup-during-compaction tests race against.
inline constexpr const char* kIndexRepairDelay = "index.repair_delay";
// Fails a compaction pair's MergeRemap before it retargets any page. The
// engine must roll the pair back (index entries, copies, source locks) so
// the pair's keys read, write and audit as if it never ran.
inline constexpr const char* kCompactionRemapFail = "compaction.remap_fail";
}  // namespace fault_sites

// When a site fires. All three triggers compose (any match fires).
struct FaultSchedule {
  double probability = 0.0;  // per-event Bernoulli, seed-derived
  uint64_t one_shot_at = 0;  // fire exactly at this 1-based event index
  uint64_t every_nth = 0;    // fire when index % every_nth == 0
  // Payload for delay-style sites (modeled ns); also used by the torn-write
  // site as the extra lock-hold time.
  uint64_t delay_ns = 0;
};

class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed = 1) : seed_(seed) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Arms `site` with `schedule` (replacing any previous schedule but
  // keeping the event counter, so re-arming mid-run cannot replay indices).
  void Arm(const std::string& site, FaultSchedule schedule);
  void Disarm(const std::string& site);

  // Counts one event at `site` and decides whether the fault fires.
  // Unarmed sites are transparent: no counting, never fire. On fire,
  // `delay_ns` (if non-null) receives the schedule's delay payload.
  bool ShouldFire(std::string_view site, uint64_t* delay_ns = nullptr);

  // Observability for tests and the chaos harness.
  uint64_t EventCount(std::string_view site) const;
  uint64_t FiredCount(std::string_view site) const;
  uint64_t seed() const { return seed_; }

 private:
  struct Site {
    FaultSchedule schedule;
    uint64_t name_hash = 0;
    std::atomic<uint64_t> events{0};
    std::atomic<uint64_t> fired{0};
  };

  const uint64_t seed_;
  mutable SharedMutex mu_;  // arm/disarm vs. hot-path lookups
  // The map shape is lock-guarded; the per-Site counters inside are atomics
  // deliberately mutated under the *shared* mode (hot-path counting).
  std::unordered_map<std::string, std::unique_ptr<Site>> sites_
      GUARDED_BY(mu_);
};

// Process-global hook. Returns null when no injector is installed (the
// default); instrumented paths must handle null with zero work.
FaultInjector* GlobalFaultInjector();

// Installs `injector` (or clears with nullptr) and returns the previous
// one. The caller keeps ownership and must uninstall before destroying it.
FaultInjector* SetGlobalFaultInjector(FaultInjector* injector);

// RAII installation for tests: installs in the constructor, restores the
// previous injector in the destructor.
class ScopedFaultInjector {
 public:
  explicit ScopedFaultInjector(FaultInjector* injector)
      : previous_(SetGlobalFaultInjector(injector)) {}
  ~ScopedFaultInjector() { SetGlobalFaultInjector(previous_); }

  ScopedFaultInjector(const ScopedFaultInjector&) = delete;
  ScopedFaultInjector& operator=(const ScopedFaultInjector&) = delete;

 private:
  FaultInjector* const previous_;
};

}  // namespace corm::sim

#endif  // CORM_SIM_FAULT_INJECTOR_H_
