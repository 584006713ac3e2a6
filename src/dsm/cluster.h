// Cluster: multiple CoRM memory nodes composed into one distributed shared
// memory (the paper's deployment setting, §1-§2: "the memory of multiple
// different physical nodes is viewed as a single unified memory space").
//
// Each node is a full CormNode (own substrate, workers, RNIC); the node id
// a pointer belongs to travels in the upper bits of the 128-bit pointer's
// flags byte, so DSM pointers remain 128 bits and keep working across
// compactions on their home node.
//
// Failure handling: the cluster runs a heartbeat/lease failure detector.
// Heartbeat() probes every node (reachability + whether its workers are
// serving) and feeds per-node miss counters; consecutive misses escalate
// a node from alive to suspect to dead, and a single successful probe (a
// lease renewal) revives it. Placement (PickNode), cluster-wide compaction
// and the replication layer consult the detector instead of polling the
// raw reachability flag, so suspicion spreads without every caller
// re-probing a dead node.

#ifndef CORM_DSM_CLUSTER_H_
#define CORM_DSM_CLUSTER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "core/corm_node.h"
#include "index/index_layout.h"

namespace corm::dsm {

// Bits 1..7 of GlobalAddr::flags carry the owning node id (bit 0 remains
// the kFlagOldBlock notification bit). 127 nodes suffice for the rack-scale
// deployments the paper targets.
inline constexpr int kMaxNodes = 127;

inline int NodeOf(const core::GlobalAddr& addr) { return addr.flags >> 1; }

inline void SetNode(core::GlobalAddr* addr, int node) {
  addr->flags = static_cast<uint8_t>((addr->flags & 0x1) |
                                     (static_cast<uint8_t>(node) << 1));
}

// Hash ranges the keyed address space is partitioned into (DESIGN.md §13).
// Each range has one sticky home node; a key's range never changes, and a
// range moves only through an explicit RehomeDeadNode — never silently on a
// failed probe, because moving a live range abandons its acked data.
inline constexpr int kKeyRanges = 64;

inline int KeyRangeOf(uint64_t key) {
  return static_cast<int>(index::MixKey(key) % kKeyRanges);
}

// Object placement policy for new allocations.
enum class Placement {
  kRoundRobin,    // spread allocations uniformly
  kLeastLoaded,   // place on the node with the least active memory
};

// Detector verdict for one node.
enum class NodeHealth {
  kAlive,    // lease current
  kSuspect,  // missed heartbeats; stop placing new data here
  kDead,     // lease expired; fail over reads, skip writes/compaction
};

struct FailureDetectorConfig {
  // Consecutive missed heartbeats before a node turns suspect / dead.
  int suspect_after = 1;
  int dead_after = 3;
};

// Lease-style failure detector over heartbeat outcomes. Lock-free: health
// is derived from a per-node miss counter, so probes and readers never
// serialize. ReportSuccess models a lease renewal and revives the node
// instantly; KillNode/ReviveNode-style shims jump states via MarkDead /
// Reset without waiting for probes.
class FailureDetector {
 public:
  FailureDetector(int num_nodes, FailureDetectorConfig config)
      : config_(config), misses_(num_nodes) {
    for (auto& m : misses_) m = std::make_unique<std::atomic<int>>(0);
  }

  void ReportSuccess(int node) {
    if (misses_[node]->exchange(0, std::memory_order_acq_rel) >=
        config_.dead_after) {
      revivals_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void ReportFailure(int node) {
    const int before = misses_[node]->fetch_add(1, std::memory_order_acq_rel);
    if (before + 1 == config_.dead_after) {
      deaths_.fetch_add(1, std::memory_order_relaxed);
    }
    // Cap so a long outage cannot overflow (and revival stays O(1)).
    if (before > config_.dead_after * 1024) {
      misses_[node]->store(config_.dead_after, std::memory_order_release);
    }
  }

  // Test-shim escalation: jump straight to dead / back to alive.
  void MarkDead(int node) {
    misses_[node]->store(config_.dead_after, std::memory_order_release);
  }
  void Reset(int node) { misses_[node]->store(0, std::memory_order_release); }

  NodeHealth health(int node) const {
    const int m = misses_[node]->load(std::memory_order_acquire);
    if (m >= config_.dead_after) return NodeHealth::kDead;
    if (m >= config_.suspect_after) return NodeHealth::kSuspect;
    return NodeHealth::kAlive;
  }

  // Placement predicate: only fully-alive nodes take new data.
  bool Serving(int node) const { return health(node) == NodeHealth::kAlive; }
  // Data-path predicate: suspect nodes are still tried (the detector may
  // simply be behind), dead ones are skipped.
  bool MaybeServing(int node) const {
    return health(node) != NodeHealth::kDead;
  }

  uint64_t deaths() const { return deaths_.load(std::memory_order_relaxed); }
  uint64_t revivals() const {
    return revivals_.load(std::memory_order_relaxed);
  }

 private:
  // Deliberately lock-free, so no GUARDED_BY applies: each lease is one
  // atomic miss counter, health() is a pure function of a single load, and
  // the exchange/fetch_add transitions make the death/revival edge counters
  // exact without ever serializing probes against readers.
  const FailureDetectorConfig config_;
  std::vector<std::unique_ptr<std::atomic<int>>> misses_;
  std::atomic<uint64_t> deaths_{0};
  std::atomic<uint64_t> revivals_{0};
};

struct ClusterConfig {
  int num_nodes = 4;
  core::CormConfig node_config;  // applied to every node
  Placement placement = Placement::kRoundRobin;
  FailureDetectorConfig failure_detector;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  core::CormNode* node(int idx) { return nodes_[idx].get(); }
  const ClusterConfig& config() const { return config_; }

  // Picks a node for a new allocation per the placement policy; nodes the
  // failure detector distrusts are skipped.
  int PickNode();

  // --- Keyed routing (DESIGN.md §13). ------------------------------------
  // Home node of `key`'s hash range. Sticky: a dead home keeps the range
  // (keyed ops answer with transient kNetworkError) until RehomeDeadNode
  // explicitly moves it — auto-rehoming on suspicion would silently strand
  // the acked writes living on a node that was merely slow.
  int KeyOwner(uint64_t key) const {
    return home_[KeyRangeOf(key)]->load(std::memory_order_acquire);
  }
  // Control-plane failover: reassigns every range homed on `dead` to the
  // next trusted node (successor scan), counting one index_rehomes per
  // moved range on its new home. Also arms the seal-on-revive flag: when
  // `dead` later restarts, its index epoch is sealed so every pre-crash
  // bucket entry is fenced and must re-mint through the RPC lookup path.
  // Returns the number of ranges moved.
  int RehomeDeadNode(int dead);

  // --- Failure detection. ------------------------------------------------
  FailureDetector* failure_detector() { return &detector_; }
  const FailureDetector& failure_detector() const { return detector_; }

  // One heartbeat round: probes every node (reachable and serving?) and
  // reports the outcome to the detector. A successful probe renews the
  // node's lease — which auto-revives a previously dead node. Returns the
  // number of nodes whose probe succeeded.
  int Heartbeat();

  // --- Cluster-wide control plane. ---------------------------------------
  // Runs the §3.1.3 fragmentation policy on every node the failure
  // detector trusts; faulted nodes are skipped cleanly. The nodes compact
  // concurrently: the sweep posts each node's runs to its leader, then
  // waits on all of them, so it takes about as long as the slowest node
  // rather than the sum. A failing run does not stop the other nodes; the
  // first error (kNotSupported classes aside) is returned once every run
  // is done, and reports come in node order, then class order. With
  // background compaction running, this is only needed as an explicit
  // synchronous sweep (benches measuring a specific pass; tests forcing a
  // round).
  Result<std::vector<core::CompactionReport>> CompactAllIfFragmented();

  // Starts/stops every node's duty-cycled compaction scheduler (the
  // continuous replacement for periodic CompactAllIfFragmented sweeps;
  // nodes constructed with node_config.background_compaction start theirs
  // automatically).
  void StartBackgroundCompaction();
  void StopBackgroundCompaction();
  uint64_t TotalActiveMemoryBytes() const;
  uint64_t TotalVirtualMemoryBytes() const;

  // --- Failure injection (test-only shims; chaos uses Crash/Restart). ----
  // Marks a node unreachable: subsequent DSM operations to it fail with
  // kNetworkError. The node process itself keeps running (the paper's
  // fault model assumes full-process failure; we only need the
  // reachability half to exercise client failover). The detector is
  // informed synchronously so placement avoids the node immediately —
  // these two shims are deliberate test back-doors, not the production
  // path (which is Heartbeat-driven).
  void KillNode(int idx) {
    dead_[idx]->store(true, std::memory_order_release);
    detector_.MarkDead(idx);
  }
  void ReviveNode(int idx) {
    dead_[idx]->store(false, std::memory_order_release);
    detector_.Reset(idx);
  }
  bool IsDead(int idx) const {
    return dead_[idx]->load(std::memory_order_acquire);
  }

  // Full crash (chaos harness): unreachable AND not serving — requests
  // already queued on the node stall, so clients with in-flight RPCs see
  // kTimeout rather than an error completion.
  void CrashNode(int idx);
  // Restart after a crash: drops every request that was queued while the
  // node was down (completing each with kNetworkError, as a connection
  // reset would), then restores reachability and service. The detector is
  // NOT reset — the node rejoins when a heartbeat renews its lease, which
  // is exactly the auto-revive path.
  void RestartNode(int idx);

 private:
  const ClusterConfig config_;
  std::vector<std::unique_ptr<core::CormNode>> nodes_;
  std::vector<std::unique_ptr<std::atomic<bool>>> dead_;
  FailureDetector detector_;
  std::atomic<uint64_t> rr_{0};
  // Keyed hash-range homes (kKeyRanges entries, init range % num_nodes)
  // and the per-node seal-on-revive flags RehomeDeadNode arms.
  std::vector<std::unique_ptr<std::atomic<int>>> home_;
  std::vector<std::unique_ptr<std::atomic<bool>>> needs_index_seal_;
};

}  // namespace corm::dsm

#endif  // CORM_DSM_CLUSTER_H_
