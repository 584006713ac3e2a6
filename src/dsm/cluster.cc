#include "dsm/cluster.h"

#include "common/logging.h"

namespace corm::dsm {

Cluster::Cluster(ClusterConfig config)
    : config_(config),
      detector_(config.num_nodes, config.failure_detector) {
  CORM_CHECK_GT(config_.num_nodes, 0);
  CORM_CHECK_LE(config_.num_nodes, kMaxNodes);
  nodes_.reserve(config_.num_nodes);
  for (int i = 0; i < config_.num_nodes; ++i) {
    core::CormConfig node_config = config_.node_config;
    node_config.seed = config_.node_config.seed + static_cast<uint64_t>(i);
    nodes_.push_back(std::make_unique<core::CormNode>(node_config));
    dead_.push_back(std::make_unique<std::atomic<bool>>(false));
    needs_index_seal_.push_back(std::make_unique<std::atomic<bool>>(false));
  }
  home_.reserve(kKeyRanges);
  for (int r = 0; r < kKeyRanges; ++r) {
    home_.push_back(
        std::make_unique<std::atomic<int>>(r % config_.num_nodes));
  }
}

int Cluster::RehomeDeadNode(int dead) {
  CORM_CHECK_GE(dead, 0);
  CORM_CHECK_LT(dead, num_nodes());
  // Successor scan from the dead node: first node the detector still
  // trusts inherits the range. With every other node dead too there is
  // nowhere to go — the ranges stay put and keep erroring transiently.
  int successor = -1;
  for (int step = 1; step < num_nodes(); ++step) {
    const int candidate = (dead + step) % num_nodes();
    if (!IsDead(candidate) && detector_.MaybeServing(candidate)) {
      successor = candidate;
      break;
    }
  }
  if (successor < 0) return 0;
  int moved = 0;
  for (int r = 0; r < kKeyRanges; ++r) {
    int cur = dead;
    if (home_[r]->compare_exchange_strong(cur, successor,
                                          std::memory_order_acq_rel)) {
      ++moved;
      // The rehome lands on the inheriting node's books.
      nodes_[successor]->client_stat_shard().index_rehomes.Add(1);
    }
  }
  if (moved > 0) {
    // The dead node may revive holding pre-crash bucket entries for ranges
    // it no longer owns: fence them at restart via an index epoch seal.
    needs_index_seal_[dead]->store(true, std::memory_order_release);
  }
  return moved;
}

int Cluster::PickNode() {
  switch (config_.placement) {
    case Placement::kRoundRobin:
      break;
    case Placement::kLeastLoaded: {
      int best = -1;
      uint64_t best_bytes = UINT64_MAX;
      for (int i = 0; i < num_nodes(); ++i) {
        if (!detector_.Serving(i)) continue;
        const uint64_t bytes = nodes_[i]->ActiveMemoryBytes();
        if (bytes < best_bytes) {
          best_bytes = bytes;
          best = i;
        }
      }
      if (best >= 0) return best;
      break;  // everything suspect/dead: fall through to round robin
    }
  }
  // Round robin over nodes the detector trusts.
  for (int attempt = 0; attempt < num_nodes(); ++attempt) {
    const int idx = static_cast<int>(
        rr_.fetch_add(1, std::memory_order_relaxed) %
        static_cast<uint64_t>(num_nodes()));
    if (detector_.Serving(idx)) return idx;
  }
  // No node fully trusted: fall back to any not-known-dead node so the op
  // can still be attempted (the attempt itself feeds the detector).
  for (int attempt = 0; attempt < num_nodes(); ++attempt) {
    const int idx = static_cast<int>(
        rr_.fetch_add(1, std::memory_order_relaxed) %
        static_cast<uint64_t>(num_nodes()));
    if (detector_.MaybeServing(idx)) return idx;
  }
  return 0;  // all nodes dead; the op will fail with kNetworkError
}

int Cluster::Heartbeat() {
  int healthy = 0;
  for (int i = 0; i < num_nodes(); ++i) {
    // The probe models a heartbeat RPC: it needs the node reachable (the
    // network half) and its workers serving requests (the process half).
    const bool responsive = !IsDead(i) && nodes_[i]->IsServingRequests();
    if (responsive) {
      detector_.ReportSuccess(i);  // lease renewed (auto-revive)
      ++healthy;
    } else {
      detector_.ReportFailure(i);
    }
  }
  return healthy;
}

Result<std::vector<core::CompactionReport>>
Cluster::CompactAllIfFragmented() {
  // Compaction is node-local (§3.1), so every node's leader runs at once:
  // post on each serving node first, then wait on all of them.
  std::vector<core::PendingCompaction> runs;
  for (int i = 0; i < num_nodes(); ++i) {
    // Skip nodes the detector distrusts, plus a direct serving check: the
    // sweep waits on the node's workers, so posting to a paused node would
    // stall the whole cluster sweep even if the detector has not caught up.
    if (!detector_.MaybeServing(i)) continue;
    if (IsDead(i) || !nodes_[i]->IsServingRequests()) continue;
    for (auto& run : nodes_[i]->PostCompactIfFragmented()) {
      runs.push_back(std::move(run));
    }
  }
  return core::WaitCompactions(std::move(runs));
}

void Cluster::StartBackgroundCompaction() {
  for (auto& node : nodes_) node->StartBackgroundCompaction();
}

void Cluster::StopBackgroundCompaction() {
  for (auto& node : nodes_) node->StopBackgroundCompaction();
}

void Cluster::CrashNode(int idx) {
  nodes_[idx]->PauseService();
  KillNode(idx);
}

void Cluster::RestartNode(int idx) {
  // Connection reset: every request queued while the node was down is
  // dropped, completing with kNetworkError so abandoned (timed-out) client
  // messages are released and never replayed against the restarted node.
  while (rdma::RpcMessage* stale = nodes_[idx]->rpc_queue()->Poll()) {
    stale->status = Status::NetworkError("node restarted; request dropped");
    stale->done.store(true, std::memory_order_release);
    stale->Unref();
  }
  nodes_[idx]->ResumeService();
  if (needs_index_seal_[idx]->exchange(false, std::memory_order_acq_rel)) {
    // The node lost key ranges while it was down (RehomeDeadNode): seal its
    // index epoch so every surviving bucket entry is fenced — a one-sided
    // probe that matches one must revalidate through the RPC lookup, which
    // re-mints it under the new epoch (PR-7 seal machinery applied to the
    // keyed lookup path).
    nodes_[idx]->SealIndexEpoch();
  }
  dead_[idx]->store(false, std::memory_order_release);
  // Deliberately no detector_.Reset: the node rejoins via lease renewal on
  // the next Heartbeat round.
}

uint64_t Cluster::TotalActiveMemoryBytes() const {
  uint64_t total = 0;
  for (const auto& node : nodes_) total += node->ActiveMemoryBytes();
  return total;
}

uint64_t Cluster::TotalVirtualMemoryBytes() const {
  uint64_t total = 0;
  for (const auto& node : nodes_) total += node->VirtualMemoryBytes();
  return total;
}

}  // namespace corm::dsm
