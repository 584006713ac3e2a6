#include "dsm/replication.h"

#include <algorithm>
#include <cstring>
#include <set>
#include <utility>

#include "common/logging.h"
#include "common/retry.h"
#include "core/addr.h"
#include "sim/fault_injector.h"
#include "sim/latency_model.h"

namespace corm::dsm {

namespace {

// Modeled gap between quorum ack polls: long enough that a poll usually
// observes progress (one apply is ~a ring drain away), short enough that
// the ack latency is dominated by the replica, not the poller.
constexpr uint64_t kQuorumPollGapNs = 400;
// Quorum rounds between retransmissions of the unacked window.
constexpr int kQuorumRetransmitEvery = 8;
// Sweep attempts before a repair task is dropped (the next degraded op on
// the object re-enqueues it, so dropping loses nothing permanent).
constexpr int kMaxRepairAttempts = 5;
// Repairs attempted per anti-entropy sweep tick.
constexpr size_t kAntiEntropyBudget = 8;
// Bounded repair backlog; excess enqueues are dropped (the next degraded
// op re-enqueues).
constexpr size_t kMaxPendingRepairs = 1024;

// A replica attempt that failed with one of these is a node problem, not a
// data problem: the caller should try the next replica.
bool FailoverWorthy(const Status& st) {
  return st.code() == StatusCode::kNetworkError ||
         st.code() == StatusCode::kTimeout;
}

// A replica node the failure detector currently trusts enough to ship to.
bool ReplicaLive(const Cluster& cluster, int node) {
  return !cluster.IsDead(node) &&
         cluster.failure_detector().MaybeServing(node);
}

void AddrBytes(const core::GlobalAddr& addr, uint8_t out[16]) {
  static_assert(sizeof(core::GlobalAddr) == 16, "GlobalAddr wire size");
  std::memcpy(out, &addr, sizeof(core::GlobalAddr));
}

}  // namespace

ReplicatedContext::ReplicatedContext(Cluster* cluster, int replication_factor,
                                     const core::Context::Options& options,
                                     const ReplicationOptions& repl_options)
    : dsm_(cluster, options),
      k_(replication_factor),
      client_options_(options),
      options_(repl_options),
      session_for_node_(cluster->num_nodes(), -1) {
  CORM_CHECK_GT(k_, 0);
  CORM_CHECK_LE(k_, cluster->num_nodes());
}

ReplicatedContext::~ReplicatedContext() { StopAntiEntropy(); }

uint64_t ReplicatedContext::QuorumDeadlineNs() const {
  return options_.quorum_deadline_ns != 0
             ? options_.quorum_deadline_ns
             : client_options_.rpc_retry.deadline_ns;
}

core::NodeStatShard& ReplicatedContext::PrimaryShard(
    const ReplicatedAddr& addr) {
  return dsm_.cluster()->node(NodeOf(addr.primary()))->client_stat_shard();
}

int ReplicatedContext::SessionFor(int node) {
  if (session_for_node_[node] >= 0) return session_for_node_[node];
  auto coords = dsm_.cluster()->node(node)->CreateReplIngress(
      options_.ring_slots, options_.ring_slot_bytes);
  if (!coords.ok()) return -1;
  session_for_node_[node] =
      shipper_.AddSession(dsm_.cluster()->node(node)->rnic(), coords->base,
                          coords->r_key, coords->slots, coords->slot_bytes,
                          coords->drainer);
  return session_for_node_[node];
}

int ReplicatedContext::RepairSessionFor(int node) {
  if (repair_session_for_node_[node] >= 0)
    return repair_session_for_node_[node];
  auto coords = dsm_.cluster()->node(node)->CreateReplIngress(
      options_.ring_slots, options_.ring_slot_bytes);
  if (!coords.ok()) return -1;
  repair_session_for_node_[node] = repair_shipper_->AddSession(
      dsm_.cluster()->node(node)->rnic(), coords->base, coords->r_key,
      coords->slots, coords->slot_bytes, coords->drainer);
  return repair_session_for_node_[node];
}

void ReplicatedContext::BuildImage(Buffer* out, uint32_t epoch,
                                   uint64_t version, const void* buf,
                                   size_t size) {
  out->resize(sizeof(rdma::ReplObjectHeader) + size);
  rdma::ReplObjectHeader h;
  h.epoch = epoch;
  h.version = version;
  h.len = static_cast<uint32_t>(size);
  h.crc = rdma::ReplObjectCrc(version, buf, size);
  std::memcpy(out->data(), &h, sizeof(h));
  if (size != 0) std::memcpy(out->data() + sizeof(h), buf, size);
}

Status ReplicatedContext::ShipImage(rdma::ReplicaLogShipper* shipper,
                                    int session, DsmContext* dsm,
                                    core::GlobalAddr* replica, uint32_t epoch,
                                    uint64_t version, const Buffer& image,
                                    uint64_t* seq) {
  if (session >= 0 && image.size() <= shipper->capacity(session)) {
    uint8_t ab[16];
    AddrBytes(*replica, ab);
    CORM_ASSIGN_OR_RETURN(
        *seq, shipper->Ship(session, rdma::kReplRecordData, epoch, version, ab,
                            Slice(image.data(), image.size())));
    return Status::OK();
  }
  // RPC fallback: the image exceeds the ring slot (or the session could not
  // be opened). A server-side write is durably applied when it returns, so
  // the caller treats sequence 0 as already acked. The whole image —
  // ReplObjectHeader included — is the stored payload, exactly as the log
  // applier would have written it.
  *seq = 0;
  return dsm->Write(replica, image.data(), image.size());
}

Result<ReplicatedAddr> ReplicatedContext::Alloc(size_t size) {
  ReplicatedAddr addr;
  addr.size = static_cast<uint32_t>(size);
  std::set<int> used;
  const FailureDetector& detector = *dsm_.cluster()->failure_detector();
  // Place each replica on a distinct node the detector trusts.
  for (int r = 0; r < k_; ++r) {
    int node = -1;
    for (int attempt = 0; attempt < 4 * dsm_.cluster()->num_nodes();
         ++attempt) {
      const int candidate = dsm_.cluster()->PickNode();
      if (!used.count(candidate) && detector.Serving(candidate)) {
        node = candidate;
        break;
      }
    }
    if (node < 0) {
      // Unwind partial placement.
      for (auto& replica : addr.replicas) dsm_.Free(&replica).ok();
      return Status::NetworkError("not enough live nodes for replication");
    }
    used.insert(node);
    auto replica = dsm_.AllocOn(node, size + sizeof(rdma::ReplObjectHeader));
    if (!replica.ok()) {
      for (auto& r2 : addr.replicas) dsm_.Free(&r2).ok();
      return replica.status();
    }
    addr.replicas.push_back(*replica);
  }
  // Initialize every replica with a well-formed empty image (epoch 1,
  // version 0) so appliers and readers always parse a valid stored header —
  // a raw slot would make the first epoch fence and the first
  // read-validation undefined.
  BuildImage(&image_scratch_, addr.epoch, 0, nullptr, 0);
  for (auto& replica : addr.replicas) {
    Status st =
        dsm_.Write(&replica, image_scratch_.data(), image_scratch_.size());
    if (!st.ok()) {
      for (auto& r2 : addr.replicas) dsm_.Free(&r2).ok();
      return st;
    }
  }
  return addr;
}

Status ReplicatedContext::Write(ReplicatedAddr* addr, const void* buf,
                                size_t size) {
  if (addr->IsNull()) return Status::InvalidArgument("null replicated addr");
  if (size > addr->size)
    return Status::InvalidArgument("write exceeds replicated object size");
  Cluster& cluster = *dsm_.cluster();
  uint64_t fallback_ns = 0;

  // A dead primary fails over first, so the new epoch is sealed before this
  // write's records enter any ring.
  if (!ReplicaLive(cluster, NodeOf(addr->primary()))) {
    CORM_RETURN_NOT_OK(Failover(addr));
  }

  // The version is consumed even if the write later fails: a replica may
  // already hold a record carrying it, so a retry must never reuse it.
  const uint64_t version = ++addr->next_version;
  BuildImage(&image_scratch_, addr->epoch, version, buf, size);
  core::NodeStatShard& shard = PrimaryShard(*addr);

  struct Pending {
    size_t r = 0;
    int session = -1;
    uint64_t seq = 0;
    uint64_t ship_ns = 0;  // modeled cost of this replica's record write
    bool done = false;
  };
  std::vector<Pending> pending;
  pending.reserve(addr->replicas.size());
  bool any_durable = false;
  bool degraded = false;

  for (size_t r = 0; r < addr->replicas.size(); ++r) {
    const int node = NodeOf(addr->replicas[r]);
    if (!ReplicaLive(cluster, node)) {
      degraded = true;
      continue;
    }
    const int session = SessionFor(node);
    uint64_t seq = 0;
    const uint64_t replica_ns0 = shipper_.modeled_ns();
    Status st = ShipImage(&shipper_, session, &dsm_, &addr->replicas[r],
                          addr->epoch, version, image_scratch_, &seq);
    if (!st.ok()) {
      if (FailoverWorthy(st)) {
        degraded = true;
        continue;
      }
      return st;
    }
    ++shard.repl_ship_records;
    if (seq == 0) {
      // RPC fallback: already applied server-side.
      any_durable = true;
      fallback_ns = std::max(
          fallback_ns,
          dsm_.context(NodeOf(addr->replicas[r]))->stats().last_op_ns);
    } else {
      pending.push_back(Pending{r, session, seq,
                                shipper_.modeled_ns() - replica_ns0, false});
    }
  }

  // Quorum ack: every still-live replica we shipped to must have applied
  // the record. Replicas that die mid-wait drop out of the quorum (their
  // copy is repaired by anti-entropy); the ack still requires at least one
  // durable copy.
  Deadline deadline(QuorumDeadlineNs());
  size_t open = pending.size();
  int round = 0;
  uint64_t ack_ns = 0;
  std::vector<int> poll_sessions;
  poll_sessions.reserve(pending.size());
  while (open > 0 && !deadline.Expired()) {
    poll_sessions.clear();
    for (auto& p : pending) {
      if (p.done) continue;
      if (!ReplicaLive(cluster, NodeOf(addr->replicas[p.r]))) {
        p.done = true;
        --open;
        degraded = true;
        continue;
      }
      poll_sessions.push_back(p.session);
    }
    if (poll_sessions.empty()) break;
    // Coalesced high-water poll (DESIGN.md §12): every open replica's
    // applied_seq word is fetched in one chained post over the sessions'
    // shared CQ — one doorbell + one completion per round instead of one
    // full round trip per replica.
    const uint64_t poll_ns0 = shipper_.modeled_ns();
    if (shipper_.ReadAppliedBatch(poll_sessions.data(), poll_sessions.size())
            .ok()) {
      ++shard.doorbell_batches;
      shard.doorbell_batched_wrs += poll_sessions.size();
    }
    const uint64_t round_poll_ns = shipper_.modeled_ns() - poll_ns0;
    for (auto& p : pending) {
      if (p.done) continue;
      if (shipper_.acked(p.session) >= p.seq) {
        p.done = true;
        --open;
        any_durable = true;
        // Per-replica op cost = its record write + the chained high-water
        // poll that *observed* the ack. The fan-out is concurrent (the
        // writer posts every replica's WRITE back to back) and the
        // intermediate poll count is a wall-clock artifact of running
        // applier threads at host speed, so the write's modeled latency is
        // the slowest replica's write+ack pair — not the sum of every poll.
        ack_ns = std::max(ack_ns, p.ship_ns + round_poll_ns);
      }
    }
    if (open == 0) break;
    if (++round % kQuorumRetransmitEvery == 0) {
      for (auto& p : pending) {
        if (!p.done) shipper_.Retransmit(p.session).ok();
      }
    }
    sim::Pace(kQuorumPollGapNs);
  }

  if (degraded) {
    ++degraded_writes_;
    ++shard.repl_degraded_writes;
    EnqueueRepair(*addr);
  }
  last_op_ns_ = std::max(ack_ns, fallback_ns);
  if (open > 0) {
    // UNCERTAIN: some replica may yet apply the record. `committed` did not
    // advance, so readers are never forced to accept this version, and the
    // drawn version is burned so a retry cannot collide with it.
    ++quorum_timeouts_;
    ++shard.repl_quorum_timeouts;
    EnqueueRepair(*addr);
    return Status::Timeout("replication quorum not reached");
  }
  if (!any_durable) {
    EnqueueRepair(*addr);
    return Status::NetworkError("no live replica accepted the write");
  }
  addr->committed = version;
  ++acked_writes_;
  ++shard.repl_acked_writes;
  return Status::OK();
}

Status ReplicatedContext::Read(ReplicatedAddr* addr, void* buf, size_t size) {
  if (addr->IsNull()) return Status::InvalidArgument("null replicated addr");
  if (size > addr->size)
    return Status::InvalidArgument("read exceeds replicated object size");
  Cluster& cluster = *dsm_.cluster();
  const size_t image_len = sizeof(rdma::ReplObjectHeader) + addr->size;
  read_scratch_.resize(image_len);

  Status last = Status::NetworkError("no replicas");
  bool failed_over = false;
  for (size_t r = 0; r < addr->replicas.size(); ++r) {
    const bool last_replica = (r + 1 == addr->replicas.size());
    // Detector-first: skip replicas already declared dead instead of
    // burning a timeout on each — unless every replica is distrusted, in
    // which case the last one is attempted anyway as a best effort.
    if (!last_replica && !ReplicaLive(cluster, NodeOf(addr->replicas[r]))) {
      failed_over = true;
      last = Status::NetworkError("replica presumed dead");
      continue;
    }
    Status st = dsm_.ReadWithRecovery(&addr->replicas[r], read_scratch_.data(),
                                      image_len);
    if (!st.ok()) {
      last = st;
      if (FailoverWorthy(st) || st.code() == StatusCode::kTornRead) {
        failed_over = true;
        continue;
      }
      return st;
    }
    rdma::ReplObjectHeader h;
    std::memcpy(&h, read_scratch_.data(), sizeof(h));
    const uint8_t* payload = read_scratch_.data() + sizeof(h);
    // An acked write can never be un-read: the copy must checksum AND be at
    // least as new as the acked high-water mark. (A version beyond
    // `committed` is an applied-but-unacked write from this same owner —
    // newer data, safe to serve.)
    const bool valid = h.len <= addr->size &&
                       rdma::ReplObjectValid(h, payload) &&
                       h.version >= addr->committed;
    if (!valid) {
      ++stale_reads_;
      ++PrimaryShard(*addr).repl_stale_reads;
      EnqueueRepair(*addr);
      last = Status::TornRead("replica image stale or torn");
      failed_over = true;
      continue;
    }
    // Valid data under a lagging epoch: serve it, but queue a repair so the
    // seal converges.
    if (h.epoch < addr->epoch) EnqueueRepair(*addr);
    const size_t n = std::min<size_t>(size, h.len);
    std::memcpy(buf, payload, n);
    // Bytes never written read as zero (the image starts life empty).
    if (size > n) std::memset(static_cast<uint8_t*>(buf) + n, 0, size - n);
    if (failed_over) ++failovers_;
    return Status::OK();
  }
  return last;
}

Status ReplicatedContext::Free(ReplicatedAddr* addr) {
  Status result;
  for (auto& replica : addr->replicas) {
    Status st = dsm_.Free(&replica);
    // Unreachable replicas leak until re-replication; report the first
    // hard error otherwise.
    if (!st.ok() && !FailoverWorthy(st) && result.ok()) {
      result = st;
    }
  }
  addr->replicas.clear();
  return result;
}

Status ReplicatedContext::Failover(ReplicatedAddr* addr) {
  if (addr->IsNull()) return Status::InvalidArgument("null replicated addr");
  Cluster& cluster = *dsm_.cluster();

  // Rotate the first live replica to primary.
  int live = -1;
  for (size_t r = 0; r < addr->replicas.size(); ++r) {
    if (ReplicaLive(cluster, NodeOf(addr->replicas[r]))) {
      live = static_cast<int>(r);
      break;
    }
  }
  if (live < 0) return Status::NetworkError("no live replica to fail over to");
  if (live != 0) {
    std::rotate(addr->replicas.begin(), addr->replicas.begin() + live,
                addr->replicas.end());
  }
  const uint32_t old_epoch = addr->epoch;
  addr->epoch += 1;
  ++failovers_;
  ++seals_;
  core::NodeStatShard& shard = PrimaryShard(*addr);
  ++shard.repl_failovers;
  ++shard.repl_seals;

  // Seal the new epoch on every live replica: once the seal applies, any
  // record still in flight under the old epoch is fenced at apply time.
  Deadline deadline(QuorumDeadlineNs());
  struct SealWait {
    int session = -1;
    uint64_t seq = 0;
  };
  std::vector<SealWait> seals;
  for (auto& replica : addr->replicas) {
    const int node = NodeOf(replica);
    if (!ReplicaLive(cluster, node)) continue;
    const int session = SessionFor(node);
    if (session < 0) continue;
    uint8_t ab[16];
    AddrBytes(replica, ab);
    auto seq = shipper_.Ship(session, rdma::kReplRecordSeal, addr->epoch,
                             /*version=*/0, ab, Slice());
    if (seq.ok()) seals.push_back(SealWait{session, *seq});
  }
  for (auto& s : seals) {
    // Best effort within the deadline: a replica that misses the seal is
    // converged by anti-entropy, and its stale-epoch records still lose to
    // newer versions on apply.
    shipper_.AwaitApplied(s.session, s.seq, deadline).ok();
  }

  // Fault site repl.seal_race: model the dead primary's last in-flight
  // record arriving AFTER the seal — shipped under the old epoch with a
  // version the old primary could plausibly have drawn. The apply-side
  // epoch fence must reject it (tests assert repl_fenced_records).
  if (auto* injector = sim::GlobalFaultInjector(); injector != nullptr) {
    uint64_t delay_ns = 0;
    if (injector->ShouldFire(sim::fault_sites::kReplSealRace, &delay_ns) &&
        !image_scratch_.empty()) {
      const int node = NodeOf(addr->replicas[0]);
      const int session = SessionFor(node);
      if (session >= 0 && image_scratch_.size() <= shipper_.capacity(session)) {
        uint8_t ab[16];
        AddrBytes(addr->replicas[0], ab);
        shipper_
            .Ship(session, rdma::kReplRecordData, old_epoch,
                  addr->next_version + 1, ab,
                  Slice(image_scratch_.data(), image_scratch_.size()))
            .ok();
      }
    }
  }

  // Reconcile: find the maximum valid version across live replicas and
  // bring every live laggard up to it through the version-fenced log.
  const size_t image_len = sizeof(rdma::ReplObjectHeader) + addr->size;
  read_scratch_.resize(image_len);
  std::vector<uint64_t> seen(addr->replicas.size(), 0);
  std::vector<bool> readable(addr->replicas.size(), false);
  uint64_t v_max = 0;
  bool have = false;
  for (size_t r = 0; r < addr->replicas.size(); ++r) {
    if (!ReplicaLive(cluster, NodeOf(addr->replicas[r]))) continue;
    Status st = dsm_.ReadWithRecovery(&addr->replicas[r], read_scratch_.data(),
                                      image_len);
    if (!st.ok()) continue;
    rdma::ReplObjectHeader h;
    std::memcpy(&h, read_scratch_.data(), sizeof(h));
    const uint8_t* payload = read_scratch_.data() + sizeof(h);
    if (h.len > addr->size || !rdma::ReplObjectValid(h, payload)) continue;
    readable[r] = true;
    seen[r] = h.version;
    if (!have || h.version > v_max) {
      v_max = h.version;
      have = true;
      image_scratch_.assign(
          read_scratch_.begin(),
          read_scratch_.begin() + static_cast<long>(sizeof(h) + h.len));
    }
  }
  if (!have || v_max < addr->committed) {
    // Transient: the committed state lives only on currently-dead replicas.
    // The epoch bump is safe to keep — retry after a replica revives.
    EnqueueRepair(*addr);
    return Status::Timeout("failover cannot reach committed state yet");
  }

  // Stamp the reconciled image with the new epoch (the object crc excludes
  // the epoch, so the image stays self-validating) and re-ship it to every
  // live replica that is behind. The log's version fence makes this safe
  // against any record that applied concurrently.
  std::memcpy(image_scratch_.data(), &addr->epoch, sizeof(addr->epoch));
  bool all_converged = true;
  for (size_t r = 0; r < addr->replicas.size(); ++r) {
    const int node = NodeOf(addr->replicas[r]);
    if (!ReplicaLive(cluster, node)) {
      all_converged = false;
      continue;
    }
    if (readable[r] && seen[r] >= v_max) continue;
    const int session = SessionFor(node);
    uint64_t seq = 0;
    Status st = ShipImage(&shipper_, session, &dsm_, &addr->replicas[r],
                          addr->epoch, v_max, image_scratch_, &seq);
    if (!st.ok()) {
      all_converged = false;
      continue;
    }
    if (seq != 0 && !shipper_.AwaitApplied(session, seq, deadline).ok()) {
      all_converged = false;
    }
  }
  if (!all_converged) EnqueueRepair(*addr);

  addr->next_version = std::max(addr->next_version, v_max);
  addr->committed = std::max(addr->committed, v_max);
  return Status::OK();
}

// --- Anti-entropy. ----------------------------------------------------------

void ReplicatedContext::EnqueueRepair(const ReplicatedAddr& addr) {
  LockGuard<Mutex> lock(repair_mu_);
  // Dedupe against an already-queued task for the same object (repeated
  // degraded writes to one object would otherwise flood the queue): same
  // object identity on every replica means same task — refresh its
  // snapshot instead.
  for (auto& task : repairs_) {
    if (task.snapshot.replicas.size() != addr.replicas.size()) continue;
    bool same = true;
    for (size_t r = 0; same && r < addr.replicas.size(); ++r) {
      same = task.snapshot.replicas[r].obj_id == addr.replicas[r].obj_id &&
             NodeOf(task.snapshot.replicas[r]) == NodeOf(addr.replicas[r]);
    }
    if (same) {
      task.snapshot = addr;
      task.attempts = 0;
      return;
    }
  }
  if (repairs_.size() >= kMaxPendingRepairs) return;
  repairs_.push_back(RepairTask{addr, 0});
}

size_t ReplicatedContext::pending_repairs() const {
  LockGuard<Mutex> lock(repair_mu_);
  return repairs_.size();
}

void ReplicatedContext::StartAntiEntropy(int scheduler_node) {
  if (anti_entropy_task_ >= 0) return;
  anti_entropy_node_ = scheduler_node;
  anti_entropy_task_ =
      dsm_.cluster()->node(scheduler_node)->RegisterBackgroundTask([this] {
        RunAntiEntropySweep(kAntiEntropyBudget);
      });
}

void ReplicatedContext::StopAntiEntropy() {
  if (anti_entropy_task_ < 0) return;
  dsm_.cluster()
      ->node(anti_entropy_node_)
      ->UnregisterBackgroundTask(anti_entropy_task_);
  anti_entropy_task_ = -1;
  anti_entropy_node_ = -1;
}

size_t ReplicatedContext::RunAntiEntropySweep(size_t budget) {
  // Scheduler-thread entry. The sweep owns a private client stack — a
  // DsmContext and a shipper are single-threaded handles, so the owner
  // thread's must not be touched here — built lazily on first sweep.
  if (!repair_dsm_) {
    repair_dsm_ = std::make_unique<DsmContext>(dsm_.cluster(), client_options_);
    repair_shipper_ = std::make_unique<rdma::ReplicaLogShipper>();
    repair_session_for_node_.assign(dsm_.cluster()->num_nodes(), -1);
  }
  size_t converged = 0;
  for (size_t i = 0; i < budget; ++i) {
    RepairTask task;
    {
      LockGuard<Mutex> lock(repair_mu_);
      if (repairs_.empty()) break;
      task = std::move(repairs_.front());
      repairs_.pop_front();
    }
    if (RepairOne(&task)) {
      ++converged;
    } else if (++task.attempts < kMaxRepairAttempts) {
      LockGuard<Mutex> lock(repair_mu_);
      if (repairs_.size() < kMaxPendingRepairs)
        repairs_.push_back(std::move(task));
    }
  }
  return converged;
}

bool ReplicatedContext::RepairOne(RepairTask* task) {
  ReplicatedAddr& a = task->snapshot;
  Cluster& cluster = *dsm_.cluster();
  const size_t image_len = sizeof(rdma::ReplObjectHeader) + a.size;
  repair_scratch_.resize(image_len);

  // Pass 1: newest valid image across live replicas.
  std::vector<uint64_t> seen(a.replicas.size(), 0);
  std::vector<bool> readable(a.replicas.size(), false);
  uint64_t v_max = 0;
  uint32_t e_max = a.epoch;
  bool have = false;
  bool all_live = true;
  for (size_t r = 0; r < a.replicas.size(); ++r) {
    const int node = NodeOf(a.replicas[r]);
    if (!ReplicaLive(cluster, node)) {
      all_live = false;
      continue;
    }
    Status st = repair_dsm_->ReadWithRecovery(&a.replicas[r],
                                              repair_scratch_.data(),
                                              image_len);
    if (!st.ok()) {
      // The object vanished under the sweep (freed): drop the task.
      if (st.code() == StatusCode::kNotFound ||
          st.code() == StatusCode::kInvalidArgument) {
        return true;
      }
      all_live = false;
      continue;
    }
    rdma::ReplObjectHeader h;
    std::memcpy(&h, repair_scratch_.data(), sizeof(h));
    const uint8_t* payload = repair_scratch_.data() + sizeof(h);
    if (h.len > a.size || !rdma::ReplObjectValid(h, payload)) continue;
    readable[r] = true;
    seen[r] = h.version;
    e_max = std::max(e_max, h.epoch);
    if (!have || h.version > v_max) {
      v_max = h.version;
      have = true;
      repair_best_.assign(
          repair_scratch_.begin(),
          repair_scratch_.begin() + static_cast<long>(sizeof(h) + h.len));
    }
  }
  if (!have) return false;  // nothing valid reachable yet — retry later

  // Pass 2: re-ship the best image (stamped with the highest epoch seen) to
  // every live replica that is behind. Repairs flow through the same
  // version-fenced log as writes, so a racing newer write can never be
  // regressed — the applier drops the repair as a duplicate.
  std::memcpy(repair_best_.data(), &e_max, sizeof(e_max));
  bool converged = all_live;
  for (size_t r = 0; r < a.replicas.size(); ++r) {
    const int node = NodeOf(a.replicas[r]);
    if (!ReplicaLive(cluster, node)) continue;
    if (readable[r] && seen[r] >= v_max) continue;
    const int session = RepairSessionFor(node);
    uint64_t seq = 0;
    Status st = ShipImage(repair_shipper_.get(), session, repair_dsm_.get(),
                          &a.replicas[r], e_max, v_max, repair_best_, &seq);
    if (!st.ok()) {
      converged = false;
      continue;
    }
    if (seq != 0) {
      Deadline deadline(QuorumDeadlineNs());
      if (!repair_shipper_->AwaitApplied(session, seq, deadline).ok()) {
        converged = false;
        continue;
      }
    }
    anti_entropy_repairs_.fetch_add(1, std::memory_order_relaxed);
    ++cluster.node(node)->client_stat_shard().repl_anti_entropy_repairs;
  }
  return converged;
}

}  // namespace corm::dsm
