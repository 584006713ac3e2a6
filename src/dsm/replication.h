// Replication over a one-sided replicated log (DESIGN.md §11) — the
// fault-tolerance direction the paper leaves as future work (§3.2.4: "CoRM
// could employ a fault-tolerant replication protocol to withstand
// failures"), built the way "The Impact of RDMA on Agreement" argues for:
// replicas receive sequenced, checksummed log records via one-sided RDMA
// WRITEs and acknowledge by publishing an applied high-water mark the
// writer reads one-sidedly.
//
// Model: every object lives on `replication_factor` distinct nodes; the
// first replica is the primary. A write draws a monotone object version,
// builds a self-validating replica image (ReplObjectHeader + payload), and
// ships it as one log record into every live replica's ingress ring; the
// write is ACKNOWLEDGED only when every live replica has durably applied
// it (and at least one replica exists). Dead replicas are skipped (the
// write degrades) and queued for the background anti-entropy sweep, which
// re-replicates through the same version-fenced log so a repair can never
// regress a newer acked write. Reads validate the replica image (epoch +
// version + crc against the acked high-water `committed`) and fail over to
// the next replica when a copy is stale or torn — the reader-side half of
// the zero-lost-acknowledged-writes invariant.
//
// Failover (PR-2 FailureDetector-driven): when the primary is dead, the
// first live backup is rotated to primary, the replication epoch is
// bumped, a seal record fences the old epoch on every live replica (a
// record shipped under an older epoch can never apply afterwards — fault
// site repl.seal_race), and the replica set is reconciled to the maximum
// committed version. Compaction composes untouched: an applier that finds
// an object kCompacting simply leaves the record at the ring head and
// retries after the move, exactly like any other CoRM pointer user.
//
// Scope note: ordering concurrent writers across replicas needs a real
// replication protocol (the paper cites [15, 18, 22, 42]); this extension
// keeps the single-writer-per-object discipline common to those systems'
// client-driven variants.

#ifndef CORM_DSM_REPLICATION_H_
#define CORM_DSM_REPLICATION_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/slice.h"
#include "dsm/dsm_context.h"
#include "rdma/log_shipper.h"
#include "rdma/repl_record.h"

namespace corm::dsm {

// A replicated object handle: one 128-bit CoRM pointer per replica
// (primary first) plus the client-side replication state. The epoch is the
// fencing token (bumped by failover); `next_version` is drawn — and
// consumed, even when the write later fails — per write attempt, so a
// retried uncertain write never reuses a version a replica might already
// have applied; `committed` is the highest version a full quorum acked,
// the floor readers validate against.
struct ReplicatedAddr {
  std::vector<core::GlobalAddr> replicas;
  uint32_t epoch = 1;
  uint64_t committed = 0;
  uint64_t next_version = 0;
  uint32_t size = 0;  // user payload capacity (bytes)

  bool IsNull() const { return replicas.empty(); }
  const core::GlobalAddr& primary() const { return replicas.front(); }
};

struct ReplicationOptions {
  // Ingress ring geometry per (context, replica-node) session.
  uint32_t ring_slots = 64;
  uint32_t ring_slot_bytes = 1024;
  // Wall-clock budget for the quorum ack wait (and the failover seal).
  // 0 derives it from the client options' rpc_retry deadline.
  uint64_t quorum_deadline_ns = 0;
};

class ReplicatedContext {
 public:
  ReplicatedContext(Cluster* cluster, int replication_factor)
      : ReplicatedContext(cluster, replication_factor,
                          core::Context::Options{}) {}
  ReplicatedContext(Cluster* cluster, int replication_factor,
                    const core::Context::Options& options)
      : ReplicatedContext(cluster, replication_factor, options,
                          ReplicationOptions{}) {}
  ReplicatedContext(Cluster* cluster, int replication_factor,
                    const core::Context::Options& options,
                    const ReplicationOptions& repl_options);
  ~ReplicatedContext();

  ReplicatedContext(const ReplicatedContext&) = delete;
  ReplicatedContext& operator=(const ReplicatedContext&) = delete;

  // Allocates the object on `replication_factor` distinct nodes the
  // failure detector trusts, and initializes every replica with a
  // well-formed empty image (epoch 1, version 0) so appliers and readers
  // always parse a valid stored header.
  Result<ReplicatedAddr> Alloc(size_t size);

  // Ships one sequenced record per live replica and acks only when every
  // live replica durably applied it. kTimeout = UNCERTAIN (the version is
  // consumed; some replicas may hold the write — readers still validate
  // against `committed`, which did not advance). Dead replicas degrade the
  // write and are queued for anti-entropy repair.
  Status Write(ReplicatedAddr* addr, const void* buf, size_t size);

  // Reads the newest valid replica image: crc must validate and the stored
  // version must be >= committed (an acked write can never be un-read).
  // Stale or torn copies are counted, queued for repair, and failed over.
  Status Read(ReplicatedAddr* addr, void* buf, size_t size);

  // Frees every reachable replica.
  Status Free(ReplicatedAddr* addr);

  // Epoch-fenced failover: rotates the first live replica to primary,
  // bumps the epoch, seals the old epoch on every live replica, and
  // reconciles the set to the maximum committed version. Called
  // automatically by Write when the primary is dead; public for tests and
  // operators. kTimeout when no live replica holds the committed state
  // (transient: retry after a replica revives — the epoch bump is safe to
  // keep).
  Status Failover(ReplicatedAddr* addr);

  // --- Anti-entropy (PR-5 scheduler-hosted). -----------------------------
  // Registers the repair sweep with `scheduler_node`'s duty-cycled
  // background scheduler; StopAntiEntropy (or the destructor) unregisters
  // and blocks until an in-progress sweep tick finishes.
  void StartAntiEntropy(int scheduler_node = 0);
  void StopAntiEntropy();
  // One bounded sweep pass (also callable directly from tests). Returns
  // the number of objects repaired.
  size_t RunAntiEntropySweep(size_t budget);

  size_t pending_repairs() const;

  // --- Counters (per-context; the node-sharded mirrors live in
  // NodeStatShard::repl_* on the primary's overflow shard). ---------------
  uint64_t degraded_writes() const { return degraded_writes_; }
  uint64_t failovers() const { return failovers_; }
  uint64_t acked_writes() const { return acked_writes_; }
  uint64_t quorum_timeouts() const { return quorum_timeouts_; }
  uint64_t stale_reads() const { return stale_reads_; }
  uint64_t seals() const { return seals_; }
  uint64_t anti_entropy_repairs() const {
    return anti_entropy_repairs_.load(std::memory_order_relaxed);
  }

  // Modeled fabric+server nanoseconds of the last Write (ship + quorum ack
  // + any RPC fallback) — the replication bench's latency probe.
  uint64_t last_op_ns() const { return last_op_ns_; }

  DsmContext* dsm() { return &dsm_; }

 private:
  struct RepairTask {
    ReplicatedAddr snapshot;
    int attempts = 0;
  };

  // Lazily opens the log-shipping session to `node` (ingress ring on the
  // replica + shipper session), memoized per node. -1 when setup failed.
  int SessionFor(int node);
  // Same, for the sweep's dedicated shipper (scheduler thread).
  int RepairSessionFor(int node);

  // Builds the replica image [ReplObjectHeader | payload] into `out`.
  static void BuildImage(Buffer* out, uint32_t epoch, uint64_t version,
                         const void* buf, size_t size);

  // Ships `image` as a version-`version` data record to replica `r` of
  // `addr` through `shipper`/`session` — falling back to a direct RPC
  // write when the image exceeds the ring slot. On success stores the
  // assigned sequence in `*seq` (0 = RPC fallback, already durable).
  Status ShipImage(rdma::ReplicaLogShipper* shipper, int session,
                   DsmContext* dsm, core::GlobalAddr* replica, uint32_t epoch,
                   uint64_t version, const Buffer& image, uint64_t* seq);

  void EnqueueRepair(const ReplicatedAddr& addr);
  // Repairs one snapshot; true when the object converged (or vanished).
  bool RepairOne(RepairTask* task);

  uint64_t QuorumDeadlineNs() const;
  core::NodeStatShard& PrimaryShard(const ReplicatedAddr& addr);

  // Owner-thread state (a ReplicatedContext, like the core::Context it
  // wraps, is a per-client-thread handle; only the repair queue and the
  // sweep's own state cross threads).
  DsmContext dsm_;
  const int k_;
  const core::Context::Options client_options_;
  const ReplicationOptions options_;
  rdma::ReplicaLogShipper shipper_;
  std::vector<int> session_for_node_;
  Buffer image_scratch_;
  Buffer read_scratch_;
  uint64_t degraded_writes_ = 0;
  uint64_t failovers_ = 0;
  uint64_t acked_writes_ = 0;
  uint64_t quorum_timeouts_ = 0;
  uint64_t stale_reads_ = 0;
  uint64_t seals_ = 0;
  uint64_t last_op_ns_ = 0;

  // Repair queue: produced by the owner thread (degraded writes, stale
  // reads, failover leftovers), consumed by the scheduler thread.
  mutable Mutex repair_mu_;
  std::deque<RepairTask> repairs_ GUARDED_BY(repair_mu_);
  std::atomic<uint64_t> anti_entropy_repairs_{0};

  // Sweep-thread state: touched only from the scheduler tick (and after
  // StopAntiEntropy's unregister barrier, never again).
  std::unique_ptr<DsmContext> repair_dsm_;
  std::unique_ptr<rdma::ReplicaLogShipper> repair_shipper_;
  std::vector<int> repair_session_for_node_;
  Buffer repair_scratch_;
  Buffer repair_best_;
  int anti_entropy_node_ = -1;
  int anti_entropy_task_ = -1;
};

}  // namespace corm::dsm

#endif  // CORM_DSM_REPLICATION_H_
