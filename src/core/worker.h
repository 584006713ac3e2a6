// Worker: one CoRM worker thread (paper §2.2.2, §3.1.4).
//
// Each worker polls (a) its private inbox — ownership-bound operations
// forwarded by peers, pointer-correction queries, compaction-protocol
// messages — and (b) the shared RPC queue. Worker 0 additionally acts as
// the compaction leader when a Compact control message arrives.
//
// Internal header: not part of the public API surface.

#ifndef CORM_CORE_WORKER_H_
#define CORM_CORE_WORKER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "alloc/block.h"
#include "alloc/thread_allocator.h"
#include "common/mpmc_queue.h"
#include "common/parker.h"
#include "common/random.h"
#include "common/slice.h"
#include "core/addr.h"
#include "core/corm_node.h"
#include "core/rpc_protocol.h"
#include "rdma/rpc_transport.h"

namespace corm::core {

// --- Inter-worker message payloads (reply slots are caller-owned). --------

struct CorrectionReply {
  std::atomic<bool> done{false};
  // The queried worker owned the block when it answered, so `found` is
  // authoritative. Without it the requester could only re-read the owner
  // after the reply, and a block that left the owner (collected into its
  // own compaction pool) and came back before that re-read made "not the
  // owner" look like "ID not in block".
  bool owned = false;
  bool found = false;
  uint32_t slot = 0;
};

struct CollectReply {
  std::atomic<bool> done{false};
  std::vector<std::unique_ptr<alloc::Block>> blocks;
};

struct StatsReply {
  std::atomic<bool> done{false};
  // granted/used bytes and block counts per size class.
  std::vector<uint64_t> granted;
  std::vector<uint64_t> used;
  std::vector<uint64_t> nblocks;
};

// Reply slot for an on-thread invariant audit (CormNode::Audit). The worker
// runs its ThreadAllocator::Audit between operations, so the audit sees a
// quiescent view of the allocator without extra locking.
struct AuditReply {
  std::atomic<bool> done{false};
  Status status;
};

struct BulkRequest {
  std::atomic<bool> done{false};
  bool is_alloc = false;
  // Alloc inputs/outputs.
  size_t count = 0;
  uint32_t payload_size = 0;
  uint64_t index_base = 0;  // pattern seed offset for determinism
  std::vector<GlobalAddr> out_addrs;
  // Free inputs.
  std::vector<GlobalAddr> free_addrs;
  Status status;
};

struct WorkerMsg {
  enum class Kind : uint8_t {
    kForwardedRpc,  // ownership-bound RPC (Free, keyed Del) sent to the owner
    kCorrection,    // pointer-correction query (thread messaging, §3.2.1)
    kCollect,       // compaction stage 1: donate low-occupancy blocks
    kStats,         // fragmentation accounting snapshot
    kCompact,       // run a compaction as leader
    kBulk,          // bulk alloc/free loader
    kAudit,         // run the thread-allocator invariant audit in-thread
  };
  Kind kind = Kind::kForwardedRpc;

  rdma::RpcMessage* rpc = nullptr;  // kForwardedRpc

  // kCorrection
  const alloc::Block* block = nullptr;
  uint16_t obj_id = 0;
  CorrectionReply* correction = nullptr;

  // kCollect
  uint32_t class_idx = 0;
  double max_occupancy = 0.0;
  size_t max_blocks = 0;
  CollectReply* collect = nullptr;

  StatsReply* stats = nullptr;      // kStats
  CompactRequest* compact = nullptr;  // kCompact
  BulkRequest* bulk = nullptr;        // kBulk
  AuditReply* audit = nullptr;        // kAudit
};

class Worker {
 public:
  Worker(CormNode* node, int id);
  ~Worker();  // out-of-line: CompactionEngine is incomplete here

  // Thread body; returns when the node's stop flag is set. Drains the
  // worker's own RPC ring in batches and interleaves inbox messages between
  // batch items so correction queries are never starved behind a long
  // batch.
  void Run();

  // Enqueues a message (any thread) and wakes the worker if it is parked.
  // Spins while the inbox is full.
  void Send(WorkerMsg msg);

  int id() const { return id_; }
  alloc::ThreadAllocator* allocator() { return &allocator_; }

  // True while the worker is parked on its futex and no producer has woken
  // it yet. A parked worker holds no pointer translated from a virtual
  // address (see passes()).
  bool parked() const { return parker_->parked(); }

  // Run-loop iterations started. Stored with release at the top of each
  // iteration, where the worker holds no pointer translated from a virtual
  // address: once it moves past a value read after a remap (or the worker
  // is parked), no read through the old translation is in flight.
  uint64_t passes() const { return passes_.load(std::memory_order_acquire); }

  // Wall-clock time an idle worker keeps polling after its last piece of
  // work before it parks (DESIGN.md §7.3): ~2.5x the ~8 us park->wake round
  // trip, so a request that arrives within it skips the futex wake-up.
  static constexpr uint64_t kIdleSpinNs = 20'000;

  // The spin budget of a worker whose affinity mask holds `cpus` CPUs. On
  // one CPU it is 0: the producer needs the CPU the worker would spin on.
  static constexpr uint64_t IdleSpinBudgetNs(int cpus) {
    return cpus > 1 ? kIdleSpinNs : 0;
  }
  // Dry polls an idle worker spends on PAUSE alone before it starts
  // yielding (DESIGN.md §7.3): ~1.5 us on a 4-vCPU Xeon, so a request that
  // lands within it costs no sched_yield. Do not lengthen it: at 1,024
  // polls (~24 us) spinning workers starved the threads they waited on in
  // an oversubscribed test run.
  static constexpr uint32_t kPausePolls = 64;
  // The pause phase of a node with `workers` workers whose affinity mask
  // holds `cpus` CPUs: 0 unless a CPU is left over for the clients, since a
  // worker that does not yield keeps a client off the CPU it shares (and
  // on one CPU, off the only CPU, like the spin budget).
  static constexpr uint32_t PausePolls(int cpus, int workers) {
    return cpus > workers ? kPausePolls : 0;
  }
  // CPUs in the calling thread's affinity mask (the host's CPU count if the
  // mask cannot be read). Threads inherit the mask of their creator.
  static int AffinityCpus();

  // Result of locating an object (public for internal free helpers).
  struct Resolved {
    alloc::Block* block = nullptr;
    uint32_t slot = 0;
    sim::VAddr base = 0;      // block base the client's pointer references
    bool corrected = false;   // hint was stale; slot found via ID
    bool old_block = false;   // pointer references a ghost base (§3.3)
    // The slot's bytes through `base`, translated once by the resolve; the
    // handler that resolved uses it for the rest of the operation.
    uint8_t* ptr = nullptr;
  };

 private:
  // --- Dispatch. ---------------------------------------------------------
  // Parks on the ring's futex for at most `timeout_ns` unless work is
  // already queued; counts a timeout that finds work (a missed wake-up).
  void ParkIdle(uint64_t timeout_ns);
  void HandleInbox(WorkerMsg& msg);
  void HandleRpc(rdma::RpcMessage* rpc, bool forwarded);

  // --- RPC operation handlers. -------------------------------------------
  void HandleAlloc(rdma::RpcMessage* rpc);
  void HandleFree(rdma::RpcMessage* rpc, bool forwarded);
  void HandleRead(rdma::RpcMessage* rpc);
  void HandleWrite(rdma::RpcMessage* rpc);
  // One resolve-lock-write attempt. Returns false, leaving the RPC open,
  // when the resolved slot no longer holds the object and `last_try` is
  // false; otherwise completes the RPC and returns true.
  bool TryWrite(rdma::RpcMessage* rpc, const WriteRequest& req,
                Slice payload, bool last_try);
  void HandleReleasePtr(rdma::RpcMessage* rpc);

  // --- Keyed index operations (DESIGN.md §13). ----------------------------
  // Authoritative lookup behind the one-sided bucket probe. Resolves the
  // stored hint through ResolveObject and self-heals the bucket entry
  // (fresh pointer + owner hint + current epoch) when it was stale or
  // fenced, so RPC fallbacks repair the one-sided path as a side effect.
  void HandleIndexLookup(rdma::RpcMessage* rpc);
  // Keyed Put: a live key answers with its canonical pointer (the client
  // writes through it); a fresh key is allocated here, filled with the
  // value before anything can name it, and published by the index insert.
  // A lost publish race or a full bucket pair frees the object again.
  void HandleIndexPut(rdma::RpcMessage* rpc);
  // Keyed Del, ownership-bound like Free: forwarded to the block owner,
  // which write-locks the object, unlinks the key and frees the object in
  // one handler. Anything that stops the free (block in transit, object
  // under compaction) answers kObjectLocked before the unlink.
  void HandleIndexDel(rdma::RpcMessage* rpc, bool forwarded);
  // The authoritative lookup both keyed handlers share: the entry's
  // corrected, owner-hint-stamped pointer, with the bucket entry repaired
  // when it was stale or fenced and unlinked when it outlived its object
  // (then kNotFound). Counts the RPC fallback it is.
  Status LookupCanonical(uint64_t key, GlobalAddr* out);

  // --- Replicated-log apply path (DESIGN.md §11). ------------------------
  // Drains up to kReplApplyBatch in-sequence records from every ingress
  // ring this worker owns (ring id % num_workers == id_). Returns the
  // number of records durably applied.
  size_t DrainReplIngress();
  // True when one of those rings holds its next record (ParkIdle's check).
  bool ReplIngressPending() const;
  // Applies one record through the object seqlock (same lock discipline as
  // HandleWrite). Returns true when the ring may advance past the record —
  // applied, duplicate, epoch-fenced, or orphaned — and false when the
  // object is transiently unavailable (write-locked or kCompacting): the
  // record stays at the ring head and is retried on a later drain, which
  // is the replication/compaction hand-off.
  bool ApplyReplRecord(const rdma::ReplRecordHeader& hdr,
                       const Buffer& payload);

  // --- Shared helpers. ----------------------------------------------------
  // Locates the object referenced by `addr`: optimistic hinted-offset check
  // first, then the configured correction strategy. Never blocks on locked
  // objects (that is the caller's concern).
  Result<Resolved> ResolveObject(const GlobalAddr& addr);

  // Pointer correction backends (§3.2.1).
  Result<uint32_t> CorrectViaOwner(alloc::Block* block, uint16_t obj_id);
  Result<uint32_t> CorrectViaScan(const alloc::Block* block, sim::VAddr base,
                                  uint16_t obj_id);

  // Looks up an object ID in a block this worker owns.
  Result<uint32_t> OwnerLookup(const alloc::Block* block, uint16_t obj_id);

  // Allocates one object whose payload starts as `value` (written before
  // the header is published, so no reader ever sees the slot half-filled);
  // returns its address and, when `where` is non-null, its location. Used
  // by the RPC, keyed-Put and bulk paths.
  Result<GlobalAddr> AllocObject(uint32_t payload_size, Slice value = {},
                                 Resolved* where = nullptr);
  // Frees a resolved object (this worker must own the block).
  Status FreeResolved(const Resolved& r);
  // FreeResolved's two halves, for callers that act between them: write-
  // lock the object (kObjectLocked when it is under compaction or stays
  // write-locked past a bounded spin, kNotFound when already freed; on OK
  // *pre holds the header before the lock), then tombstone it and return
  // the slot to the allocator.
  Status LockForFree(const Resolved& r, ObjectHeader* pre);
  void FreeLocked(const Resolved& r, const ObjectHeader& pre);

  // Byte pointer to a slot through the *client-visible* base (aliases
  // resolve to the same frames after remap).
  uint8_t* SlotPtr(sim::VAddr base, const alloc::Block* block, uint32_t slot);

  // Generates a block-local object ID (unique when the class is
  // compactable; paper §3.1.2). Bounded: after kIdRandomDraws failed random
  // draws (dense block: rejection sampling degenerates) it scans the ID
  // space from a random start, which is guaranteed to find a free ID.
  Result<uint16_t> DrawObjectId(alloc::Block* block);

  // Directory lookup through this worker's private cache, invalidated by
  // the directory epoch (stale entries miss and refetch; see the freshness
  // argument at LookupBlockCached's definition).
  CormNode::DirectoryEntry LookupBlockCached(sim::VAddr base);

  // True when blocks of this class can hold more objects than the ID space
  // addresses (compaction disabled for it, §4.4.1).
  bool ClassCompactable(uint32_t class_idx) const;

  // Completes `rpc` with `st` and wakes the client.
  static void Complete(rdma::RpcMessage* rpc, Status st);

  // Releases a ghost range (tracker said its last homed object died).
  void ReleaseGhost(const GhostToRelease& ghost);

  // Destroys an empty block owned by this worker.
  void MaybeReleaseEmptyBlock(alloc::Block* block);

  void HandleBulk(BulkRequest* req);

  // The compaction engine runs on the leader's thread between RPC batches
  // and reaches into the worker's private helpers (SlotPtr, inbox,
  // ClassCompactable) as the leader-side half of the protocol.
  friend class CompactionEngine;

  // Largest batch a worker drains from its RPC ring per queue
  // synchronization.
  static constexpr size_t kPollBatch = 16;
  // Records applied per ingress ring per drain pass: bounds how long the
  // apply path keeps the worker away from its RPC ring.
  static constexpr int kReplApplyBatch = 16;
  // Resolutions a Write may make when the object moves under it (one
  // compaction pair per extra resolution) before it reports kObjectMoved.
  static constexpr int kWriteResolves = 4;
  // Random ID draws before DrawObjectId falls back to scanning.
  static constexpr int kIdRandomDraws = 32;
  // Dry polls an idle worker yields through before parking, whatever its
  // spin budget.
  static constexpr uint32_t kIdleYields = 4;

  // Direct-mapped directory cache slot: valid while the stamped epoch still
  // equals the directory's (any directory mutation invalidates all slots).
  struct DirCacheSlot {
    sim::VAddr base = 0;
    uint64_t epoch = 0;
    CormNode::DirectoryEntry entry;
  };
  static constexpr size_t kDirCacheSlots = 256;  // power of two

  CormNode* const node_;
  const int id_;
  alloc::ThreadAllocator allocator_;
  std::atomic<uint64_t> passes_{0};
  MpmcQueue<WorkerMsg> inbox_;
  Rng rng_;
  // This worker's cacheline-padded stat shard; counters on the data plane
  // are plain increments with no shared-line contention.
  NodeStatShard& stats_;
  // The parking spot of this worker's RPC ring (owned by the RpcQueue, so
  // a Push needs no pointer back into the worker).
  Parker* const parker_;
  // Reusable read-payload staging buffer (capacity persists across ops, so
  // the steady-state read path performs no heap allocation).
  Buffer read_scratch_;
  // Replicated-log apply staging: the record snapshot pulled from the ring
  // and the stored-image scratch the seal path rewrites. High-water sized.
  Buffer repl_record_buf_;
  Buffer repl_seal_scratch_;
  std::vector<DirCacheSlot> dir_cache_;
  // Leader-side compaction state machine (compaction_engine.h), stepped
  // one budgeted slice at a time from Run(); present on every worker but
  // only ever driven on the one that receives kCompact messages.
  std::unique_ptr<CompactionEngine> engine_;
};

}  // namespace corm::core

#endif  // CORM_CORE_WORKER_H_
