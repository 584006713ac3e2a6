// Context: CoRM's client-side library (paper Table 2).
//
//   ctx->Alloc / Free          -- RPC memory management
//   ctx->Read / Write          -- RPC object access (server-side correction)
//   ctx->DirectRead            -- one-sided RDMA read, lock-free; the client
//                                 validates consistency and detects moved
//                                 objects itself (§3.2.2, §3.2.3)
//   ctx->ScanRead              -- one-sided RDMA read of the whole block +
//                                 client-side scan (pointer correction
//                                 without server CPU, §3.2.2)
//   ctx->ReleasePtr            -- release an old virtual address (§3.3)
//
// Pointers are passed by pointer: calls that perform pointer correction
// update them in place, exactly like the addr_t& parameters in Table 2.

#ifndef CORM_CORE_CLIENT_H_
#define CORM_CORE_CLIENT_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/retry.h"
#include "core/addr.h"
#include "core/corm_node.h"
#include "core/rpc_protocol.h"
#include "rdma/queue_pair.h"
#include "rdma/rpc_transport.h"

namespace corm::core {

// Client-observable counters (Fig. 13 counts failed DirectReads).
struct ClientStats {
  uint64_t rpc_calls = 0;
  uint64_t direct_reads = 0;
  uint64_t direct_read_failures = 0;  // torn / locked / moved / qp-broken
  uint64_t torn_reads = 0;
  uint64_t locked_reads = 0;
  uint64_t moved_reads = 0;
  uint64_t scan_reads = 0;
  uint64_t qp_reconnects = 0;
  uint64_t pointer_corrections = 0;  // client-side pointer updates
  uint64_t retries = 0;           // backoff retries of Read/WriteWithRecovery
  uint64_t timeouts = 0;          // ops that exhausted a RetryPolicy deadline
  uint64_t failovers = 0;         // moved-object fallbacks (scan / RPC read)
  uint64_t dup_completions = 0;   // injected duplicate RPC completions seen
  // Doorbell batching (DESIGN.md §12); each chain also lands on the node's
  // doorbell_* shard counters for cluster-wide aggregation.
  uint64_t direct_read_batches = 0;  // chained multi-slot posts issued
  // Keyed access layer (DESIGN.md §13); the same events also land on the
  // node's index_* shard counters for cluster-wide aggregation.
  uint64_t index_lookups = 0;         // keyed lookups started (Get/Put/Del)
  uint64_t index_one_sided_hits = 0;  // resolved without an RPC fallback
  uint64_t index_rpc_fallbacks = 0;   // keyed ops that took the RPC lookup
  // Modeled nanoseconds: network round trips + RNIC faults + charged
  // server-side processing. Benchmarks derive latency/throughput figures
  // from these instead of wall clock (see DESIGN.md §2 on pacing).
  uint64_t modeled_ns_total = 0;
  uint64_t last_op_ns = 0;  // modeled duration of the last public API call
};

class Context {
 public:
  struct Options {
    // Colocated client: accesses go through CPU loads (the local half of
    // Fig. 11), no network pacing.
    bool local = false;
    // Bounds every RPC: the transport returns kTimeout instead of spinning
    // forever when the serving node dies mid-request.
    RetryPolicy rpc_retry;
    // Drives ReadWithRecovery's deadline/backoff (the constants previously
    // hard-coded there). Chaos tests shorten both deadlines.
    RetryPolicy recovery_retry;
  };

  // CreateCtx(ip, port) analogue: connects a QP + RPC endpoint to `node`.
  static std::unique_ptr<Context> Create(CormNode* node, Options options);
  static std::unique_ptr<Context> Create(CormNode* node) {
    return Create(node, Options{});
  }

  // --- Table 2 API. ------------------------------------------------------
  Result<GlobalAddr> Alloc(size_t size);
  Status Free(GlobalAddr* addr);
  Status Read(GlobalAddr* addr, void* buf, size_t size);
  Status Write(GlobalAddr* addr, const void* buf, size_t size);
  Status DirectRead(const GlobalAddr& addr, void* buf, size_t size);
  Status ScanRead(GlobalAddr* addr, void* buf, size_t size);
  Status ReleasePtr(GlobalAddr* addr);

  // Chained one-sided read of `n` objects (DESIGN.md §12): all slots are
  // posted as one WR chain per group of kBatchChain — one doorbell + one
  // completion per chain instead of n round trips. `bufs` is a contiguous
  // array of n payload buffers with stride `size`; per-object outcomes land
  // in `statuses[i]` (the same vocabulary as DirectRead). Returns the first
  // per-object failure (OK when all succeeded). A colocated context has no
  // doorbell to amortize and runs sequential DirectReads instead.
  Status DirectReadBatch(const GlobalAddr* addrs, size_t n, void* bufs,
                         size_t size, Status* statuses);

  // --- Keyed access layer (DESIGN.md §13). -------------------------------
  // The default client surface: objects are addressed by 64-bit key through
  // the node's registered bucket table instead of raw pointers. Get runs
  // one-sided in the steady state — a cached (or bucket-probed) pointer
  // hint followed by a FaRM-style validated read — and falls back to the
  // authoritative kIndexLookup RPC when the hint is stale, torn, or fenced.
  // The pointer API above remains available; both views name the same
  // objects.
  //
  // Inserts or overwrites the value for `key`; returns the object's
  // pointer (also usable with the pointer API). One RPC when the key is
  // fresh (the worker allocates, fills and publishes the object) or its
  // pointer is cached; an uncached overwrite adds the write RPC.
  Result<GlobalAddr> Put(uint64_t key, const void* buf, size_t size);
  // Reads the value for `key` into `buf`.
  Status Get(uint64_t key, void* buf, size_t size);
  // Unlinks `key` and frees its object: one kIndexDel RPC, routed to the
  // owning worker's ring by the cached pointer's owner hint (flags bits
  // 7..4; the home ring forwards it otherwise). Retries while the object's
  // block is in transit to the compaction leader; the key stays readable
  // until the delete lands.
  Status Del(uint64_t key);

  // --- Recovery policy helper (client behaviour in §4.3.2). --------------
  enum class MovedFallback { kScanRead, kRpcRead };
  // DirectRead with bounded retry/backoff for transient invalidity (a
  // writer's lock, a torn snapshot, a broken QP) and the chosen fallback
  // when the object moved. An object under compaction is not transient: it
  // reads through. Corrects `addr` on fallback.
  Status ReadWithRecovery(GlobalAddr* addr, void* buf, size_t size,
                          MovedFallback fallback = MovedFallback::kScanRead);

  const ClientStats& stats() const { return stats_; }
  void ResetStats() { stats_ = ClientStats{}; }

  rdma::QueuePair* queue_pair() { return &qp_; }
  // The RPC ring (= serving worker) this client's non-ownership-bound ops
  // target.
  int home_ring() const { return ring_; }

 private:
  class OpTimer;  // modeled-latency scope guard (client.cc)

  // WRs per chained post in DirectReadBatch (bounds the per-context batch
  // scratch; longer batches run as back-to-back chains).
  static constexpr size_t kBatchChain = 16;

  Context(CormNode* node, Options options);

  // One-sided read of `len` bytes at `vaddr` (network or local).
  Status RawRead(rdma::RKey r_key, sim::VAddr vaddr, void* buf, size_t len);

  // The validated snapshot read under DirectRead: RawRead + header/version
  // validation, no retry and no stats (DirectRead layers those).
  Status SnapshotRead(const GlobalAddr& addr, void* buf, size_t size);

  // Validates a slot snapshot against `addr`; extracts payload on success.
  Status ValidateAndExtract(const uint8_t* slot, uint32_t slot_size,
                            const GlobalAddr& addr, void* buf, size_t size);

  // Tallies a failed one-sided read by cause (torn, locked, moved).
  void CountReadFailure(const Status& st);

  // Executes a pooled RPC: `*msg` carries the encoded request; on OK the
  // caller decodes msg->response in place and Unrefs. On any failure the
  // message has been released and `*msg` is null.
  Status RpcCallPooled(rdma::RpcMessage** msg, int ring_hint);

  // Ring for an ownership-bound op on `addr`: the stamped owner hint when
  // present (lands in the owning worker's ring, skipping the forward hop),
  // else this client's home ring.
  int RingHintFor(const GlobalAddr& addr) const;

  // --- Keyed lookup internals (DESIGN.md §13). ---------------------------
  // One-sided probe of the key's two candidate buckets (plus the table
  // epoch word), validated against each bucket's seq word via a chained
  // re-read. OK + *addr on a live, unfenced entry; NotFound / TornRead /
  // StalePointer otherwise — all of which the caller converts into the
  // RPC fallback.
  Status ProbeBuckets(uint64_t key, GlobalAddr* addr);
  // The recovery_retry executor for one Read/WriteWithRecovery call.
  RetryState RecoveryRetry();
  // Authoritative kIndexLookup RPC (counts index_rpc_fallbacks).
  Status IndexLookupRpc(uint64_t key, GlobalAddr* addr);
  // Runs `op` (one RPC attempt), retried with ReadWithRecovery's backoff
  // while it answers kObjectLocked; any other status is returned as is,
  // and an exhausted recovery_retry deadline as kTimeout.
  template <typename Op>
  Status RetryWhileLocked(Op&& op);
  // Put's write: Write under RetryWhileLocked (another writer's lock
  // outlasting the worker's bounded spin, or compaction).
  Status WriteWithRecovery(GlobalAddr* addr, const void* buf, size_t size);

  CormNode* const node_;
  const Options options_;
  rdma::QueuePair qp_;
  rdma::RpcClient rpc_;
  // This client's home RPC ring: all its non-ownership-bound ops target one
  // worker's ring, so the node's active worker set matches the offered load
  // (idle workers' rings stay empty and those workers park; contexts are
  // striped across rings round-robin so concurrent clients spread out).
  const int ring_;
  // This client's node stat shard, where its index_* and doorbell_* events
  // land (CormNode::NextClientStatShard).
  NodeStatShard& shard_;
  ClientStats stats_;
  std::vector<uint8_t> scratch_;  // block-sized scan buffer
  // kBatchChain block-sized slot images for DirectReadBatch (sized once
  // here so the batch path never allocates).
  std::vector<uint8_t> batch_scratch_;
  uint64_t retry_seq_ = 0;        // deterministic jitter stream position
  // Private key→pointer hint cache: makes the steady-state Get a single
  // validated read (one round trip). Entries are hints, never truth — a
  // failed validation drops the entry and re-resolves through the bucket
  // probe / RPC fallback chain.
  std::unordered_map<uint64_t, GlobalAddr> hint_cache_;
};

}  // namespace corm::core

#endif  // CORM_CORE_CLIENT_H_
