// CormNode: a CoRM memory server (paper §3).
//
// The node owns the simulated substrate (physical memory, address space,
// memfd pool, RNIC), a pool of worker threads that poll the per-worker RPC
// rings (§2.2.2), the per-worker thread-local allocators (§3.1.1), and the
// two-stage compaction protocol (§3.1.4). Clients talk to it through
// core::Context (client.h), which issues RPCs and one-sided RDMA reads.

#ifndef CORM_CORE_CORM_NODE_H_
#define CORM_CORE_CORM_NODE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "alloc/block.h"
#include "alloc/block_allocator.h"
#include "alloc/fragmentation.h"
#include "alloc/size_classes.h"
#include "alloc/thread_allocator.h"
#include "common/lock_rank.h"
#include "common/mutex.h"
#include "common/parker.h"
#include "common/random.h"
#include "common/result.h"
#include "common/sharded_counters.h"
#include "common/thread_annotations.h"
#include "core/addr.h"
#include "core/block_directory.h"
#include "core/object_layout.h"
#include "core/vaddr_tracker.h"
#include "index/index_table.h"
#include "rdma/repl_log_ring.h"
#include "rdma/rnic.h"
#include "rdma/rpc_transport.h"
#include "sim/address_space.h"
#include "sim/latency_model.h"
#include "sim/mem_file.h"
#include "sim/physical_memory.h"

namespace corm::core {

// Phases of the incremental compaction engine (DESIGN.md §9). A compaction
// run walks Select → Collect → ConflictCheck → (Copy → Remap → Fixup)* →
// Reclaim; each Step() executes one budget-bounded slice of the current
// phase so data-plane RPCs interleave between slices.
enum class CompactionPhase : uint8_t {
  kIdle,           // no run in progress
  kSelect,         // validate the class, fan out Collect messages
  kCollect,        // gather donated blocks (deadline-bounded, §3.1.4)
  kConflictCheck,  // pick the next probability-ranked disjoint pair (§3.1.2)
  kCopy,           // lock + copy objects of the current pair, budgeted
  kIndexRepair,    // rewrite moved objects' index entries (DESIGN.md §13)
  kRemap,          // virtual-address remap + batched MTT repair (§3.5)
  kFixup,          // retire src, audit dst, re-enter ConflictCheck
  kReclaim,        // return leftover blocks, publish the report
};

// Server-side strategy for fixing indirect pointers on RPC paths (§3.2.1).
enum class RpcCorrectionStrategy {
  kThreadMessaging,  // forward to the owner thread; it queries block metadata
  kBlockScan,        // the serving thread scans the block's slots
};

struct CormConfig {
  int num_workers = 8;
  size_t block_pages = 1;          // 4 KiB blocks (paper default)
  int object_id_bits = 16;         // CoRM-16 (paper default)
  sim::RemapStrategy remap_strategy = sim::RemapStrategy::kOdpPrefetch;
  sim::RnicModel rnic_model = sim::RnicModel::kConnectX5;
  sim::CpuModel cpu_model = sim::CpuModel::kIntelXeon;
  RpcCorrectionStrategy rpc_correction =
      RpcCorrectionStrategy::kThreadMessaging;
  // Compaction triggers when granted/used exceeds this per-class ratio.
  double fragmentation_threshold = 1.3;
  // Collection phase: only blocks at or below this occupancy are donated.
  double collection_max_occupancy = 0.9;
  // Upper bound on blocks gathered per compaction run (§4.3.2 discusses an
  // unbounded run causing a long unavailability window).
  size_t compaction_max_blocks = SIZE_MAX;

  // --- Incremental compaction engine (DESIGN.md §9). ---------------------
  // Objects copied per Copy slice. The slice budget bounds how long the
  // leader is away from its RPC ring per engine step; SIZE_MAX approximates
  // the old monolithic behaviour (whole pair in one slice).
  size_t compaction_slice_objects = 32;
  // Candidate pairs conflict-checked per ConflictCheck slice (each check is
  // an ID-map walk, the §3.1.2 exact disjointness test).
  size_t compaction_slice_pairs = 4;
  // Wall-clock budget for the Collect phase: a worker that never answers
  // its Collect message (fault site compaction.collect_stall) converts to
  // kTimeout instead of hanging the leader.
  uint64_t compaction_collect_deadline_ns = 2'000'000'000;
  // Background scheduler: a duty-cycled thread polls per-class
  // fragmentation every interval and feeds over-threshold classes to the
  // engine, replacing ad-hoc CompactIfFragmented call sites.
  bool background_compaction = false;
  uint64_t compaction_check_interval_us = 2000;
  // Test-only: invoked on the leader thread at every phase transition (the
  // new phase is passed). May block — the engine then pauses between
  // slices, which is exactly what the resumability tests need.
  std::function<void(CompactionPhase)> compaction_phase_hook;
  // Back blocks with 2 MiB huge pages (modeled remap cost per 2 MiB unit;
  // paper §3.1.1, §4.3.1).
  bool huge_pages = false;
  uint64_t seed = 42;
  // Two-sided message rate of the server NIC (Send/Recv); every RPC costs
  // two messages, so ops saturate at half this rate (Fig. 12). 0 = no cap.
  uint64_t nic_msg_rate = 1'400'000;

  // --- Data-plane knob (DESIGN.md §7.3). ---------------------------------
  // Idle workers park on a futex once a dry spell outlasts their spin
  // budget (Worker::kIdleSpinNs, ~2.5x the park->wake round trip; 0 when
  // the worker's affinity mask holds one CPU), so on an oversubscribed host
  // the scheduler rotation shrinks to the threads that actually have work,
  // while a request arriving within the budget costs no wake-up. A request
  // pushed onto a parked worker's ring, a message sent to its inbox, or a
  // replicated-log record written into an ingress ring it drains wakes it
  // at once (DESIGN.md §7.3). Busy workers never park. Biggest
  // single lever on few-core hosts, where an all-workers yield rotation
  // otherwise taxes every RPC round trip.
  bool idle_park = true;

  // --- Keyed index (DESIGN.md §13). --------------------------------------
  // Buckets in this node's registered index table (4-way buckets, two
  // candidate buckets per key). The hard ceiling is 4×buckets keys, but
  // with hashed keys the first bucket pair fills at about 0.73 keys per
  // bucket (measured: 11,920 keys in 16,384 buckets), so size it at well
  // over 1.4 buckets per key (perfbench uses 4). The table is the
  // authoritative key→pointer map, so a full bucket pair rejects the
  // insert rather than evicting.
  size_t index_buckets = 512;

  sim::LatencyModel MakeLatencyModel() const {
    return sim::LatencyModel{rnic_model, cpu_model};
  }
};

// The node's counters, in declaration order: the one list that generates
// the per-worker shard (NodeStatShard), the snapshot (NodeStats) and the
// fold in CormNode::stats(). Add a counter here and in the EXPERIMENTS.md
// stats schema (corm-tidy --audit checks both directions).
#define CORM_NODE_COUNTERS(X)                                                \
  X(rpc_allocs)                                                              \
  X(rpc_frees)                                                               \
  X(rpc_reads)                                                               \
  X(rpc_writes)                                                              \
  X(rpc_releases)                                                            \
  X(corrections_messaging)                                                   \
  X(corrections_scan)                                                        \
  X(forwarded_ops)                                                           \
  X(compaction_runs)                                                         \
  X(blocks_compacted)                                                        \
  X(objects_moved)                                                           \
  X(objects_offset_preserved)                                                \
  /* Compaction-engine instrumentation (DESIGN.md §9): all incremented on */ \
  /* the leader's shard from the engine's slices. */                         \
  X(compaction_slices)             /* Step() calls that did work */          \
  X(compaction_phase_transitions)  /* phase changes across runs */           \
  X(compaction_planner_rejections) /* plan pairs the exact check killed */   \
  X(compaction_bytes_copied)       /* payload bytes moved */                 \
  X(compaction_timeouts)           /* runs aborted on a deadline */          \
  X(compaction_bg_runs)            /* runs the scheduler posted */           \
  X(ghosts_released)                                                         \
  X(old_pointer_uses)                                                        \
  /* Data-plane instrumentation (DESIGN.md §7). */                           \
  X(id_draw_fallbacks) /* DrawObjectId exhausted its random draws */         \
  X(dir_cache_hits)                                                          \
  X(dir_cache_misses)                                                        \
  X(rpc_batches) /* PollBatch calls that returned >= 1 message */            \
  X(rpc_polled)  /* messages those batches carried */                        \
  /* Idle parks that ended by timeout while the worker's own ring or */      \
  /* inbox already held work: a producer that did not wake it (DESIGN.md */  \
  /* §7.3). */                                                               \
  X(park_missed_wakeups)                                                     \
  /* Idle parks entered: dry spells that outlasted the worker's spin */      \
  /* budget (one per park of the timeout ladder; DESIGN.md §7.3). */         \
  X(idle_parks)                                                              \
  /* Replicated-log instrumentation (DESIGN.md §11). Ship-side counters */   \
  /* are incremented from the client thread driving a ReplicatedContext */   \
  /* (they land on the primary node's overflow shard via */                  \
  /* client_stat_shard()); apply-side counters are incremented by the */     \
  /* worker draining the ring. */                                            \
  X(repl_ship_records)         /* records RDMA-written into rings */         \
  X(repl_acked_writes)         /* writes acked by a full quorum */           \
  X(repl_degraded_writes)      /* writes that skipped a dead replica */      \
  X(repl_quorum_timeouts)      /* writes whose quorum never formed */        \
  X(repl_failovers)            /* primary failovers executed */              \
  X(repl_seals)                /* epoch seals shipped by failover */         \
  X(repl_stale_reads)          /* replica copies rejected on read */         \
  X(repl_anti_entropy_repairs) /* objects the sweep re-replicated */         \
  X(repl_applied_records)      /* records durably applied */                 \
  X(repl_fenced_records)       /* stale-epoch records rejected */            \
  X(repl_apply_dups)           /* duplicate/old-version records */           \
  X(repl_apply_orphans)        /* object gone or image does not fit */       \
  /* Doorbell-batching instrumentation (DESIGN.md §12). Incremented */       \
  /* from the client threads driving contexts against this node, so */       \
  /* they land on client shards (the overflow shard when a */                \
  /* ReplicatedContext posts the chain). */                                  \
  X(doorbell_batches)     /* chained posts (one doorbell each) */            \
  X(doorbell_batched_wrs) /* WRs those chains carried */                     \
  /* Keyed-index instrumentation (DESIGN.md §13). Lookup-side counters */    \
  /* are incremented from the client threads driving contexts against */     \
  /* this node (client shards); repair/fallback counters are */              \
  /* incremented by the worker or engine that served them. */                \
  X(index_lookups)        /* keyed lookups started (Get/Put/Del) */          \
  X(index_one_sided_hits) /* resolved without an RPC fallback */             \
  X(index_rpc_fallbacks)  /* lookups that fell back to the RPC op */         \
  X(index_repairs)        /* bucket entries rewritten after moves */         \
  X(index_fenced_entries) /* live entries fenced by an epoch seal */         \
  X(index_rehomes)        /* key ranges re-homed after a failover */         \
  X(index_insert_full)    /* fresh-key Puts refused: bucket pair full */

// One worker's cacheline-padded block of node counters. Workers only ever
// touch their own shard (plus an overflow shard for non-worker threads), so
// data-plane increments never share a cacheline (see sharded_counters.h).
struct NodeStatShard {
#define CORM_SHARD_FIELD(name) StatCounter name;
  CORM_NODE_COUNTERS(CORM_SHARD_FIELD)
#undef CORM_SHARD_FIELD
};

// Aggregated snapshot of the sharded counters (CormNode::stats()). A read
// concurrent with increments is a momentary snapshot — same semantics the
// old shared-atomic counters had, without the shared cachelines.
struct NodeStats {
#define CORM_SNAPSHOT_FIELD(name) uint64_t name = 0;
  CORM_NODE_COUNTERS(CORM_SNAPSHOT_FIELD)
#undef CORM_SNAPSHOT_FIELD
};

// Result of one compaction run.
struct CompactionReport {
  uint32_t class_idx = 0;
  size_t blocks_collected = 0;
  size_t blocks_freed = 0;
  size_t objects_moved = 0;
  size_t objects_relocated = 0;  // subset that changed offset (indirect)
  uint64_t collection_ns = 0;    // modeled duration of the collect stage
  uint64_t compaction_ns = 0;    // modeled duration of the merge stage
  // Engine-era fields (DESIGN.md §9).
  size_t slices = 0;               // Step() slices the run consumed
  size_t planner_candidates = 0;   // pairs the probability planner proposed
  size_t planner_rejections = 0;   // of those, killed by the exact ID check
};

// Reply slot of one compaction run: the leader fills status and report,
// then release-stores done.
struct CompactRequest {
  std::atomic<bool> done{false};
  uint32_t class_idx = 0;
  Status status;
  CompactionReport report;
};

// A compaction run posted to the leader worker (CormNode::
// PostCompactIfFragmented) and not yet waited on. It owns the run's reply
// slot, which the leader writes until the run ends, so the slot is released
// only after the run is done: Wait() returns the result, and a handle
// dropped unwaited waits in its destructor. Move-only; a moved-to handle
// cannot be overwritten, so no pending slot is ever dropped by assignment.
class PendingCompaction {
 public:
  PendingCompaction(PendingCompaction&&) noexcept = default;
  PendingCompaction& operator=(PendingCompaction&&) = delete;
  ~PendingCompaction() {
    if (req_ != nullptr) (void)Wait();
  }

  // Blocks until the run ends and returns its report or error. Call once.
  Result<CompactionReport> Wait();

 private:
  friend class CormNode;
  explicit PendingCompaction(std::unique_ptr<CompactRequest> req)
      : req_(std::move(req)) {}

  std::unique_ptr<CompactRequest> req_;
};

// Waits for every run, in order, even after one fails. Returns the reports
// of the runs that compacted, skipping kNotSupported (a class that is not
// compactable); otherwise the first error, once all runs are done.
Result<std::vector<CompactionReport>> WaitCompactions(
    std::vector<PendingCompaction> runs);

class Worker;            // defined in worker.h (internal)
class CompactionEngine;  // defined in compaction_engine.h (internal)

class CormNode {
 public:
  explicit CormNode(CormConfig config);
  ~CormNode();

  CormNode(const CormNode&) = delete;
  CormNode& operator=(const CormNode&) = delete;

  // --- Client-visible endpoints. ---------------------------------------
  rdma::RpcQueue* rpc_queue() { return &rpc_queue_; }
  rdma::Rnic* rnic() { return rnic_.get(); }
  const CormConfig& config() const { return config_; }
  const alloc::SizeClassTable& classes() const { return classes_; }
  size_t block_bytes() const { return config_.block_pages * sim::kVPageSize; }
  sim::LatencyModel latency_model() const {
    return config_.MakeLatencyModel();
  }

  // --- Fault shims (chaos/testing). --------------------------------------
  // Models a node whose CPU stops serving inbound RPCs (the crash half the
  // reachability flag in dsm::Cluster cannot express): workers finish the
  // requests they already dequeued (up to one drained batch), then stop
  // polling the RPC rings until ResumeService(). Intra-node control
  // messages (corrections, compaction, audits) keep flowing so the control
  // plane and teardown never wedge on a crashed node. Resuming wakes every
  // parked worker: requests queued during the pause did not.
  void PauseService() { paused_.store(true, std::memory_order_release); }
  void ResumeService() {
    // seq_cst store, then WakeAll's loads: a worker parking concurrently
    // either sees the service back or is woken (common/parker.h).
    paused_.store(false, std::memory_order_seq_cst);
    rpc_queue_.WakeAll();
  }
  bool IsServingRequests() const {
    return !paused_.load(std::memory_order_seq_cst);
  }

  // --- Control plane (callable from any non-worker thread). -------------
  // Runs one compaction of `class_idx` through the leader worker's sliced
  // engine and waits for the report. The leader keeps serving data-plane
  // RPCs between engine slices, so this no longer stalls the node; a worker
  // that never answers the Collect fan-out converts to kTimeout via the
  // engine's bounded Collect phase.
  Result<CompactionReport> Compact(uint32_t class_idx);

  // Compacts every class whose fragmentation ratio exceeds the configured
  // threshold (§3.1.3). Returns one report per compacted class.
  Result<std::vector<CompactionReport>> CompactIfFragmented();

  // Non-blocking half of CompactIfFragmented (DESIGN.md §9): queues one run
  // per over-threshold class on the leader (worker 0), in class order, and
  // returns at once. The leader runs its queue one run at a time in posting
  // order; the caller waits through the returned handles (WaitCompactions),
  // so several nodes' leaders can run concurrently.
  std::vector<PendingCompaction> PostCompactIfFragmented();

  // Per-class fragmentation, gathered from the workers via messages.
  std::vector<alloc::ClassFragmentation> Fragmentation();

  // Physical memory currently granted (bytes): live frames * 4 KiB.
  uint64_t ActiveMemoryBytes() const;
  // Reserved virtual address space (bytes).
  uint64_t VirtualMemoryBytes() const;

  // --- Bulk loaders (bypass the RPC path; for tests & benchmarks). -------
  // Allocates `count` objects of `payload_size` bytes spread round-robin
  // across workers; each object is filled with a deterministic pattern
  // derived from its index.
  Result<std::vector<GlobalAddr>> BulkAlloc(size_t count, size_t payload_size);
  // Frees the given objects (routed to their owning workers).
  Status BulkFree(const std::vector<GlobalAddr>& addrs);

  // Aggregated counter snapshot (sums the per-worker shards).
  NodeStats stats() const;

  // Run-loop iterations worker `idx` has started. A worker parked past its
  // spin budget adds one per park timeout (DESIGN.md §7.3).
  uint64_t WorkerPasses(int idx) const;

  // Size class whose payload capacity fits `payload_size`.
  Result<uint32_t> ClassForPayload(uint32_t payload_size) const;

  // Number of unreleased ghost virtual ranges (testing / diagnostics).
  size_t vaddr_ghosts_for_testing() const {
    return vaddr_tracker_.NumGhosts();
  }

  // Direct access to the sharded directory (lock-free-read assertion test).
  const BlockDirectory& directory_for_testing() const { return directory_; }

  // Human-readable node report: per-class fragmentation, memory, ghost and
  // operation counters. For operators and examples.
  std::string DebugReport();

  // Full-node invariant audit: every worker cross-checks its thread
  // allocator on-thread (bitmap/ID-map/counter consistency, non-full stack
  // integrity), then the block allocator's lifecycle counters are verified.
  // Always compiled — tests call it directly; the CORM_AUDIT build adds
  // per-operation hooks on top. Callable from any non-worker thread.
  Status Audit();

  // Single-block audit, used by the compaction leader after every merge and
  // by tests: the directory must resolve the block's base (and each ghost
  // alias) back to it, every quiescent live slot's header must agree with
  // the block's ID map, class and home-block directory entry, and the
  // payload's cacheline version bytes must validate. Slots under a
  // concurrent write are skipped via the seqlock.
  Status AuditBlock(const alloc::Block& block);

  // Background compaction scheduler control (config.background_compaction
  // starts it at construction; these let tests and operators toggle it).
  void StartBackgroundCompaction();
  void StopBackgroundCompaction();

  // --- Background task registry (DESIGN.md §11). -------------------------
  // Registers `task` with the duty-cycled scheduler thread: it runs once
  // per tick while the node is serving (the same gate the compaction pass
  // uses). Returns a handle for UnregisterBackgroundTask, which blocks
  // until any in-progress tick of the task has finished — after it returns,
  // the task will never run again and its captures may be destroyed.
  int RegisterBackgroundTask(std::function<void()> task);
  void UnregisterBackgroundTask(int id);

  // --- Replicated-log ingress (DESIGN.md §11). ---------------------------
  // Remote-access coordinates of one ingress ring, handed to the primary's
  // ReplicaLogShipper at session setup.
  struct ReplIngressCoords {
    int id = 0;
    sim::VAddr base = 0;
    rdma::RKey r_key = 0;
    uint32_t slots = 0;
    uint32_t slot_bytes = 0;
    // Parking spot of the worker that drains the ring: a writer wakes it
    // after landing a record, so an idle applier does not sleep out its
    // park timeout.
    Parker* drainer = nullptr;
  };
  // Creates a sequenced ingress ring in this node's registered memory.
  // Ring `id` is drained (and its records applied in sequence order) by
  // worker `id % num_workers` between RPC batches. Rings live until node
  // teardown — like RPC rings, they are connection state, not data.
  Result<ReplIngressCoords> CreateReplIngress(uint32_t slots,
                                              uint32_t slot_bytes);

  // Stat shard for non-worker threads (clients, control plane): the
  // replication layer attributes its ship-side counters to the primary
  // node through this.
  NodeStatShard& client_stat_shard() { return stat_shard(-1); }

  // A client context's own stat shard: one of kClientStatShards, dealt
  // round-robin at context creation, so concurrent clients' per-op
  // increments (index_lookups, index_one_sided_hits, ...) never share a
  // cacheline with each other or with the overflow shard.
  static constexpr size_t kClientStatShards = 8;
  NodeStatShard& NextClientStatShard() {
    const size_t i =
        next_client_shard_.fetch_add(1, std::memory_order_relaxed) %
        kClientStatShards;
    return stat_shards_.shard(static_cast<size_t>(config_.num_workers) + 1 +
                              i);
  }

  // --- Keyed index table (DESIGN.md §13). --------------------------------
  // Remote-access coordinates of this node's index bucket table: word 0 is
  // the index fence epoch, buckets follow the 64-byte header. Registered
  // (ODP) at construction, like a repl ring.
  index::IndexTableCoords index_table() const {
    index::IndexTableCoords coords;
    coords.base = index_table_base_;
    coords.r_key = index_table_keys_.r_key;
    coords.buckets = index_buckets_;
    return coords;
  }
  // Node-side seqlocked view over the same memory (workers, the compaction
  // engine's IndexRepair sub-phase, and the DSM re-home path go through
  // it).
  index::IndexTable* index_view() { return index_view_.get(); }
  // Current index fence epoch (word 0 of the table).
  uint64_t IndexEpoch() const;
  // Bumps the index epoch, instantly fencing every earlier entry: a
  // one-sided lookup that matches a fenced entry must revalidate through
  // the RPC path, which re-mints the entry under the new epoch. Invoked by
  // the DSM layer when a re-homed node revives holding pre-crash entries.
  // Counts the newly fenced live entries into index_fenced_entries.
  void SealIndexEpoch();

 private:
  friend class Worker;
  friend class CompactionEngine;

  // Block directory entry: maps a live *virtual block base* (current blocks
  // and ghost aliases) to the Block that owns the bytes behind it.
  using DirectoryEntry = BlockDirectory::Entry;

  // Lock-free read (see block_directory.h for the safety argument).
  DirectoryEntry LookupBlock(sim::VAddr base) const {
    return directory_.Lookup(base);
  }
  void DirectoryInsert(sim::VAddr base, alloc::Block* block, bool is_alias) {
    directory_.Insert(base, block, is_alias);
  }
  void DirectoryErase(sim::VAddr base) { directory_.Erase(base); }

  // Queues one run of `class_idx` on the leader without waiting.
  PendingCompaction PostCompact(uint32_t class_idx);

  // Compaction remap of src into dst with all node-level bookkeeping
  // (directory retarget, ghost tracking) serialized under the alias lock.
  // src's own pages move to `*retired` for FreeRetired (see
  // alloc::BlockAllocator::MergeRemap). Returns the modeled remap duration;
  // the caller paces it afterwards.
  Result<uint64_t> MergeRemap(alloc::Block* src, alloc::Block* dst,
                              sim::PhysBlock* retired);

  // Releases a ghost virtual range after its last homed object died.
  void ReleaseGhostAction(const GhostToRelease& ghost);

  // Retires a merged-away source or destroyed block. The Block object stays
  // alive in the graveyard for the node's lifetime so that in-flight
  // references from other workers (correction routing, scans, stale
  // lock-free directory reads) never dangle.
  void RetireBlock(std::unique_ptr<alloc::Block> block);

  // Binds the calling thread to worker `id` for stat-shard attribution.
  void BindWorkerThread(int id);
  // The calling thread's stat shard: its worker's shard on a worker thread,
  // the overflow shard (index num_workers) otherwise.
  NodeStatShard& CurrentStatShard();
  NodeStatShard& stat_shard(int worker_id) {
    const bool is_worker = worker_id >= 0 && worker_id < config_.num_workers;
    return stat_shards_.shard(
        is_worker ? static_cast<size_t>(worker_id)
                  : static_cast<size_t>(config_.num_workers));
  }

  Worker* worker(int idx) { return workers_[idx].get(); }
  int num_workers() const { return config_.num_workers; }

  const CormConfig config_;
  alloc::SizeClassTable classes_;

  // Substrate. Order matters for destruction (reverse of declaration).
  std::unique_ptr<sim::PhysicalMemory> phys_;
  std::unique_ptr<sim::AddressSpace> space_;
  std::unique_ptr<sim::MemFileManager> files_;
  std::unique_ptr<rdma::Rnic> rnic_;
  std::unique_ptr<alloc::BlockAllocator> block_allocator_;

  rdma::RpcQueue rpc_queue_;
  VaddrTracker vaddr_tracker_;
  // Layout: one shard per worker, the overflow shard, then the
  // kClientStatShards client shards.
  Sharded<NodeStatShard> stat_shards_;
  std::atomic<uint32_t> next_client_shard_{0};

  // Sharded, lock-free-read block directory (replaces the old
  // RankedSharedMutex + unordered_map; see block_directory.h).
  BlockDirectory directory_;

  // Serializes ghost-alias-list mutation (Block::aliases()) between the
  // compaction remap retarget and the last-object ghost release — the role
  // the old whole-directory lock played. Ranked below the directory shard
  // locks so both paths may update directory entries while holding it.
  RankedSpinLock alias_mu_{LockRank::kAliasList};

  // Leaf lock: push-only until node teardown.
  RankedSpinLock graveyard_mu_{LockRank::kGraveyard};
  std::vector<std::unique_ptr<alloc::Block>> graveyard_
      GUARDED_BY(graveyard_mu_);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> paused_{false};

  // Replicated-log ingress registry. Fixed capacity, pre-sized at
  // construction: workers scan [0, repl_ingress_count_) lock-free between
  // RPC batches, so the vector must never reallocate. Appends serialize on
  // repl_ingress_mu_ and publish by release-storing the new count.
  // Declared after rnic_/space_ (rings deregister through both on
  // destruction, so they must be destroyed first).
  static constexpr size_t kMaxReplIngress = 512;
  RankedSpinLock repl_ingress_mu_{LockRank::kReplIngress};
  std::vector<std::unique_ptr<rdma::ReplLogRing>> repl_ingress_;
  std::atomic<size_t> repl_ingress_count_{0};

  // Keyed index table backing state (mapped + registered in the
  // constructor, torn down explicitly in ~CormNode after the threads join —
  // it needs rnic_ and space_ alive).
  sim::VAddr index_table_base_ = 0;
  size_t index_table_pages_ = 0;
  rdma::MrKeys index_table_keys_;
  uint32_t index_buckets_ = 0;
  std::unique_ptr<index::IndexTable> index_view_;

  // Background scheduler (DESIGN.md §9, generalized in §11): one
  // duty-cycled thread that runs the compaction pass (when
  // sched_compact_ is set) and every registered background task per tick.
  // The thread exists while either client needs it; sched_running_ guards
  // Start/Stop idempotence.
  void BackgroundSchedulerLoop();
  void EnsureSchedulerThread();
  void StopSchedulerThreadIfIdle();
  std::thread sched_thread_;
  std::atomic<bool> sched_stop_{false};
  bool sched_running_ = false;
  std::atomic<bool> sched_compact_{false};
  // Outermost-ranked: tasks run while it is held (that is what gives
  // UnregisterBackgroundTask its blocks-until-done guarantee) and may take
  // any CoRM lock underneath.
  RankedSpinLock sched_tasks_mu_{LockRank::kScheduler};
  std::vector<std::pair<int, std::function<void()>>> sched_tasks_
      GUARDED_BY(sched_tasks_mu_);
  int sched_task_next_id_ GUARDED_BY(sched_tasks_mu_) = 0;
};

}  // namespace corm::core

#endif  // CORM_CORE_CORM_NODE_H_
