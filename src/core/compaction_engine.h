// Incremental compaction engine (paper §3.1.2–§3.1.4, Mesh-style pacing).
//
// The old leader monolith (Worker::RunCompaction) held the leader hostage
// for an entire merge: collect every donated block, pair, copy, remap —
// all inside one inbox message, with RPC serving stalled throughout. The
// engine re-expresses the same two-stage protocol as an explicit state
// machine,
//
//   Select → Collect → ConflictCheck → Copy → IndexRepair → Remap → Fixup
//     → Reclaim
//
// stepped one *slice* at a time from the leader's run loop. Each slice is
// bounded by a budget (CormConfig::compaction_slice_objects /
// compaction_slice_pairs), so data-plane RPCs and inbox messages interleave
// between slices instead of queueing behind a monolithic merge. Candidate
// pairs come from the probability-guided planner (alloc::PlanMerges over
// core/probability.cc's p(B1,B2)) instead of first-fit; the exact ID-
// disjointness check then confirms or rejects each planned pair.
//
// Phase semantics:
//   Select        validate the class, fan out kCollect to peers, detach the
//                 leader's own low-occupancy blocks, arm the collect
//                 deadline.
//   Collect       poll donation replies without blocking; when a worker
//                 never answers within compaction_collect_deadline_ns the
//                 run aborts with kTimeout (reply slots survive as zombies
//                 until the straggler writes them). On completion: trim the
//                 pool, pace the modeled collection cost, build the plan.
//   ConflictCheck confirm planned pairs (fit + ID-disjointness); rejected
//                 pairs fall back to an exact scan for the most-utilized
//                 feasible destination. Budget: slice_pairs candidates.
//   Copy          per-object kCompacting lock + payload copy into the
//                 destination (the copy is written kCompacting too),
//                 offset-preserving when possible. Budget: slice_objects
//                 per slice; a lock that stays write-held past a bounded
//                 deadline rolls the pair back and aborts. kCompacting
//                 excludes writers only: readers snapshot either side.
//   IndexRepair   budgeted walk of the keyed index (DESIGN.md §13):
//                 entries hinting at the pair's moved objects are rewritten
//                 to the destination copies while sources and copies both
//                 sit under kCompacting, so a concurrent one-sided lookup
//                 reads the same current bytes through either — never a
//                 dangling hint. Undone entry-by-entry if the pair aborts.
//   Remap         one batched MTT repair epoch retargets src's vaddr (and
//                 chained ghosts) onto dst's frames, then publishes the
//                 copies kFree. A failed remap rolls the pair back.
//   Fixup         wait (slice by slice) until no peer can still be reading
//                 src's old pages, free them, retire src to the graveyard,
//                 audit dst, commit per-pair counters, re-enter
//                 ConflictCheck for the next pair.
//   Reclaim       return surviving pool blocks to the leader's allocator a
//                 few per slice, then publish the report and go idle.
//
// Ownership note: detached pool blocks keep owner_thread == -1 for the
// whole run (the monolith parked them on the leader id). Frees against
// them bounce with ObjectLocked ("ownership in transit", retryable) and
// pointer corrections fall back to the coherent-bytes scan — both paths
// the substrate already handles for in-transit blocks.
//
// Internal header: not part of the public API surface.

#ifndef CORM_CORE_COMPACTION_ENGINE_H_
#define CORM_CORE_COMPACTION_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "alloc/block.h"
#include "alloc/fragmentation.h"
#include "common/retry.h"
#include "common/slice.h"
#include "core/corm_node.h"
#include "core/worker.h"

namespace corm::core {

class CompactionEngine {
 public:
  CompactionEngine(CormNode* node, Worker* worker);
  ~CompactionEngine();

  CompactionEngine(const CompactionEngine&) = delete;
  CompactionEngine& operator=(const CompactionEngine&) = delete;

  // Queues a compaction request; the leader's run loop drives it to
  // completion via Step(). Caller-owned reply slot (req->done published
  // with release when the run finishes).
  void Enqueue(CompactRequest* req);

  // True while a run is active or queued (the run loop should keep
  // stepping).
  bool active() const { return req_ != nullptr || !pending_.empty(); }

  // Advances the active run by one bounded slice. Returns true when it did
  // work. When both slice budgets are SIZE_MAX the engine degrades to the
  // pre-refactor monolith: the whole run completes within one Step() call
  // (corrections are still served while waiting on collectors, exactly as
  // RunCompaction did) — the pause bench uses this as its baseline.
  bool Step();

  // Completes the active and queued requests with an error and adopts any
  // collected blocks back into the leader's allocator. Called by the
  // leader thread when its run loop exits; no protocol runs afterwards.
  void Shutdown();

  CompactionPhase phase() const { return phase_; }

 private:
  struct CopiedObject {
    uint32_t src_slot = 0;
    uint32_t dst_slot = 0;
    uint16_t obj_id = 0;
  };

  void BeginRun(CompactRequest* req);
  void FinishRun();
  void SetPhase(CompactionPhase next);
  void RunPhaseSlice();

  void StepSelect();
  void StepCollect();
  void StepConflictCheck();
  void StepCopy();
  void StepIndexRepair();
  void StepRemap();
  void StepFixup();
  void StepReclaim();

  // Builds the probability-guided merge plan over the collected pool.
  void BuildPlan();
  // Exact-scan fallback: most-utilized feasible ID-disjoint destination for
  // pool_[src_idx], or SIZE_MAX.
  size_t FallbackDst(size_t src_idx) const;
  // Prepares the per-pair copy state and enters kCopy.
  void BeginPair(size_t src_idx, size_t dst_idx);
  // Undoes a pair that has not been remapped (restores repaired index
  // entries, tombstones and frees the copies, unlocks src objects) and
  // aborts the run with `why`.
  void AbortPair(Status why);
  // Adopts completed zombie replies' blocks back into the allocator.
  void ReapZombies();
  // True once every peer worker passed peer_passes_ or is parked.
  bool PeersQuiesced() const;
  // Copies up to `budget` objects of the active pair; returns false when the
  // pair aborted (lock deadline).
  bool CopyObjects(size_t budget);

  CormNode* const node_;
  Worker* const worker_;
  NodeStatShard& stats_;
  const std::function<void(CompactionPhase)> phase_hook_;

  // Queued requests beyond the active one (Enqueue during an active run).
  std::vector<CompactRequest*> pending_;

  // --- Active-run state (valid while req_ != nullptr). -------------------
  CompactRequest* req_ = nullptr;
  CompactionPhase phase_ = CompactionPhase::kIdle;
  CompactionReport report_;
  Status status_;

  // Collect phase: outstanding donation replies and the run deadline.
  std::vector<std::unique_ptr<CollectReply>> replies_;
  std::optional<Deadline> collect_deadline_;
  // Replies whose worker missed the deadline: kept alive until the
  // straggler publishes done (its blocks are then adopted by ReapZombies).
  std::vector<std::unique_ptr<CollectReply>> zombies_;

  // The collected block pool (entries null out as pairs consume them).
  std::vector<std::unique_ptr<alloc::Block>> pool_;

  // Probability-ranked plan and confirmation cursor.
  std::vector<alloc::MergeCandidate> plan_;
  size_t plan_cursor_ = 0;

  // Active pair (kCopy/kIndexRepair/kRemap/kFixup).
  size_t src_idx_ = SIZE_MAX;
  size_t dst_idx_ = SIZE_MAX;
  std::vector<uint32_t> live_slots_;
  size_t copy_cursor_ = 0;
  std::vector<CopiedObject> copied_;
  // IndexRepair sub-phase state: the bucket-walk cursor, the pair's moved
  // objects by ID (obj_id → dst slot; IDs are pair-unique by the
  // ConflictCheck disjointness guarantee), and the undo log a pair abort
  // replays so no repaired entry outlives its destination copy.
  struct RepairedEntry {
    uint64_t key = 0;
    GlobalAddr prev;
  };
  uint64_t index_repair_cursor_ = 0;
  std::unordered_map<uint16_t, uint32_t> index_repair_targets_;
  std::vector<RepairedEntry> index_repaired_;
  // Pair-local counters, committed into the report/shard only at Fixup so
  // an aborted pair leaves the totals untouched.
  size_t pair_moved_ = 0;
  size_t pair_relocated_ = 0;
  size_t pair_offset_preserved_ = 0;
  uint64_t pair_bytes_copied_ = 0;
  Buffer payload_;  // reusable staging buffer for object copies

  // Pages of the last merged src, freed in Fixup once every peer worker
  // has moved past a read it might have started through src's old
  // translation: a started run-loop iteration or a park after the remap.
  sim::PhysBlock retired_;
  bool has_retired_ = false;
  std::vector<uint64_t> peer_passes_;  // Worker::passes() read after Remap

  // Reclaim cursor over pool_.
  size_t reclaim_cursor_ = 0;
};

}  // namespace corm::core

#endif  // CORM_CORE_COMPACTION_ENGINE_H_
