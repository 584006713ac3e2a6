// Compaction engine phase handlers (see compaction_engine.h for the state
// machine and ownership notes). corm-tidy rule 8 holds this file to a stricter
// standard than the rest of the tree: no unbounded waits of any kind — every
// wait is either a non-blocking poll re-entered on the next slice or a
// Deadline-bounded loop that aborts the run with kTimeout.

#include "core/compaction_engine.h"

#include <algorithm>
#include <utility>

#include "common/cpu_relax.h"
#include "common/lock_rank.h"
#include "common/logging.h"
#include "common/sanitizer.h"
#include "common/thread_annotations.h"
#include "core/addr.h"
#include "core/object_layout.h"
#include "core/probability.h"
#include "index/index_table.h"
#include "sim/fault_injector.h"
#include "sim/latency_model.h"

namespace corm::core {

namespace {

// True when the two blocks share no object IDs (§3.1.2: CoRM can compact
// two blocks only if the objects in them do not have the same IDs).
bool IdsDisjoint(const alloc::Block& a, const alloc::Block& b) {
  const auto& small = a.id_map().size() <= b.id_map().size() ? a : b;
  const auto& large = a.id_map().size() <= b.id_map().size() ? b : a;
  for (const auto& [id, slot] : small.id_map()) {
    if (large.HasId(static_cast<uint16_t>(id))) return false;
  }
  return true;
}

// Wall-clock bound on waiting out one object's transient writer lock
// during Copy. Writers hold the header lock for a modeled DMA duration
// (microseconds); a lock still held after this budget means something is
// stuck, and the pair rolls back instead of wedging the leader.
constexpr uint64_t kObjectLockDeadlineNs = 1'000'000'000;

}  // namespace

CompactionEngine::CompactionEngine(CormNode* node, Worker* worker)
    : node_(node),
      worker_(worker),
      stats_(node->stat_shard(worker->id())),
      phase_hook_(node->config().compaction_phase_hook) {}

CompactionEngine::~CompactionEngine() {
  // A run stopped between Remap and Fixup: every worker has joined by now.
  if (has_retired_) node_->block_allocator_->FreeRetired(retired_);
}

void CompactionEngine::Enqueue(CompactRequest* req) {
  pending_.push_back(req);
}

void CompactionEngine::SetPhase(CompactionPhase next) {
  phase_ = next;
  ++stats_.compaction_phase_transitions;
  if (phase_hook_) phase_hook_(next);
}

void CompactionEngine::BeginRun(CompactRequest* req) {
  req_ = req;
  report_ = CompactionReport{};
  report_.class_idx = req->class_idx;
  status_ = Status::OK();
  plan_.clear();
  plan_cursor_ = 0;
  reclaim_cursor_ = 0;
  src_idx_ = dst_idx_ = SIZE_MAX;
  SetPhase(CompactionPhase::kSelect);
}

void CompactionEngine::FinishRun() {
  CORM_CHECK(replies_.empty());
  pool_.clear();
  plan_.clear();
  collect_deadline_.reset();
  req_->report = report_;
  req_->status = status_;
  req_->done.store(true, std::memory_order_release);
  req_ = nullptr;
  SetPhase(CompactionPhase::kIdle);
}

bool CompactionEngine::Step() {
  ReapZombies();
  if (req_ == nullptr) {
    if (pending_.empty()) return false;
    BeginRun(pending_.front());
    pending_.erase(pending_.begin());
  }
  // Monolithic degradation: unbounded budgets collapse the run back into
  // one call, reproducing the pre-refactor stall profile (the pause bench's
  // baseline). Corrections are still served between internal slices so
  // peers spinning on us cannot deadlock, exactly as RunCompaction did.
  const CormConfig& cfg = node_->config();
  const bool monolithic = cfg.compaction_slice_objects == SIZE_MAX &&
                          cfg.compaction_slice_pairs == SIZE_MAX;
  RunPhaseSlice();
  if (monolithic) {
    // Bounded: Collect is capped by its deadline, and every other phase
    // strictly consumes pool/plan/object state each slice.
    while (req_ != nullptr) {
      if (auto pending = worker_->inbox_.TryPop()) {
        if (pending->kind == WorkerMsg::Kind::kCorrection) {
          worker_->HandleInbox(*pending);
        } else {
          worker_->Send(*pending);  // requeue; processed after the run
        }
      }
      RunPhaseSlice();
    }
  }
  return true;
}

void CompactionEngine::RunPhaseSlice() {
  // Outermost rank for everything a slice touches below (thread allocator,
  // directory, block allocator, trackers). Entered per slice: the rank
  // region is thread-local state and must not span returns to the RPC loop.
  LockRankRegion region(LockRank::kCompactionLeader);
  ++stats_.compaction_slices;
  ++report_.slices;
  switch (phase_) {
    case CompactionPhase::kSelect:
      StepSelect();
      break;
    case CompactionPhase::kCollect:
      StepCollect();
      break;
    case CompactionPhase::kConflictCheck:
      StepConflictCheck();
      break;
    case CompactionPhase::kCopy:
      StepCopy();
      break;
    case CompactionPhase::kIndexRepair:
      StepIndexRepair();
      break;
    case CompactionPhase::kRemap:
      StepRemap();
      break;
    case CompactionPhase::kFixup:
      StepFixup();
      break;
    case CompactionPhase::kReclaim:
      StepReclaim();
      break;
    case CompactionPhase::kIdle:
      break;  // unreachable: Step() only slices an active run
  }
}

// --- Select: validate, fan out, detach local candidates. -------------------

void CompactionEngine::StepSelect() {
  ++stats_.compaction_runs;
  const uint32_t class_idx = req_->class_idx;
  if (!worker_->ClassCompactable(class_idx)) {
    status_ = Status::NotSupported(
        "size class holds more objects than the object-ID space addresses");
    SetPhase(CompactionPhase::kReclaim);  // empty pool: publishes and idles
    return;
  }
  const CormConfig& cfg = node_->config();
  const int nworkers = node_->num_workers();
  for (int w = 0; w < nworkers; ++w) {
    if (w == worker_->id()) continue;
    replies_.push_back(std::make_unique<CollectReply>());
    WorkerMsg msg;
    msg.kind = WorkerMsg::Kind::kCollect;
    msg.class_idx = class_idx;
    msg.max_occupancy = cfg.collection_max_occupancy;
    msg.max_blocks = cfg.compaction_max_blocks;
    msg.collect = replies_.back().get();
    node_->worker(w)->Send(msg);
  }
  // The leader's own blocks are detached only once every peer has donated
  // (end of Collect): while peers are answering, the leader keeps serving
  // owner-bound ops on its blocks — the monolith had them in transit for
  // the whole wait.
  collect_deadline_.emplace(cfg.compaction_collect_deadline_ns);
  SetPhase(CompactionPhase::kCollect);
}

// --- Collect: non-blocking donation poll with a run deadline. --------------

void CompactionEngine::StepCollect() {
  for (auto it = replies_.begin(); it != replies_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      for (auto& block : (*it)->blocks) pool_.push_back(std::move(block));
      it = replies_.erase(it);
    } else {
      ++it;
    }
  }
  if (!replies_.empty()) {
    if (!collect_deadline_->Expired()) return;  // poll again next slice
    // A collector never answered. Its reply slot must outlive this run (a
    // late donation still writes into it), so it moves to the zombie list;
    // ReapZombies adopts whatever arrives later.
    for (auto& reply : replies_) zombies_.push_back(std::move(reply));
    replies_.clear();
    ++stats_.compaction_timeouts;
    status_ = Status::Timeout(
        "compaction collect: a worker did not donate within the deadline");
    SetPhase(CompactionPhase::kReclaim);
    return;
  }
  const CormConfig& cfg = node_->config();
  for (auto& block : worker_->allocator()->CollectBlocks(
           req_->class_idx, cfg.collection_max_occupancy,
           cfg.compaction_max_blocks)) {
    pool_.push_back(std::move(block));
  }
  if (pool_.size() > cfg.compaction_max_blocks) {
    // Return the overflow immediately (most-utilized blocks last).
    std::sort(pool_.begin(), pool_.end(), [](const auto& a, const auto& b) {
      return a->used_slots() < b->used_slots();
    });
    while (pool_.size() > cfg.compaction_max_blocks) {
      worker_->allocator()->AdoptBlock(std::move(pool_.back()));
      pool_.pop_back();
    }
  }
  report_.blocks_collected = pool_.size();
  report_.collection_ns =
      node_->latency_model().CollectionNs(node_->num_workers());
  sim::Pace(report_.collection_ns);
  BuildPlan();
  SetPhase(CompactionPhase::kConflictCheck);
}

void CompactionEngine::BuildPlan() {
  std::vector<alloc::BlockOccupancy> occupancy;
  occupancy.reserve(pool_.size());
  for (size_t i = 0; i < pool_.size(); ++i) {
    occupancy.push_back({i, pool_[i]->used_slots(), pool_[i]->num_slots()});
  }
  const int id_bits = node_->config().object_id_bits;
  const uint64_t slots = pool_.empty() ? 0 : pool_.front()->num_slots();
  plan_ = alloc::PlanMerges(
      occupancy,
      [id_bits, slots](uint64_t b1, uint64_t b2) {
        return CormCompactionProbability(id_bits, slots, b1, b2);
      });
  plan_cursor_ = 0;
  report_.planner_candidates = plan_.size();
}

// --- ConflictCheck: confirm planned pairs against exact ID maps. -----------

size_t CompactionEngine::FallbackDst(size_t src_idx) const {
  const alloc::Block* src = pool_[src_idx].get();
  size_t best = SIZE_MAX;
  for (size_t i = 0; i < pool_.size(); ++i) {
    if (i == src_idx || pool_[i] == nullptr) continue;
    const alloc::Block* dst = pool_[i].get();
    if (src->used_slots() + dst->used_slots() > dst->num_slots()) continue;
    if (best != SIZE_MAX &&
        dst->used_slots() <= pool_[best]->used_slots()) {
      continue;  // only ID-check candidates that beat the incumbent
    }
    if (IdsDisjoint(*src, *dst)) best = i;
  }
  return best;
}

void CompactionEngine::StepConflictCheck() {
  const size_t budget =
      std::max<size_t>(node_->config().compaction_slice_pairs, 1);
  for (size_t step = 0; step < budget; ++step) {
    if (plan_cursor_ >= plan_.size()) {
      SetPhase(CompactionPhase::kReclaim);
      return;
    }
    const alloc::MergeCandidate cand = plan_[plan_cursor_++];
    if (pool_[cand.src_index] == nullptr) continue;  // consumed earlier
    const alloc::Block* src = pool_[cand.src_index].get();
    if (src->Empty()) continue;
    size_t dst_idx = cand.dst_index;
    const alloc::Block* dst =
        pool_[dst_idx] != nullptr ? pool_[dst_idx].get() : nullptr;
    const bool planned_ok =
        dst != nullptr &&
        src->used_slots() + dst->used_slots() <= dst->num_slots() &&
        IdsDisjoint(*src, *dst);
    if (!planned_ok) {
      // The probabilistic ranking proposed a pair the exact check (or the
      // pool's evolution since planning) rejects: fall back to the exact
      // scan the monolith used — most-utilized feasible disjoint block.
      ++report_.planner_rejections;
      ++stats_.compaction_planner_rejections;
      dst_idx = FallbackDst(cand.src_index);
      if (dst_idx == SIZE_MAX) {
        // No destination anywhere: src survives as-is.
        worker_->allocator()->AdoptBlock(std::move(pool_[cand.src_index]));
        continue;
      }
    }
    BeginPair(cand.src_index, dst_idx);
    return;
  }
}

// --- Copy: budgeted per-object lock + move. --------------------------------

void CompactionEngine::BeginPair(size_t src_idx, size_t dst_idx) {
  src_idx_ = src_idx;
  dst_idx_ = dst_idx;
  const alloc::Block* src = pool_[src_idx_].get();
  CORM_CHECK_EQ(src->slot_size(), pool_[dst_idx_]->slot_size());
  live_slots_.clear();
  live_slots_.reserve(src->used_slots());
  for (uint32_t slot = 0; slot < src->num_slots(); ++slot) {
    if (src->SlotAllocated(slot)) live_slots_.push_back(slot);
  }
  copy_cursor_ = 0;
  copied_.clear();
  index_repair_cursor_ = 0;
  index_repair_targets_.clear();
  index_repaired_.clear();
  pair_moved_ = pair_relocated_ = pair_offset_preserved_ = 0;
  pair_bytes_copied_ = 0;
  SetPhase(CompactionPhase::kCopy);
}

void CompactionEngine::StepCopy() {
  const size_t budget =
      std::max<size_t>(node_->config().compaction_slice_objects, 1);
  if (!CopyObjects(budget)) return;  // pair aborted; phase already changed
  if (copy_cursor_ >= live_slots_.size()) {
    // Every object of the pair now has a destination copy, and sources and
    // copies alike hold kCompacting: both read the same bytes and neither
    // takes a write, exactly the window the IndexRepair sub-phase needs to
    // retarget keyed hints safely.
    index_repair_cursor_ = 0;
    index_repair_targets_.clear();
    index_repair_targets_.reserve(copied_.size());
    for (const CopiedObject& obj : copied_) {
      index_repair_targets_.emplace(obj.obj_id, obj.dst_slot);
    }
    SetPhase(CompactionPhase::kIndexRepair);
  }
}

// --- IndexRepair: retarget keyed hints at the destination copies. ----------

void CompactionEngine::StepIndexRepair() {
  // Fault site: widen the src-coordinates window before each repair slice
  // so the lookup-during-compaction tests can race against it.
  uint64_t delay_ns = 0;
  if (auto* inj = sim::GlobalFaultInjector();
      inj != nullptr &&
      inj->ShouldFire(sim::fault_sites::kIndexRepairDelay, &delay_ns)) {
    if (delay_ns > 0) sim::Pace(delay_ns);
  }

  alloc::Block* src = pool_[src_idx_].get();
  alloc::Block* dst = pool_[dst_idx_].get();
  const size_t block_bytes = node_->block_bytes();
  index::IndexTable* table = node_->index_view();
  // Bucket budget per slice: the walk holds one bucket seqlock at a time,
  // so the data plane interleaves between slices like every other phase.
  const size_t budget =
      std::max<size_t>(node_->config().compaction_slice_objects, 1);
  const size_t repaired = table->RepairScan(
      &index_repair_cursor_, budget, [&](index::IndexEntry* e) {
        if (e->addr.class_idx != req_->class_idx) return false;
        // The entry's hint may reference the source block through any of
        // its client-visible bases (canonical or ghost alias): resolve
        // through the directory, exactly like the RPC path does.
        const sim::VAddr base = BlockBaseOf(e->addr.vaddr, block_bytes);
        if (worker_->LookupBlockCached(base).block != src) return false;
        const auto it = index_repair_targets_.find(e->addr.obj_id);
        if (it == index_repair_targets_.end()) return false;
        index_repaired_.push_back({e->key, e->addr});
        e->addr.vaddr = dst->SlotAddr(it->second);
        e->addr.r_key = dst->keys().r_key;
        e->addr.flags = 0;
        e->addr.SetOwnerHint(dst->owner_thread());
        return true;
      });
  stats_.index_repairs += repaired;
  if (index_repair_cursor_ >= table->buckets()) {
    SetPhase(CompactionPhase::kRemap);
  }
}

// Escape: lock hand-off during the object copy — per-object kCompacting
// header locks are CAS-acquired here and released in another phase:
// StepRemap publishes the copies as kFree once src's bytes are retargeted
// at them (no unlock call pairs with the acquisition for the analyzer).
bool CompactionEngine::CopyObjects(size_t budget) NO_THREAD_SAFETY_ANALYSIS {
  alloc::Block* src = pool_[src_idx_].get();
  alloc::Block* dst = pool_[dst_idx_].get();
  const uint32_t slot_size = src->slot_size();
  const uint32_t capacity = PayloadCapacity(slot_size);
  payload_.resize(capacity);

  for (size_t n = 0; n < budget && copy_cursor_ < live_slots_.size(); ++n) {
    const uint32_t slot = live_slots_[copy_cursor_];
    uint8_t* sptr = worker_->SlotPtr(src->base(), src, slot);

    // 1. Lock the object (kCompacting): writers cannot acquire it, while
    //    readers still take validated snapshots (DESIGN.md §8). The pool is
    //    detached (owner -1), so no free can tombstone the slot under us;
    //    only transient writer locks are possible, bounded by the deadline
    //    below.
    uint64_t w = LoadHeaderWord(sptr);
    Deadline lock_deadline(kObjectLockDeadlineNs);
    for (;;) {
      ObjectHeader h = ObjectHeader::Unpack(w);
      CORM_CHECK(h.lock != LockState::kCompacting &&
                 h.lock != LockState::kTombstone)
          << "unexpected lock state in live slot";
      if (h.lock == LockState::kWriteLocked) {
        if (lock_deadline.Expired()) {
          AbortPair(Status::Timeout(
              "compaction copy: object writer lock never released"));
          return false;
        }
        CpuRelax();  // writers hold the lock briefly
        w = LoadHeaderWord(sptr);
        continue;
      }
      ObjectHeader locked = h;
      locked.lock = LockState::kCompacting;
      if (CasHeaderWord(sptr, w, locked.Pack())) break;
    }

    // 2. Copy into dst, preserving the offset when possible (§3.1.2:
    //    preserving offsets keeps pointers direct). The copy is locked
    //    kCompacting too: IndexRepair publishes its address before the
    //    remap, and a write landing on it there would be invisible to
    //    readers of the source.
    const ObjectHeader h = ObjectHeader::Unpack(LoadHeaderWord(sptr));
    uint32_t dslot = slot;
    if (!dst->AllocSlotAt(slot)) {
      auto fresh = dst->AllocSlot();
      CORM_CHECK(fresh.has_value()) << "destination block overflow";
      dslot = *fresh;
      ++pair_relocated_;
    } else {
      ++pair_offset_preserved_;
    }
    ++pair_moved_;
    ReadPayload(sptr, slot_size, payload_.data(), capacity);
    uint8_t* dptr = worker_->SlotPtr(dst->base(), dst, dslot);
    WritePayload(dptr, slot_size, h.version, payload_.data(), capacity);
    StoreHeaderWord(dptr, h.Pack());
    CORM_CHECK(dst->InsertId(h.obj_id, dslot)) << "ID conflict after check";
    pair_bytes_copied_ += capacity;
    copied_.push_back({slot, dslot, h.obj_id});
    ++copy_cursor_;
    // The object keeps its home block; the vaddr tracker is unaffected.
  }
  return true;
}

void CompactionEngine::AbortPair(Status why) {
  alloc::Block* src = pool_[src_idx_].get();
  alloc::Block* dst = pool_[dst_idx_].get();
  // First undo any keyed-index repairs (newest first): the destination
  // slots are about to be freed, and a repaired entry must never outlive
  // the copy it points at. Sources and copies still hold the same bytes
  // and both exclude writers, so a lookup through either reads the value.
  for (auto it = index_repaired_.rbegin(); it != index_repaired_.rend();
       ++it) {
    node_->index_view()->Repair(it->key, it->prev);
  }
  index_repaired_.clear();
  index_repair_targets_.clear();
  // Undo the copies: tombstone each copy, release its slot and ID, and only
  // then unlock its source (kCompacting → kFree, the pre-copy state). Once
  // the source takes writes, a reader still holding the copy's address
  // (a hint read before the undo) gets kObjectMoved, never the old bytes.
  for (const CopiedObject& obj : copied_) {
    uint8_t* dptr = worker_->SlotPtr(dst->base(), dst, obj.dst_slot);
    ObjectHeader copy = ObjectHeader::Unpack(LoadHeaderWord(dptr));
    CORM_CHECK(copy.lock == LockState::kCompacting);
    copy.lock = LockState::kTombstone;
    StoreHeaderWord(dptr, copy.Pack());
    dst->EraseId(obj.obj_id);
    dst->FreeSlot(obj.dst_slot);
    uint8_t* sptr = worker_->SlotPtr(src->base(), src, obj.src_slot);
    ObjectHeader h = ObjectHeader::Unpack(LoadHeaderWord(sptr));
    CORM_CHECK(h.lock == LockState::kCompacting);
    h.lock = LockState::kFree;
    StoreHeaderWord(sptr, h.Pack());
  }
  copied_.clear();
  src_idx_ = dst_idx_ = SIZE_MAX;
  if (why.IsTimeout()) ++stats_.compaction_timeouts;
  status_ = std::move(why);
  SetPhase(CompactionPhase::kReclaim);
}

// --- Remap: one batched MTT repair epoch. ----------------------------------

void CompactionEngine::StepRemap() {
  alloc::Block* src = pool_[src_idx_].get();
  alloc::Block* dst = pool_[dst_idx_].get();
  auto remap_ns = node_->MergeRemap(src, dst, &retired_);
  if (!remap_ns.ok()) {
    // The remap failed before mutating anything (allocator-level error):
    // roll the pair back — index entries, copies, source locks — and end
    // the run with the error; Reclaim adopts the pool back.
    AbortPair(remap_ns.status());
    return;
  }
  // src's bytes now resolve to dst's frames: publish the copies. Until
  // here they excluded writers, so no write could land on a copy while
  // readers of the source still saw the old frames.
  for (const CopiedObject& obj : copied_) {
    uint8_t* dptr = worker_->SlotPtr(dst->base(), dst, obj.dst_slot);
    ObjectHeader h = ObjectHeader::Unpack(LoadHeaderWord(dptr));
    CORM_CHECK(h.lock == LockState::kCompacting);
    h.lock = LockState::kFree;
    StoreHeaderWord(dptr, h.Pack());
  }
  copied_.clear();
  // A peer that translated src's vaddr before the remap may still be
  // reading src's pages; Fixup frees them once every peer moved on.
  has_retired_ = true;
  peer_passes_.resize(static_cast<size_t>(node_->num_workers()));
  for (int w = 0; w < node_->num_workers(); ++w) {
    peer_passes_[static_cast<size_t>(w)] = node_->worker(w)->passes();
  }
  report_.compaction_ns += *remap_ns;
  sim::Pace(*remap_ns);
  SetPhase(CompactionPhase::kFixup);
}

// --- Fixup: retire src, commit counters, audit dst. ------------------------

bool CompactionEngine::PeersQuiesced() const {
  for (int w = 0; w < node_->num_workers(); ++w) {
    if (w == worker_->id()) continue;
    const Worker* peer = node_->worker(w);
    if (peer->passes() == peer_passes_[static_cast<size_t>(w)] &&
        !peer->parked()) {
      return false;
    }
  }
  return true;
}

void CompactionEngine::StepFixup() {
  // Not yet: the slice ends and the leader serves its ring meanwhile.
  if (!PeersQuiesced()) return;
  node_->block_allocator_->FreeRetired(retired_);
  has_retired_ = false;
  alloc::Block* dst = pool_[dst_idx_].get();
  node_->RetireBlock(std::move(pool_[src_idx_]));
  ++report_.blocks_freed;
  ++stats_.blocks_compacted;
  report_.objects_moved += pair_moved_;
  report_.objects_relocated += pair_relocated_;
  stats_.objects_moved += pair_relocated_;
  stats_.objects_offset_preserved += pair_offset_preserved_;
  stats_.compaction_bytes_copied += pair_bytes_copied_;
  if constexpr (kAuditEnabled) {
    // Every merged destination must come out fully consistent: directory
    // resolution for the base and the new ghost alias, header/ID-map
    // agreement, home blocks still resolvable, payload metadata intact.
    Status audit = node_->AuditBlock(*dst);
    CORM_CHECK(audit.ok()) << audit.message();
  }
  if (dst->Full()) {
    // A full block cannot be a destination again; hand it back early so
    // its owner serves ownership-bound ops without waiting for Reclaim.
    worker_->allocator()->AdoptBlock(std::move(pool_[dst_idx_]));
  }
  src_idx_ = dst_idx_ = SIZE_MAX;
  index_repaired_.clear();  // the pair committed; the undo log is dead
  index_repair_targets_.clear();
  SetPhase(CompactionPhase::kConflictCheck);
}

// --- Reclaim: sliced pool hand-back, then publish. -------------------------

void CompactionEngine::StepReclaim() {
  // Adoptions are cheap (owner stamp + list splice); a generous per-slice
  // batch keeps the tail short without re-stalling the data plane.
  size_t budget = std::max<size_t>(node_->config().compaction_slice_pairs,
                                   1) * 4;
  while (reclaim_cursor_ < pool_.size()) {
    if (pool_[reclaim_cursor_] != nullptr) {
      if (budget == 0) return;  // continue next slice
      worker_->allocator()->AdoptBlock(std::move(pool_[reclaim_cursor_]));
      --budget;
    }
    ++reclaim_cursor_;
  }
  FinishRun();
}

// --- Zombie replies & shutdown. --------------------------------------------

void CompactionEngine::ReapZombies() {
  if (zombies_.empty()) return;
  for (auto it = zombies_.begin(); it != zombies_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      // The straggler finally donated; its blocks go straight back into
      // circulation under the leader's allocator.
      for (auto& block : (*it)->blocks) {
        worker_->allocator()->AdoptBlock(std::move(block));
      }
      it = zombies_.erase(it);
    } else {
      ++it;
    }
  }
}

void CompactionEngine::Shutdown() {
  if (req_ != nullptr) {
    if ((phase_ == CompactionPhase::kCopy ||
         phase_ == CompactionPhase::kIndexRepair ||
         phase_ == CompactionPhase::kRemap) &&
        !copied_.empty()) {
      // A pair stopped before its remap rolls back the same way: AbortPair
      // restores any repaired index entries before it frees the
      // destination copies they pointed at.
      AbortPair(Status::Internal("node stopped during compaction"));
    }
    for (auto& block : pool_) {
      if (block != nullptr) worker_->allocator()->AdoptBlock(std::move(block));
    }
    pool_.clear();
    // Outstanding collectors have also observed stop and will not reply;
    // their slots stay alive in zombies_ until the engine is destroyed
    // (after every worker thread joined).
    for (auto& reply : replies_) zombies_.push_back(std::move(reply));
    replies_.clear();
    status_ = Status::Internal("node stopped during compaction");
    FinishRun();
  }
  for (CompactRequest* req : pending_) {
    req->status = Status::Internal("node stopped during compaction");
    req->done.store(true, std::memory_order_release);
  }
  pending_.clear();
}

}  // namespace corm::core
