// corm-hotpath
#include "core/worker.h"

#include <sched.h>

#include <algorithm>
#include <cstring>
#include <thread>

#include "common/cpu_relax.h"
#include "common/logging.h"
#include "common/retry.h"
#include "common/sanitizer.h"
#include "common/thread_annotations.h"
#include "core/compaction_engine.h"
#include "core/object_layout.h"
#include "sim/fault_injector.h"
#include "sim/latency_model.h"

namespace corm::core {

Worker::Worker(CormNode* node, int id)
    : node_(node),
      id_(id),
      allocator_(id, node->block_allocator_.get()),
      inbox_(1024),
      rng_(node->config().seed * 7919 + static_cast<uint64_t>(id) + 1),
      stats_(node->stat_shard(id)),
      parker_(node->rpc_queue()->parker(id)),
      dir_cache_(kDirCacheSlots) {  // NOLINT(corm-hotpath-alloc) ctor only
  static_assert((kDirCacheSlots & (kDirCacheSlots - 1)) == 0,
                "direct-mapped cache wants a power-of-two slot count");
  // NOLINT(corm-hotpath-alloc) ctor only
  engine_ = std::make_unique<CompactionEngine>(node, this);
}

Worker::~Worker() = default;

void Worker::Send(WorkerMsg msg) {
  while (!inbox_.TryPush(msg)) {
    CpuRelax();
  }
  parker_->Wake();
}

void Worker::ParkIdle(uint64_t timeout_ns) {
  rdma::RpcQueue* rpc = node_->rpc_queue();
  // The work whose producers wake this worker: its inbox (Send) and, while
  // the node serves, its own RPC ring (RpcQueue::Push) and the replicated-
  // log ingress rings it drains (ReplicaLogShipper's ring writes).
  const auto has_work = [&] {
    return inbox_.NonEmpty() ||
           (node_->IsServingRequests() &&
            (rpc->RingNonEmpty(id_) || ReplIngressPending()));
  };
  ++stats_.idle_parks;
  if (parker_->Park(timeout_ns, has_work)) ++stats_.park_missed_wakeups;
}

int Worker::AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return static_cast<int>(std::thread::hardware_concurrency());
  }
  return CPU_COUNT(&set);
}

void Worker::Run() {
  node_->BindWorkerThread(id_);
  const bool idle_park = node_->config().idle_park;
  const int cpus = AffinityCpus();
  const uint64_t spin_ns = IdleSpinBudgetNs(cpus);
  const uint32_t pause_polls = PausePolls(cpus, node_->num_workers());
  rdma::RpcMessage* batch[kPollBatch];
  // Consecutive dry polls and parks; reset by any work. The worker parks
  // once the dry spell has outlasted its pause polls, then kIdleYields
  // polls, and its spin budget, armed at the spell's first dry poll; each
  // park of the spell doubles the timeout.
  uint32_t idle = 0;
  uint32_t parks = 0;
  Deadline spin(0);
  uint64_t passes = 0;
  // Run loop, not a completion wait: bounded by stop_. NOLINT(corm-spin-wait)
  while (!node_->stop_.load(std::memory_order_relaxed)) {
    passes_.store(++passes, std::memory_order_release);
    if (auto msg = inbox_.TryPop()) {
      HandleInbox(*msg);
      idle = parks = 0;
      continue;
    }
    bool served_rpc = false;
    // A paused node (injected crash) stops serving inbound RPCs; queued
    // requests stall until ResumeService or a restart purge, and clients
    // time out per their RetryPolicy.
    if (node_->IsServingRequests()) {
      // Only our own ring: a request pushed onto a parked worker's ring
      // wakes that worker, so no sibling needs to steal it.
      const size_t n = node_->rpc_queue()->PollBatch(id_, batch, kPollBatch);
      if (n > 0) {
        ++stats_.rpc_batches;
        stats_.rpc_polled += n;
        for (size_t i = 0; i < n; ++i) {
          HandleRpc(batch[i], /*forwarded=*/false);
          // One inbox message between batch items: forwarded ops and
          // correction replies stay responsive under a deep ring.
          if (auto msg = inbox_.TryPop()) HandleInbox(*msg);
        }
        served_rpc = true;
      }
      // Replicated-log ingress (DESIGN.md §11): apply in-sequence records
      // after the RPC batch, behind the same serving gate — a paused
      // (crashed) node stops applying, and its ring records wait in the
      // registered memory until restart.
      if (DrainReplIngress() > 0) served_rpc = true;
    }
    // One compaction slice per loop iteration, strictly *after* the RPC
    // batch: an active run cannot starve the data plane (the point of the
    // sliced engine), and — load-bearing for fairness — at least one ring
    // batch is served between a run finishing and the next run's Select
    // detaching blocks, so owner-bound ops (Free) that bounced off
    // in-transit blocks get a guaranteed window in which to land.
    if (engine_->active()) {
      engine_->Step();
      idle = parks = 0;
      continue;
    }
    if (served_rpc) {
      idle = parks = 0;
      continue;
    }
    // Idle. The first pause_polls dry polls only PAUSE: a request that
    // lands within ~1.5 us costs no sched_yield. Then keep polling (a yield
    // lets the threads we might be blocking run) until the spin budget has
    // passed since the last piece of work: a request arriving within it
    // costs no futex wake-up. Then park on the futex until a producer
    // wakes us (a request pushed onto our ring, a message sent to our
    // inbox, a record shipped into an ingress ring we drain). The budget is
    // armed once per dry spell, so a timed-out park parks again at once: an
    // idle node spins for at most one budget. The timeout escalates from
    // 2 us to ~1 ms; it is a backstop, since every source of work wakes us.
    // On an oversubscribed host parking removes idle workers from the scheduler
    // rotation that every RPC round trip must traverse — the single biggest
    // hot-path cost on a few-core machine. With idle_park off the worker
    // never parks, so it arms no budget and reads no clock.
    if (++idle == 1 && idle_park) spin = Deadline(spin_ns);
    if (idle <= pause_polls) {
      CpuPause();
    } else if (!idle_park || idle <= pause_polls + kIdleYields ||
               !spin.Expired()) {
      CpuRelax();
    } else {
      parks = std::min(parks + 1, 10u);
      ParkIdle(uint64_t{1000} << parks);
    }
  }
  // Stop raced an active run: complete its request (the control-plane
  // caller is still spinning on it) and hand collected blocks back.
  engine_->Shutdown();
}

void Worker::HandleInbox(WorkerMsg& msg) {
  switch (msg.kind) {
    case WorkerMsg::Kind::kForwardedRpc:
      HandleRpc(msg.rpc, /*forwarded=*/true);
      break;
    case WorkerMsg::Kind::kCorrection: {
      // Only the current owner may touch block metadata; if ownership moved
      // while the query was in flight, the requester re-routes.
      msg.correction->owned = msg.block->owner_thread() == id_;
      if (msg.correction->owned) {
        auto slot = OwnerLookup(msg.block, msg.obj_id);
        msg.correction->found = slot.ok();
        msg.correction->slot = slot.ok() ? *slot : 0;
      }
      msg.correction->done.store(true, std::memory_order_release);
      break;
    }
    case WorkerMsg::Kind::kCollect: {
      if (auto* fi = sim::GlobalFaultInjector(); fi != nullptr &&
          fi->ShouldFire(sim::fault_sites::kCompactionCollectStall)) {
        // Injected stalled collector: swallow the message without ever
        // publishing the reply. The leader's Collect deadline must convert
        // this into kTimeout (the reply slot survives as an engine zombie).
        break;
      }
      msg.collect->blocks = allocator_.CollectBlocks(
          msg.class_idx, msg.max_occupancy, msg.max_blocks);
      msg.collect->done.store(true, std::memory_order_release);
      break;
    }
    case WorkerMsg::Kind::kStats: {
      const uint32_t n = node_->classes().num_classes();
      // Control-plane snapshot (kStats), never the serving path; the reply
      // vectors are sized once per request. NOLINT(corm-hotpath-alloc)
      msg.stats->granted.resize(n);
      msg.stats->used.resize(n);   // NOLINT(corm-hotpath-alloc) control plane
      msg.stats->nblocks.resize(n);  // NOLINT(corm-hotpath-alloc) see above
      for (uint32_t c = 0; c < n; ++c) {
        msg.stats->granted[c] = allocator_.GrantedBytes(c);
        msg.stats->used[c] = allocator_.UsedBytes(c);
        msg.stats->nblocks[c] = allocator_.NumBlocks(c);
      }
      msg.stats->done.store(true, std::memory_order_release);
      break;
    }
    case WorkerMsg::Kind::kCompact:
      // Queued into the engine; Run() drives it one slice per loop
      // iteration, interleaved with RPC batches.
      engine_->Enqueue(msg.compact);
      break;
    case WorkerMsg::Kind::kBulk:
      HandleBulk(msg.bulk);
      break;
    case WorkerMsg::Kind::kAudit: {
      // Runs between operations on this thread, so the allocator is
      // quiescent; pass the compactability rule so ID-map checks apply
      // exactly to the classes that maintain the map.
      msg.audit->status =
          allocator_.Audit([this](uint32_t c) { return ClassCompactable(c); });
      msg.audit->done.store(true, std::memory_order_release);
      break;
    }
  }
}

void Worker::Complete(rdma::RpcMessage* rpc, Status st) {
  rpc->status = std::move(st);
  rpc->done.store(true, std::memory_order_release);
  // The server's reference: a timed-out client may already have abandoned
  // the message, in which case this Unref frees it.
  rpc->Unref();
}

// Charges modeled server-side processing time to the RPC: paces the worker
// and reports the duration back to the client for latency accounting.
namespace {
void Charge(rdma::RpcMessage* rpc, uint64_t ns) {
  rpc->server_extra_ns += ns;
  sim::Pace(ns);
}
}  // namespace

void Worker::HandleRpc(rdma::RpcMessage* rpc, bool forwarded) {
  switch (PeekOp(rpc->request)) {
    case RpcOp::kAlloc:
      HandleAlloc(rpc);
      break;
    case RpcOp::kFree:
      HandleFree(rpc, forwarded);
      break;
    case RpcOp::kRead:
      HandleRead(rpc);
      break;
    case RpcOp::kWrite:
      HandleWrite(rpc);
      break;
    case RpcOp::kReleasePtr:
      HandleReleasePtr(rpc);
      break;
    case RpcOp::kIndexLookup:
      HandleIndexLookup(rpc);
      break;
    case RpcOp::kIndexPut:
      HandleIndexPut(rpc);
      break;
    case RpcOp::kIndexDel:
      HandleIndexDel(rpc, forwarded);
      break;
    default:
      Complete(rpc, Status::InvalidArgument("unknown RPC opcode"));
  }
}

// ---------------------------------------------------------------------------
// Allocation.
// ---------------------------------------------------------------------------

bool Worker::ClassCompactable(uint32_t class_idx) const {
  const int bits = node_->config().object_id_bits;
  if (bits <= 0) return false;
  const uint64_t id_space = 1ULL << bits;
  const uint64_t slots =
      node_->block_bytes() / node_->classes().ClassSize(class_idx);
  return slots <= id_space;
}

Result<uint16_t> Worker::DrawObjectId(alloc::Block* block) {
  const int bits = std::min(node_->config().object_id_bits, 16);
  const uint16_t mask =
      bits >= 16 ? 0xffff : static_cast<uint16_t>((1u << std::max(bits, 0)) - 1);
  if (!ClassCompactable(block->class_idx())) {
    // Compaction is disabled for this class; IDs need not be unique and the
    // metadata map is not maintained (§4.4.1).
    return static_cast<uint16_t>(rng_.Next() & mask);
  }
  for (int draw = 0; draw < kIdRandomDraws; ++draw) {
    const auto id = static_cast<uint16_t>(rng_.Next() & mask);
    if (!block->HasId(id)) return id;
  }
  // Dense block: each rejection-sampling draw hits a used ID with
  // probability live/space, so an unbounded loop has no worst-case bound.
  // Scan from a random start instead — a compactable class has
  // slots <= id_space and the caller is allocating into a free slot, so a
  // free ID must exist; the randomized start keeps IDs spread out.
  ++stats_.id_draw_fallbacks;
  const uint32_t space = static_cast<uint32_t>(mask) + 1;
  const auto start = static_cast<uint32_t>(rng_.Next() & mask);
  for (uint32_t i = 0; i < space; ++i) {
    const auto id = static_cast<uint16_t>((start + i) & mask);
    if (!block->HasId(id)) return id;
  }
  return Status::Internal("object ID space exhausted in a compactable block");
}

Result<GlobalAddr> Worker::AllocObject(uint32_t payload_size, Slice value,
                                       Resolved* where) {
  auto class_idx = node_->ClassForPayload(payload_size);
  CORM_RETURN_NOT_OK(class_idx.status());

  auto allocation = allocator_.Alloc(*class_idx);
  CORM_RETURN_NOT_OK(allocation.status());
  alloc::Block* block = allocation->block;
  const uint32_t slot = allocation->slot;
  if (allocation->new_block) {
    node_->DirectoryInsert(block->base(), block, /*is_alias=*/false);
    sim::Pace(node_->latency_model().BlockAllocExtraNs());
  }

  auto id = DrawObjectId(block);
  CORM_RETURN_NOT_OK(id.status());
  if (ClassCompactable(block->class_idx())) {
    CORM_CHECK(block->InsertId(*id, slot));
  }

  uint8_t* ptr = SlotPtr(block->base(), block, slot);
  ObjectHeader h;
  h.version = 1;
  h.lock = LockState::kFree;
  h.class_idx = static_cast<uint8_t>(block->class_idx() & 0x3f);
  h.obj_id = *id;
  h.home_page = HomePageOf(block->base());
  // Write the initial value and stamp the cacheline versions with the
  // header's version before publishing the header.
  WritePayload(ptr, block->slot_size(), h.version, value.udata(),
               static_cast<uint32_t>(value.size()));
  StoreHeaderWord(ptr, h.Pack());

  node_->vaddr_tracker_.OnAlloc(block->base());

  GlobalAddr addr;
  addr.vaddr = block->SlotAddr(slot);
  addr.r_key = block->keys().r_key;
  addr.obj_id = *id;
  addr.class_idx = static_cast<uint8_t>(*class_idx);
  // The allocating worker owns the block: clients route ownership-bound
  // RPCs straight into this worker's ring.
  addr.SetOwnerHint(id_);
  if (where != nullptr) {
    where->block = block;
    where->slot = slot;
    where->base = block->base();
    where->ptr = ptr;
  }
  return addr;
}

void Worker::HandleAlloc(rdma::RpcMessage* rpc) {
  AllocRequest req;
  DecodeRequest(rpc->request, &req);
  ++stats_.rpc_allocs;
  rpc->server_extra_ns = 0;
  Charge(rpc, node_->latency_model().AllocExtraNs());
  auto addr = AllocObject(static_cast<uint32_t>(req.size));
  if (!addr.ok()) {
    Complete(rpc, addr.status());
    return;
  }
  EncodeResponse(AllocResponse{*addr}, &rpc->response);
  Complete(rpc, Status::OK());
}

// ---------------------------------------------------------------------------
// Object resolution & pointer correction (§3.2).
// ---------------------------------------------------------------------------

uint8_t* Worker::SlotPtr(sim::VAddr base, const alloc::Block* block,
                         uint32_t slot) {
  return node_->space_->TranslatePtr(
      base + static_cast<uint64_t>(slot) * block->slot_size());
}

Result<uint32_t> Worker::OwnerLookup(const alloc::Block* block,
                                     uint16_t obj_id) {
  auto slot = block->FindId(obj_id);
  if (!slot) return Status::NotFound("object ID not present in block");
  return *slot;
}

Result<uint32_t> Worker::CorrectViaScan(const alloc::Block* block,
                                        sim::VAddr base, uint16_t obj_id) {
  ++stats_.corrections_scan;
  const uint32_t slot_size = block->slot_size();
  const uint32_t num_slots = block->num_slots();
  for (uint32_t slot = 0; slot < num_slots; ++slot) {
    const uint8_t* ptr = node_->space_->TranslatePtr(
        base + static_cast<uint64_t>(slot) * slot_size);
    if (ptr == nullptr) break;
    const ObjectHeader h = ObjectHeader::Unpack(LoadHeaderWord(ptr));
    if (h.lock != LockState::kTombstone && h.obj_id == obj_id) return slot;
  }
  return Status::NotFound("object ID not found by block scan");
}

Result<uint32_t> Worker::CorrectViaOwner(alloc::Block* block,
                                         uint16_t obj_id) {
  ++stats_.corrections_messaging;
  for (int attempt = 0; attempt < 64; ++attempt) {
    const int owner = block->owner_thread();
    if (owner == id_) return OwnerLookup(block, obj_id);
    if (owner < 0) {
      // Ownership in transit (block collected for compaction, or retired):
      // fall back to scanning through the client-visible bytes, which stay
      // coherent across remaps.
      return CorrectViaScan(block, block->base(), obj_id);
    }
    CorrectionReply reply;
    WorkerMsg msg;
    msg.kind = WorkerMsg::Kind::kCorrection;
    msg.block = block;
    msg.obj_id = obj_id;
    msg.correction = &reply;
    node_->worker(owner)->Send(msg);
    // Wait for the reply, serving correction queries addressed to us so two
    // workers correcting into each other's blocks cannot deadlock. This is
    // also the §4.3.2 stall: if the owner is busy compacting, we wait.
    while (!reply.done.load(std::memory_order_acquire)) {  // NOLINT(corm-spin-wait)
      if (auto pending = inbox_.TryPop()) {
        if (pending->kind == WorkerMsg::Kind::kCorrection ||
            pending->kind == WorkerMsg::Kind::kStats ||
            pending->kind == WorkerMsg::Kind::kCollect) {
          HandleInbox(*pending);
        } else {
          Send(*pending);  // requeue; processed after we unblock
        }
      } else {
        CpuRelax();
      }
    }
    if (reply.found) return reply.slot;
    // The owner's miss is final; a worker that no longer owned the block
    // sends us back to re-read the owner.
    if (reply.owned) return Status::NotFound("object ID not present in block");
  }
  return Status::Internal("pointer correction ownership churn");
}

// Directory lookup through the worker-private direct-mapped cache.
//
// Freshness: the epoch is read *before* the lookup. If a directory mutation
// lands between the two, the slot caches data at least as fresh as its
// stamp, so the worst case is a conservative refetch on the next access —
// a stamp match can never hide a mutation. A hit whose epoch bump is still
// in flight linearizes as a lookup just before that mutation, exactly the
// schedule a raw lock-free Lookup already admits (see block_directory.h).
CormNode::DirectoryEntry Worker::LookupBlockCached(sim::VAddr base) {
  const uint64_t epoch = node_->directory_.epoch();
  DirCacheSlot& slot =
      dir_cache_[BlockDirectory::Mix(base) & (kDirCacheSlots - 1)];
  if (slot.base == base && slot.epoch == epoch) {
    ++stats_.dir_cache_hits;
    return slot.entry;
  }
  ++stats_.dir_cache_misses;
  slot.entry = node_->LookupBlock(base);
  slot.base = base;
  slot.epoch = epoch;
  return slot.entry;
}

Result<Worker::Resolved> Worker::ResolveObject(const GlobalAddr& addr) {
  const size_t block_bytes = node_->block_bytes();
  const sim::VAddr base = BlockBaseOf(addr.vaddr, block_bytes);
  const CormNode::DirectoryEntry entry = LookupBlockCached(base);
  if (entry.block == nullptr) {
    return Status::StalePointer("virtual block released or never allocated");
  }
  Resolved r;
  r.block = entry.block;
  r.base = base;
  r.old_block = entry.is_alias;
  if (r.old_block) {
    ++stats_.old_pointer_uses;
  }

  // Optimistic hinted access (§3.2): load the header at the hinted offset
  // and compare IDs.
  const uint64_t offset = addr.vaddr - base;
  const uint32_t hint_slot =
      static_cast<uint32_t>(offset / r.block->slot_size());
  if (hint_slot < r.block->num_slots()) {
    uint8_t* ptr = SlotPtr(base, r.block, hint_slot);
    if (ptr != nullptr) {
      const ObjectHeader h = ObjectHeader::Unpack(LoadHeaderWord(ptr));
      if (h.obj_id == addr.obj_id && h.lock != LockState::kTombstone) {
        r.slot = hint_slot;
        r.ptr = ptr;
        return r;
      }
    }
  }

  // Hint is stale: run the configured pointer-correction strategy (§3.2.1).
  Result<uint32_t> slot =
      node_->config().rpc_correction == RpcCorrectionStrategy::kThreadMessaging
          ? CorrectViaOwner(r.block, addr.obj_id)
          : CorrectViaScan(r.block, base, addr.obj_id);
  CORM_RETURN_NOT_OK(slot.status());
  r.slot = *slot;
  r.corrected = true;
  r.ptr = SlotPtr(base, r.block, r.slot);
  return r;
}

// Builds the corrected pointer sent back to the client: same block base the
// client used (old bases stay valid, §3.3), updated offset hint, plus the
// current owner-worker hint for ring affinity on later ops.
namespace {
GlobalAddr CorrectedAddr(const GlobalAddr& in, const Worker::Resolved& r,
                         uint32_t slot_size) {
  GlobalAddr out = in;
  out.vaddr = r.base + static_cast<uint64_t>(r.slot) * slot_size;
  out.flags = r.old_block ? GlobalAddr::kFlagOldBlock : 0;
  out.SetOwnerHint(r.block->owner_thread());
  return out;
}
}  // namespace

// ---------------------------------------------------------------------------
// Read (§3.2.3 consistency via header seqlock on the RPC path).
// ---------------------------------------------------------------------------

// Escape: seqlock reader — consistency comes from re-reading the header
// word around the payload copy (w1 == w2 proves no writer intervened), a
// protocol outside any capability the analyzer can track.
void Worker::HandleRead(rdma::RpcMessage* rpc) NO_THREAD_SAFETY_ANALYSIS {
  ReadRequest req;
  DecodeRequest(rpc->request, &req);
  ++stats_.rpc_reads;

  auto resolved = ResolveObject(req.addr);
  if (!resolved.ok()) {
    Complete(rpc, resolved.status());
    return;
  }
  alloc::Block* block = resolved->block;
  if (req.size > PayloadCapacity(block->slot_size())) {
    Complete(rpc, Status::InvalidArgument("read larger than object payload"));
    return;
  }
  uint8_t* ptr = resolved->ptr;

  ReadResponse resp;
  resp.addr = CorrectedAddr(req.addr, *resolved, block->slot_size());
  resp.size = req.size;
  // Stage the payload in the worker's reusable scratch buffer: resize()
  // only allocates until the high-water mark, so the steady-state read
  // path touches no allocator. NOLINT(corm-hotpath-alloc)
  read_scratch_.resize(req.size);
  for (int attempt = 0; attempt < 16; ++attempt) {
    const uint64_t w1 = LoadHeaderWord(ptr);
    const ObjectHeader h = ObjectHeader::Unpack(w1);
    // A kCompacting object reads through: compaction only copies it, and
    // every writer backs off until the remap publishes the copy.
    if (h.lock == LockState::kWriteLocked) {
      Complete(rpc, Status::ObjectLocked("object write-locked; retry"));
      return;
    }
    if (h.lock == LockState::kTombstone || h.obj_id != req.addr.obj_id) {
      Complete(rpc, Status::ObjectMoved("object moved during read"));
      return;
    }
    ReadPayload(ptr, block->slot_size(), read_scratch_.data(), req.size);
    if (LoadHeaderWord(ptr) == w1) {
      // Validation succeeded: the snapshot happened-after the writer's
      // release in WritePayload/StoreHeaderWord (see sanitizer.h).
      CORM_TSAN_ACQUIRE(ptr);
      EncodeResponse(resp, &rpc->response,
                     Slice(read_scratch_.data(), req.size));
      Complete(rpc, Status::OK());
      return;
    }
  }
  Complete(rpc, Status::ObjectLocked("object under heavy write contention"));
}

// ---------------------------------------------------------------------------
// Write.
// ---------------------------------------------------------------------------

void Worker::HandleWrite(rdma::RpcMessage* rpc) {
  WriteRequest req;
  Slice payload = DecodeRequest(rpc->request, &req);
  ++stats_.rpc_writes;
  // A whole compaction pair (copy, then remap) can land between resolving
  // the object and locking it: the resolved slot then shows the
  // destination's bytes. The pointer is still valid, so resolve it again
  // instead of failing the write.
  int resolves = 1;
  while (!TryWrite(rpc, req, payload,
                   /*last_try=*/resolves == kWriteResolves)) {
    ++resolves;
  }
}

bool Worker::TryWrite(rdma::RpcMessage* rpc, const WriteRequest& req,
                      Slice payload, bool last_try) {
  auto resolved = ResolveObject(req.addr);
  if (!resolved.ok()) {
    Complete(rpc, resolved.status());
    return true;
  }
  alloc::Block* block = resolved->block;
  if (req.size > PayloadCapacity(block->slot_size()) ||
      payload.size() < req.size) {
    Complete(rpc, Status::InvalidArgument("write larger than object payload"));
    return true;
  }
  uint8_t* ptr = resolved->ptr;

  // Acquire the object lock (bounded spin over transient writer locks).
  uint64_t w = LoadHeaderWord(ptr);
  for (int attempt = 0;; ++attempt) {
    ObjectHeader h = ObjectHeader::Unpack(w);
    if (h.lock == LockState::kCompacting) {
      Complete(rpc, Status::ObjectLocked("object under compaction"));
      return true;
    }
    if (h.lock == LockState::kTombstone || h.obj_id != req.addr.obj_id) {
      if (!last_try) return false;
      Complete(rpc, Status::ObjectMoved("object moved during write"));
      return true;
    }
    if (h.lock == LockState::kWriteLocked) {
      if (attempt > 4096) {
        Complete(rpc, Status::ObjectLocked("object write-locked"));
        return true;
      }
      CpuRelax();
      w = LoadHeaderWord(ptr);
      continue;
    }
    ObjectHeader locked = h;
    locked.lock = LockState::kWriteLocked;
    if (CasHeaderWord(ptr, w, locked.Pack())) {
      // Locked: bump the version, write payload + per-cacheline versions,
      // then publish the unlocked header. The lock is held for the modeled
      // DMA duration — the window a concurrent DirectRead can observe as
      // locked or torn (Fig. 13).
      ObjectHeader next = locked;
      next.version = NextVersion(h.version);
      next.lock = LockState::kFree;
      if constexpr (kAuditEnabled) {
        // Version bytes may only ever advance by one per committed write;
        // anything else would let a torn read validate against a reused
        // version (paper §2.2.1).
        CORM_CHECK(VersionMonotonic(h.version, next.version));
      }
      if (auto* fi = sim::GlobalFaultInjector(); fi != nullptr) {
        uint64_t hold_ns = 0;
        if (fi->ShouldFire(sim::fault_sites::kTornWrite, &hold_ns)) {
          // Injected torn window: publish the new cacheline versions with
          // only a prefix of the payload behind them and linger before the
          // full write below. A concurrent lock-free snapshot lands on a
          // genuinely torn object and must reject it (locked header or
          // version mismatch); the final state is consistent either way.
          WritePayload(ptr, block->slot_size(), next.version, payload.data(),
                       req.size / 2);
          Charge(rpc, hold_ns != 0 ? hold_ns : 2000);
        }
      }
      WritePayload(ptr, block->slot_size(), next.version, payload.data(),
                   req.size);
      Charge(rpc, node_->latency_model().WriteLockHoldNs(req.size));
      StoreHeaderWord(ptr, next.Pack());
      break;
    }
    // CAS failure reloaded `w`; retry.
  }

  WriteResponse resp;
  resp.addr = CorrectedAddr(req.addr, *resolved, block->slot_size());
  EncodeResponse(resp, &rpc->response);
  Complete(rpc, Status::OK());
  return true;
}

// ---------------------------------------------------------------------------
// Replicated-log apply path (DESIGN.md §11).
// ---------------------------------------------------------------------------

bool Worker::ReplIngressPending() const {
  const size_t n =
      node_->repl_ingress_count_.load(std::memory_order_acquire);
  if (n == 0) return false;
  // Record bytes arrive through plain stores; this fence pairs with the
  // one a shipper runs before Wake (log_shipper.cc), so either this check
  // sees the record or the shipper sees the park.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  const size_t nw = static_cast<size_t>(node_->num_workers());
  for (size_t i = static_cast<size_t>(id_); i < n; i += nw) {
    if (node_->repl_ingress_[i]->HasRecord()) return true;
  }
  return false;
}

size_t Worker::DrainReplIngress() {
  const size_t n =
      node_->repl_ingress_count_.load(std::memory_order_acquire);
  if (n == 0) return 0;
  size_t applied = 0;
  const size_t nw = static_cast<size_t>(node_->num_workers());
  for (size_t i = static_cast<size_t>(id_); i < n; i += nw) {
    rdma::ReplLogRing* ring = node_->repl_ingress_[i].get();
    for (int b = 0; b < kReplApplyBatch; ++b) {
      rdma::ReplRecordHeader hdr;
      if (!ring->NextRecord(&hdr, &repl_record_buf_)) break;
      if (!ApplyReplRecord(hdr, repl_record_buf_)) break;
      // Advance only after the record is durably applied (or provably
      // inapplicable): a crash between apply and Advance re-applies on
      // restart, which the version check makes idempotent.
      ring->Advance();
      ++applied;
    }
  }
  return applied;
}

bool Worker::ApplyReplRecord(const rdma::ReplRecordHeader& hdr,
                             const Buffer& payload) {
  GlobalAddr addr;
  static_assert(sizeof(addr) == sizeof(hdr.addr),
                "record address field carries a full GlobalAddr");
  std::memcpy(&addr, hdr.addr, sizeof(addr));

  auto resolved = ResolveObject(addr);
  if (!resolved.ok()) {
    // The object was freed (or never landed): records may outlive objects,
    // so drop it and advance rather than wedging the ring.
    ++stats_.repl_apply_orphans;
    return true;
  }
  alloc::Block* block = resolved->block;
  const uint32_t cap = PayloadCapacity(block->slot_size());
  if (hdr.kind == rdma::kReplRecordData &&
      (payload.size() < sizeof(rdma::ReplObjectHeader) ||
       payload.size() > cap)) {
    ++stats_.repl_apply_orphans;  // image cannot fit this object
    return true;
  }
  uint8_t* ptr = resolved->ptr;

  // Acquire the object seqlock — HandleWrite's discipline, but with a short
  // contention bound: a locked or kCompacting object defers the record (it
  // stays at the ring head for the next drain pass) instead of spinning,
  // because this worker must get back to its RPC ring. This deferral is the
  // whole replication/compaction hand-off: while compaction holds the slot,
  // the log simply waits.
  uint64_t w = LoadHeaderWord(ptr);
  for (int attempt = 0;; ++attempt) {
    ObjectHeader h = ObjectHeader::Unpack(w);
    if (h.lock == LockState::kCompacting) return false;
    if (h.lock == LockState::kTombstone || h.obj_id != addr.obj_id) {
      ++stats_.repl_apply_orphans;
      return true;
    }
    if (h.lock == LockState::kWriteLocked) {
      if (attempt > 64) return false;
      CpuRelax();
      w = LoadHeaderWord(ptr);
      continue;
    }
    ObjectHeader locked = h;
    locked.lock = LockState::kWriteLocked;
    if (!CasHeaderWord(ptr, w, locked.Pack())) continue;  // reloaded w

    // Locked. Read the stored replica-image header and decide.
    rdma::ReplObjectHeader stored;
    ReadPayload(ptr, block->slot_size(),
                reinterpret_cast<uint8_t*>(&stored), sizeof(stored));
    const uint8_t* img = nullptr;  // full image to install, when applying
    size_t img_len = 0;
    if (hdr.kind == rdma::kReplRecordSeal) {
      if (hdr.epoch > stored.epoch &&
          sizeof(stored) + stored.len <= cap) {
        // Seal: rewrite the stored image verbatim with only the epoch
        // bumped. The object crc excludes the epoch by design, so the
        // image stays self-consistent without recomputing payload sums.
        const size_t full = sizeof(stored) + stored.len;
        repl_seal_scratch_.resize(full);  // NOLINT(corm-hotpath-alloc) high-water only
        ReadPayload(ptr, block->slot_size(), repl_seal_scratch_.data(), full);
        stored.epoch = hdr.epoch;
        std::memcpy(repl_seal_scratch_.data(), &stored, sizeof(stored));
        img = repl_seal_scratch_.data();
        img_len = full;
      } else {
        ++stats_.repl_apply_dups;  // already sealed to this epoch or newer
      }
    } else {
      rdma::ReplObjectHeader rec;
      std::memcpy(&rec, payload.data(), sizeof(rec));
      if (hdr.epoch < stored.epoch) {
        // Epoch fence: a record shipped before a failover sealed its epoch
        // must never overwrite post-seal state (fault site repl.seal_race
        // proves this path).
        ++stats_.repl_fenced_records;
      } else if (rec.version <= stored.version) {
        ++stats_.repl_apply_dups;  // retransmit or reordered older write
      } else {
        img = payload.data();
        img_len = payload.size();
      }
    }

    if (img == nullptr) {
      StoreHeaderWord(ptr, w);  // release the lock, nothing changed
      return true;
    }
    ObjectHeader next = locked;
    next.version = NextVersion(h.version);
    next.lock = LockState::kFree;
    if constexpr (kAuditEnabled) {
      CORM_CHECK(VersionMonotonic(h.version, next.version));
    }
    WritePayload(ptr, block->slot_size(), next.version, img, img_len);
    sim::Pace(node_->latency_model().WriteLockHoldNs(img_len));
    StoreHeaderWord(ptr, next.Pack());
    ++stats_.repl_applied_records;
    return true;
  }
}

// ---------------------------------------------------------------------------
// Free (ownership-bound: forwarded to the block owner, §3.1.4 invariant).
// ---------------------------------------------------------------------------

void Worker::MaybeReleaseEmptyBlock(alloc::Block* block) {
  if (!block->Empty()) return;
  // An empty block has no live homed objects of its own, and every ghost
  // that aliased it has been released (their homed objects lived here).
  auto owned = allocator_.DetachBlock(block);
  node_->DirectoryErase(owned->base());
  node_->vaddr_tracker_.OnBlockDestroyed(owned->base());
  // The drained descriptor goes to the graveyard: a concurrent lock-free
  // directory reader (or a sibling's cached entry) may still dereference
  // the Block object for a short window after the erase.
  node_->RetireBlock(node_->block_allocator_->DestroyBlock(std::move(owned)));
}

void Worker::ReleaseGhost(const GhostToRelease& ghost) {
  node_->ReleaseGhostAction(ghost);
}

Status Worker::LockForFree(const Resolved& r, ObjectHeader* pre) {
  uint8_t* ptr = r.ptr;
  uint64_t w = LoadHeaderWord(ptr);
  for (int attempt = 0;; ++attempt) {
    const ObjectHeader h = ObjectHeader::Unpack(w);
    if (h.lock == LockState::kCompacting) {
      return Status::ObjectLocked("object under compaction");
    }
    if (h.lock == LockState::kTombstone) {
      return Status::NotFound("double free");
    }
    if (h.lock == LockState::kWriteLocked) {
      if (attempt > 4096) return Status::ObjectLocked("object write-locked");
      CpuRelax();
      w = LoadHeaderWord(ptr);
      continue;
    }
    ObjectHeader locked = h;
    locked.lock = LockState::kWriteLocked;
    if (CasHeaderWord(ptr, w, locked.Pack())) {
      *pre = h;
      return Status::OK();
    }
    // CAS failure reloaded `w`; retry.
  }
}

void Worker::FreeLocked(const Resolved& r, const ObjectHeader& pre) {
  alloc::Block* block = r.block;
  ObjectHeader dead = pre;
  dead.lock = LockState::kTombstone;
  StoreHeaderWord(r.ptr, dead.Pack());
  if (ClassCompactable(block->class_idx())) block->EraseId(pre.obj_id);
  const bool empty = allocator_.Free(block, r.slot);
  auto ghost = node_->vaddr_tracker_.OnFree(HomeVaddrOf(pre.home_page));
  if (ghost) ReleaseGhost(*ghost);
  if (empty) MaybeReleaseEmptyBlock(block);
}

Status Worker::FreeResolved(const Resolved& r) {
  ObjectHeader pre;
  CORM_RETURN_NOT_OK(LockForFree(r, &pre));
  FreeLocked(r, pre);
  return Status::OK();
}

void Worker::HandleFree(rdma::RpcMessage* rpc, bool forwarded) {
  FreeRequest req;
  DecodeRequest(rpc->request, &req);
  if (!forwarded) {
    // Count on first receipt; the op may be forwarded to the owner.
    ++stats_.rpc_frees;
  }

  // Route to the block owner first (only the owner mutates block metadata).
  const sim::VAddr base = BlockBaseOf(req.addr.vaddr, node_->block_bytes());
  const CormNode::DirectoryEntry entry = LookupBlockCached(base);
  if (entry.block == nullptr) {
    Complete(rpc, Status::StalePointer("virtual block released"));
    return;
  }
  const int owner = entry.block->owner_thread();
  if (owner != id_) {
    if (owner < 0) {
      // Block in transit to the compaction leader; the client retries.
      Complete(rpc, Status::ObjectLocked("block ownership in transit"));
      return;
    }
    ++stats_.forwarded_ops;
    WorkerMsg msg;
    msg.kind = WorkerMsg::Kind::kForwardedRpc;
    msg.rpc = rpc;
    node_->worker(owner)->Send(msg);
    return;  // the owner completes the RPC
  }
  Charge(rpc, node_->latency_model().FreeExtraNs());

  auto resolved = ResolveObject(req.addr);
  if (!resolved.ok()) {
    Complete(rpc, resolved.status());
    return;
  }
  Status st = FreeResolved(*resolved);
  if (st.ok()) {
    FreeResponse resp;
    resp.addr = GlobalAddr{};  // freed: the pointer is dead
    EncodeResponse(resp, &rpc->response);
  }
  Complete(rpc, std::move(st));
}

// ---------------------------------------------------------------------------
// ReleasePtr (§3.3): re-home the object to its current block so the old
// virtual address can be reused once all such objects are released.
// ---------------------------------------------------------------------------

void Worker::HandleReleasePtr(rdma::RpcMessage* rpc) {
  ReleasePtrRequest req;
  DecodeRequest(rpc->request, &req);
  ++stats_.rpc_releases;

  auto resolved = ResolveObject(req.addr);
  if (!resolved.ok()) {
    Complete(rpc, resolved.status());
    return;
  }
  alloc::Block* block = resolved->block;
  uint8_t* ptr = resolved->ptr;

  uint64_t w = LoadHeaderWord(ptr);
  for (int attempt = 0;; ++attempt) {
    ObjectHeader h = ObjectHeader::Unpack(w);
    if (h.lock == LockState::kCompacting) {
      Complete(rpc, Status::ObjectLocked("object under compaction"));
      return;
    }
    if (h.lock == LockState::kTombstone || h.obj_id != req.addr.obj_id) {
      Complete(rpc, Status::ObjectMoved("object moved during release"));
      return;
    }
    if (h.lock == LockState::kWriteLocked) {
      if (attempt > 4096) {
        Complete(rpc, Status::ObjectLocked("object write-locked"));
        return;
      }
      CpuRelax();
      w = LoadHeaderWord(ptr);
      continue;
    }
    const sim::VAddr old_home = HomeVaddrOf(h.home_page);
    const sim::VAddr new_home = block->base();
    if (old_home == new_home) break;  // nothing to release
    ObjectHeader next = h;
    next.home_page = HomePageOf(new_home);
    if (CasHeaderWord(ptr, w, next.Pack())) {
      auto ghost = node_->vaddr_tracker_.OnRehome(old_home, new_home);
      if (ghost) ReleaseGhost(*ghost);
      break;
    }
  }

  // The canonical pointer now lives in the current block.
  ReleasePtrResponse resp;
  resp.addr = req.addr;
  resp.addr.vaddr = block->SlotAddr(resolved->slot);
  resp.addr.r_key = block->keys().r_key;
  resp.addr.flags = 0;
  resp.addr.SetOwnerHint(block->owner_thread());
  EncodeResponse(resp, &rpc->response);
  // Paper §4.1: the release itself adds ~0.3 us on top of the RPC.
  Charge(rpc, 300);
  Complete(rpc, Status::OK());
}

// ---------------------------------------------------------------------------
// Keyed index operations (DESIGN.md §13).
// ---------------------------------------------------------------------------

Status Worker::LookupCanonical(uint64_t key, GlobalAddr* out) {
  // Every authoritative lookup is, by construction, a one-sided probe that
  // gave up or was skipped (stale hint, torn bucket, fenced entry, or a
  // cold cache): count it as the fallback it is.
  ++stats_.index_rpc_fallbacks;

  index::IndexEntry entry;
  if (!node_->index_view()->Lookup(key, &entry)) {
    return Status::NotFound("key not in index");
  }
  auto resolved = ResolveObject(entry.addr);
  if (!resolved.ok()) {
    // The entry outlived its object (block released under it). Unlink it so
    // later one-sided probes stop chasing the dangling hint.
    if (node_->index_view()->Remove(key)) ++stats_.index_repairs;
    return Status::NotFound("index entry outlived its object");
  }
  const GlobalAddr canonical =
      CorrectedAddr(entry.addr, *resolved, resolved->block->slot_size());
  const bool fenced =
      entry.fence_epoch != static_cast<uint16_t>(node_->index_view()->Epoch());
  if (fenced || canonical.vaddr != entry.addr.vaddr ||
      canonical.flags != entry.addr.flags) {
    // Self-healing repair: re-mint the entry with the corrected pointer,
    // the live owner hint, and the current epoch, so the next one-sided
    // probe hits without falling back here again.
    if (node_->index_view()->Repair(key, canonical)) {
      ++stats_.index_repairs;
    }
  }
  *out = canonical;
  return Status::OK();
}

void Worker::HandleIndexLookup(rdma::RpcMessage* rpc) {
  IndexLookupRequest req;
  DecodeRequest(rpc->request, &req);
  IndexLookupResponse resp;
  Status st = LookupCanonical(req.key, &resp.addr);
  if (st.ok()) EncodeResponse(resp, &rpc->response);
  Complete(rpc, std::move(st));
}

void Worker::HandleIndexPut(rdma::RpcMessage* rpc) {
  IndexPutRequest req;
  Slice value = DecodeRequest(rpc->request, &req);
  if (value.size() < req.size) {
    Complete(rpc, Status::InvalidArgument("put value shorter than declared"));
    return;
  }
  value = Slice(value.data(), req.size);

  // A live key is the client's to overwrite through the ordinary kWrite
  // RPC, so the worker only hands back the pointer.
  IndexPutResponse resp;
  resp.existed = 1;
  Status st = LookupCanonical(req.key, &resp.addr);
  if (st.ok()) {
    EncodeResponse(resp, &rpc->response);
    Complete(rpc, Status::OK());
    return;
  }
  if (!st.IsNotFound()) {
    Complete(rpc, std::move(st));
    return;
  }

  // Fresh key: allocate and fill the object before publishing it, so a
  // concurrent Get observes either NotFound or the complete value. No
  // client can name the object until the insert below, so the fill needs
  // no lock of any kind.
  ++stats_.rpc_allocs;
  Charge(rpc, node_->latency_model().AllocExtraNs());
  Resolved mine;
  auto obj = AllocObject(req.size, value, &mine);
  if (!obj.ok()) {
    Complete(rpc, obj.status());
    return;
  }
  Charge(rpc, node_->latency_model().WriteLockHoldNs(req.size));
  GlobalAddr winner;
  st = node_->index_view()->Insert(req.key, *obj, &winner);
  if (st.ok()) {
    resp.addr = *obj;
    resp.existed = 0;
    EncodeResponse(resp, &rpc->response);
    Complete(rpc, Status::OK());
    return;
  }
  // Not published (a concurrent Put won, or the bucket pair is full): the
  // object was never visible, so it goes straight back to the allocator.
  ++stats_.rpc_frees;
  Charge(rpc, node_->latency_model().FreeExtraNs());
  if (Status freed = FreeResolved(mine); !freed.ok()) {
    Complete(rpc, std::move(freed));
    return;
  }
  if (st.code() == StatusCode::kAlreadyExists) {
    resp.addr = winner;  // existed stays 1: the client writes through it
    EncodeResponse(resp, &rpc->response);
    Complete(rpc, Status::OK());
    return;
  }
  if (st.code() == StatusCode::kOutOfMemory) ++stats_.index_insert_full;
  Complete(rpc, std::move(st));
}

void Worker::HandleIndexDel(rdma::RpcMessage* rpc, bool forwarded) {
  IndexDelRequest req;
  DecodeRequest(rpc->request, &req);
  if (!forwarded) {
    // Count on first receipt; the op may be forwarded to the owner.
    ++stats_.rpc_frees;
  }

  index::IndexEntry entry;
  if (!node_->index_view()->Lookup(req.key, &entry)) {
    Complete(rpc, Status::NotFound("key not in index"));
    return;
  }
  // Route to the block owner first, exactly as HandleFree does: only the
  // owner mutates block metadata, and while this handler runs on the owner
  // no Collect can detach the block (the owner serves Collect itself).
  const sim::VAddr base = BlockBaseOf(entry.addr.vaddr, node_->block_bytes());
  const CormNode::DirectoryEntry dir = LookupBlockCached(base);
  // A released block has no owner: its entry is dead weight, which the
  // failed resolve below unlinks.
  const int owner = dir.block != nullptr ? dir.block->owner_thread() : id_;
  if (owner != id_) {
    if (owner < 0) {
      // Block in transit to the compaction leader: nothing was unlinked,
      // the client retries after the run.
      Complete(rpc, Status::ObjectLocked("block ownership in transit"));
      return;
    }
    ++stats_.forwarded_ops;
    WorkerMsg msg;
    msg.kind = WorkerMsg::Kind::kForwardedRpc;
    msg.rpc = rpc;
    node_->worker(owner)->Send(msg);
    return;  // the owner completes the RPC
  }
  Charge(rpc, node_->latency_model().FreeExtraNs());

  auto resolved = ResolveObject(entry.addr);
  if (!resolved.ok()) {
    // The entry outlived its object: unlink the dead weight.
    if (node_->index_view()->Remove(req.key)) ++stats_.index_repairs;
    Complete(rpc, Status::NotFound("index entry outlived its object"));
    return;
  }
  // Write-lock first, unlink second, free last: a check that fails leaves
  // the key linked to its live object, and a concurrent keyed lookup sees
  // the live entry, then the write lock (transient), then NotFound — never
  // an entry naming a freed slot.
  ObjectHeader pre;
  Status st = LockForFree(*resolved, &pre);
  if (!st.ok()) {
    Complete(rpc, std::move(st));
    return;
  }
  node_->index_view()->Remove(req.key);
  FreeLocked(*resolved, pre);
  Complete(rpc, Status::OK());
}

// ---------------------------------------------------------------------------
// Bulk loader (benchmark/test path, bypasses the RPC wire).
// ---------------------------------------------------------------------------

void Worker::HandleBulk(BulkRequest* req) {
  if (req->is_alloc) {
    // Bulk loader: benchmark/test path, bypasses the RPC wire entirely.
    req->out_addrs.reserve(req->count);  // NOLINT(corm-hotpath-alloc)
    Buffer pattern(req->payload_size);
    for (size_t i = 0; i < req->count; ++i) {
      // Deterministic payload for later verification.
      PatternFill(req->index_base + i, pattern.data(),
                  static_cast<uint32_t>(pattern.size()));
      auto addr = AllocObject(req->payload_size,
                              Slice(pattern.data(), pattern.size()));
      if (!addr.ok()) {
        req->status = addr.status();
        break;
      }
      req->out_addrs.push_back(*addr);  // NOLINT(corm-hotpath-alloc) bulk path
    }
  } else {
    std::vector<GlobalAddr> not_mine;
    for (const GlobalAddr& addr : req->free_addrs) {
      const sim::VAddr base = BlockBaseOf(addr.vaddr, node_->block_bytes());
      const CormNode::DirectoryEntry entry = LookupBlockCached(base);
      if (entry.block == nullptr) {
        req->status = Status::StalePointer("bulk free: unknown block");
        continue;
      }
      if (entry.block->owner_thread() != id_) {
        not_mine.push_back(addr);  // NOLINT(corm-hotpath-alloc) bulk path
        continue;
      }
      auto resolved = ResolveObject(addr);
      if (!resolved.ok()) {
        req->status = resolved.status();
        continue;
      }
      Status st = FreeResolved(*resolved);
      if (!st.ok()) req->status = std::move(st);
    }
    req->free_addrs = std::move(not_mine);  // returned for re-routing
  }
  req->done.store(true, std::memory_order_release);
}

}  // namespace corm::core
