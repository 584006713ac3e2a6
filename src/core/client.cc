// corm-hotpath
#include "core/client.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/logging.h"
#include "core/object_layout.h"
#include "core/rpc_protocol.h"
#include "index/index_layout.h"
#include "index/remote_seq.h"
#include "sim/fault_injector.h"
#include "sim/latency_model.h"

namespace corm::core {

namespace {
// Stripes contexts across the node's RPC rings.
int NextClientRing(int num_rings) {
  static std::atomic<uint32_t> next{0};
  return static_cast<int>(next.fetch_add(1, std::memory_order_relaxed) %
                          static_cast<uint32_t>(num_rings));
}
}  // namespace

Context::Context(CormNode* node, Options options)
    : node_(node),
      options_(options),
      qp_(node->rnic()),
      rpc_(node->rpc_queue(), node->latency_model(), options.rpc_retry),
      ring_(NextClientRing(node->rpc_queue()->num_rings())),
      shard_(node->NextClientStatShard()),
      scratch_(node->block_bytes()),
      batch_scratch_(kBatchChain * node->block_bytes()) {}

std::unique_ptr<Context> Context::Create(CormNode* node, Options options) {
  // Private constructor: make_unique cannot reach it. NOLINT(corm-raw-new)
  return std::unique_ptr<Context>(new Context(node, options));
}

// ---------------------------------------------------------------------------
// Transport helpers.
// ---------------------------------------------------------------------------

Status Context::RpcCallPooled(rdma::RpcMessage** msg, int ring_hint) {
  stats_.rpc_calls++;
  rdma::RpcWireStats wire;
  Status st = rpc_.CallPooled(msg, ring_hint, &wire);
  stats_.modeled_ns_total += wire.network_ns + wire.server_extra_ns;
  if (wire.dup_completion) stats_.dup_completions++;
  if (st.IsTimeout()) stats_.timeouts++;
  if (!st.ok() && *msg != nullptr) {
    // Uniform failure contract for callers: the message is gone.
    (*msg)->Unref();
    *msg = nullptr;
  }
  return st;
}

int Context::RingHintFor(const GlobalAddr& addr) const {
  const int hint = addr.OwnerHint();
  return hint >= 0 && hint < node_->rpc_queue()->num_rings() ? hint : ring_;
}

Status Context::RawRead(rdma::RKey r_key, sim::VAddr vaddr, void* buf,
                        size_t len) {
  if (options_.local) {
    // Colocated access: CPU loads through the MMU, no RNIC involved.
    return node_->rnic()->address_space()->ReadVirtual(vaddr, buf, len);
  }
  auto ns = qp_.Read(r_key, vaddr, buf, len);
  if (!ns.ok()) {
    if (ns.status().IsQpBroken()) {
      stats_.qp_reconnects++;
      qp_.Reconnect();
    }
    return ns.status();
  }
  stats_.modeled_ns_total += *ns;
  return Status::OK();
}

// Tracks the modeled duration of one public API call.
class Context::OpTimer {
 public:
  explicit OpTimer(Context* ctx)
      : ctx_(ctx), start_(ctx->stats_.modeled_ns_total) {}
  ~OpTimer() { ctx_->stats_.last_op_ns = ctx_->stats_.modeled_ns_total - start_; }

 private:
  Context* const ctx_;
  const uint64_t start_;
};

// ---------------------------------------------------------------------------
// RPC operations (Table 2).
// ---------------------------------------------------------------------------

Result<GlobalAddr> Context::Alloc(size_t size) {
  OpTimer timer(this);
  rdma::RpcMessage* msg = rdma::RpcMessagePool::Acquire();
  EncodeRequest(RpcOp::kAlloc, AllocRequest{size}, &msg->request);
  // Any worker can allocate: stay on the client's home ring so load maps
  // to as few workers as there are active clients.
  CORM_RETURN_NOT_OK(RpcCallPooled(&msg, ring_));
  AllocResponse resp;
  DecodeResponse(msg->response, &resp);
  msg->Unref();
  return resp.addr;
}

Status Context::Free(GlobalAddr* addr) {
  OpTimer timer(this);
  rdma::RpcMessage* msg = rdma::RpcMessagePool::Acquire();
  EncodeRequest(RpcOp::kFree, FreeRequest{*addr}, &msg->request);
  // Free is ownership-bound: the owner hint routes it straight to the
  // owning worker's ring, skipping the kForwardedRpc hop.
  Status st = RpcCallPooled(&msg, RingHintFor(*addr));
  if (msg != nullptr) msg->Unref();
  if (st.ok()) *addr = GlobalAddr{};  // the pointer is dead
  return st;
}

Status Context::Read(GlobalAddr* addr, void* buf, size_t size) {
  OpTimer timer(this);
  rdma::RpcMessage* msg = rdma::RpcMessagePool::Acquire();
  EncodeRequest(RpcOp::kRead,
                ReadRequest{*addr, static_cast<uint32_t>(size)},
                &msg->request);
  CORM_RETURN_NOT_OK(RpcCallPooled(&msg, ring_));
  ReadResponse resp;
  Slice payload = DecodeResponse(msg->response, &resp);
  if (payload.size() < size) {
    msg->Unref();
    return Status::Internal("short read payload");
  }
  std::memcpy(buf, payload.data(), size);
  msg->Unref();
  if (resp.addr.vaddr != addr->vaddr) stats_.pointer_corrections++;
  *addr = resp.addr;  // server-corrected pointer (§3.2.1)
  return Status::OK();
}

Status Context::Write(GlobalAddr* addr, const void* buf, size_t size) {
  OpTimer timer(this);
  // The serving worker applies the write under the object's own lock (its
  // header seqlock), so the client takes no lock of its own (DESIGN.md §12).
  rdma::RpcMessage* msg = rdma::RpcMessagePool::Acquire();
  EncodeRequest(RpcOp::kWrite,
                WriteRequest{*addr, static_cast<uint32_t>(size)},
                &msg->request, Slice(static_cast<const char*>(buf), size));
  CORM_RETURN_NOT_OK(RpcCallPooled(&msg, ring_));
  WriteResponse resp;
  DecodeResponse(msg->response, &resp);
  msg->Unref();
  if (resp.addr.vaddr != addr->vaddr) stats_.pointer_corrections++;
  *addr = resp.addr;
  return Status::OK();
}

Status Context::ReleasePtr(GlobalAddr* addr) {
  OpTimer timer(this);
  rdma::RpcMessage* msg = rdma::RpcMessagePool::Acquire();
  EncodeRequest(RpcOp::kReleasePtr, ReleasePtrRequest{*addr}, &msg->request);
  CORM_RETURN_NOT_OK(RpcCallPooled(&msg, ring_));
  ReleasePtrResponse resp;
  DecodeResponse(msg->response, &resp);
  msg->Unref();
  *addr = resp.addr;  // canonical pointer in the object's current block
  return Status::OK();
}

// ---------------------------------------------------------------------------
// One-sided reads (§3.2.2, §3.2.3).
// ---------------------------------------------------------------------------

Status Context::ValidateAndExtract(const uint8_t* slot, uint32_t slot_size,
                                   const GlobalAddr& addr, void* buf,
                                   size_t size) {
  const ObjectHeader h =
      ObjectHeader::Unpack(*reinterpret_cast<const uint64_t*>(slot));
  if (h.lock == LockState::kTombstone || h.obj_id != addr.obj_id) {
    return Status::ObjectMoved("object not at hinted offset");
  }
  if (!Readable(h.lock)) {
    return Status::ObjectLocked("object write-locked");
  }
  if (!SnapshotConsistent(slot, slot_size)) {
    return Status::TornRead("cacheline version mismatch");
  }
  if (size > PayloadCapacity(slot_size)) {
    return Status::InvalidArgument("read larger than object payload");
  }
  ReadPayload(slot, slot_size, buf, static_cast<uint32_t>(size));
  return Status::OK();
}

void Context::CountReadFailure(const Status& st) {
  stats_.direct_read_failures++;
  if (st.IsTornRead()) stats_.torn_reads++;
  if (st.IsObjectLocked()) stats_.locked_reads++;
  if (st.IsObjectMoved()) stats_.moved_reads++;
}

Status Context::SnapshotRead(const GlobalAddr& addr, void* buf, size_t size) {
  const uint32_t slot_size = node_->classes().ClassSize(addr.class_idx);
  uint8_t stack_slot[4096];
  uint8_t* slot =
      slot_size <= sizeof(stack_slot) ? stack_slot : scratch_.data();
  CORM_RETURN_NOT_OK(RawRead(addr.r_key, addr.vaddr, slot, slot_size));
  return ValidateAndExtract(slot, slot_size, addr, buf, size);
}

Status Context::DirectRead(const GlobalAddr& addr, void* buf, size_t size) {
  OpTimer timer(this);
  stats_.direct_reads++;
  Status st = SnapshotRead(addr, buf, size);
  if (!st.ok()) CountReadFailure(st);
  return st;
}

Status Context::DirectReadBatch(const GlobalAddr* addrs, size_t n, void* bufs,
                                size_t size, Status* statuses) {
  OpTimer timer(this);
  if (n == 0) return Status::OK();
  uint8_t* out = static_cast<uint8_t*>(bufs);
  Status first;
  if (options_.local) {
    // Colocated: CPU loads, no doorbell to amortize.
    for (size_t i = 0; i < n; ++i) {
      statuses[i] = DirectRead(addrs[i], out + i * size, size);
      if (!statuses[i].ok() && first.ok()) first = statuses[i];
    }
    return first;
  }
  const size_t block_bytes = node_->block_bytes();
  size_t done = 0;
  while (done < n) {
    const size_t k = std::min(n - done, kBatchChain);
    rdma::WorkRequest wrs[kBatchChain];
    for (size_t i = 0; i < k; ++i) {
      const GlobalAddr& a = addrs[done + i];
      wrs[i] = rdma::WorkRequest{};
      wrs[i].op = rdma::WorkRequest::Op::kRead;
      wrs[i].r_key = a.r_key;
      wrs[i].addr = a.vaddr;
      wrs[i].buf = batch_scratch_.data() + i * block_bytes;
      wrs[i].len = node_->classes().ClassSize(a.class_idx);
    }
    stats_.direct_reads += k;
    auto ns = qp_.PostBatch(wrs, k);
    if (!ns.ok()) {
      // Whole-chain failure (QP already broken): every op inherits it.
      for (size_t i = 0; i < k; ++i) statuses[done + i] = ns.status();
      stats_.direct_read_failures += k;
      if (first.ok()) first = ns.status();
    } else {
      stats_.modeled_ns_total += *ns;
      stats_.direct_read_batches++;
      ++shard_.doorbell_batches;
      shard_.doorbell_batched_wrs += k;
      for (size_t i = 0; i < k; ++i) {
        const GlobalAddr& a = addrs[done + i];
        Status st = wrs[i].status;
        if (st.ok()) {
          st = ValidateAndExtract(
              batch_scratch_.data() + i * block_bytes,
              node_->classes().ClassSize(a.class_idx), a,
              out + (done + i) * size, size);
        }
        if (!st.ok()) {
          CountReadFailure(st);
          if (first.ok()) first = st;
        }
        statuses[done + i] = st;
      }
    }
    if (qp_.state() == rdma::QueuePair::State::kError) {
      stats_.qp_reconnects++;
      qp_.Reconnect();
    }
    done += k;
  }
  return first;
}

Status Context::ScanRead(GlobalAddr* addr, void* buf, size_t size) {
  OpTimer timer(this);
  stats_.scan_reads++;
  const uint32_t slot_size = node_->classes().ClassSize(addr->class_idx);
  const size_t block_bytes = node_->block_bytes();
  const sim::VAddr base = BlockBaseOf(addr->vaddr, block_bytes);
  CORM_RETURN_NOT_OK(RawRead(addr->r_key, base, scratch_.data(), block_bytes));

  const uint32_t num_slots = static_cast<uint32_t>(block_bytes / slot_size);
  for (uint32_t slot = 0; slot < num_slots; ++slot) {
    const uint8_t* sptr = scratch_.data() + slot * slot_size;
    const ObjectHeader h =
        ObjectHeader::Unpack(*reinterpret_cast<const uint64_t*>(sptr));
    if (h.obj_id != addr->obj_id || h.lock == LockState::kTombstone) continue;
    CORM_RETURN_NOT_OK(ValidateAndExtract(sptr, slot_size, *addr, buf, size));
    const sim::VAddr corrected = base + static_cast<uint64_t>(slot) * slot_size;
    if (corrected != addr->vaddr) stats_.pointer_corrections++;
    addr->vaddr = corrected;  // pointer is direct again (§3.2)
    return Status::OK();
  }
  return Status::NotFound("object not found in block scan");
}

RetryState Context::RecoveryRetry() {
  // The jitter stream is seeded from the node seed and a per-context
  // sequence number, so a seeded run replays the same backoff schedule.
  return RetryState(options_.recovery_retry,
                    node_->config().seed ^
                        (++retry_seq_ * 0x9e3779b97f4a7c15ULL));
}

Status Context::ReadWithRecovery(GlobalAddr* addr, void* buf, size_t size,
                                 MovedFallback fallback) {
  // Retry with exponential backoff until the policy deadline. What is
  // retried is transient: a writer's lock, a torn snapshot, a broken QP, or
  // a moved object whose fallback raced one of those. Compaction no longer
  // is — a kCompacting object reads through (DESIGN.md §8) — so a Get that
  // meets a merge in progress pays no backoff.
  RetryState retry = RecoveryRetry();
  while (retry.NextAttempt()) {
    Status st = DirectRead(*addr, buf, size);
    if (st.ok()) return st;
    if (st.IsObjectMoved()) {
      // Pointer correction on the client side (§3.2.2): re-fetch via scan
      // or an RPC read; both return a corrected pointer. The fallback can
      // itself hit a write-locked or torn object — that is as transient as
      // a failed DirectRead, so it re-enters the backoff loop (§3.2.3: "the
      // read is repeated after a backoff period").
      stats_.failovers++;
      st = fallback == MovedFallback::kScanRead ? ScanRead(addr, buf, size)
                                                : Read(addr, buf, size);
      if (st.ok()) return st;
    }
    if (st.IsTornRead() || st.IsObjectLocked() || st.IsQpBroken() ||
        st.IsObjectMoved()) {
      stats_.retries++;
      sim::Pace(retry.BackoffNs());
      std::this_thread::yield();  // let the lock holder progress
      continue;
    }
    return st;  // NotFound / Timeout / NetworkError / ...: not retryable here
  }
  stats_.timeouts++;
  return Status::Timeout("read recovery deadline expired (object stayed "
                         "locked, torn, or unreachable)");
}

// ---------------------------------------------------------------------------
// Keyed access layer (DESIGN.md §13).
// ---------------------------------------------------------------------------

template <typename Op>
Status Context::RetryWhileLocked(Op&& op) {
  RetryState retry = RecoveryRetry();
  while (retry.NextAttempt()) {
    Status st = op();
    if (!st.IsObjectLocked()) return st;
    stats_.retries++;
    sim::Pace(retry.BackoffNs());
    std::this_thread::yield();
  }
  stats_.timeouts++;
  return Status::Timeout("recovery deadline expired (object stayed locked)");
}

Status Context::WriteWithRecovery(GlobalAddr* addr, const void* buf,
                                  size_t size) {
  // The serving worker gives up on a write-locked object after a bounded
  // spin, so a concurrent writer descheduled while holding the lock turns
  // into kObjectLocked here; the write was not applied and is retried.
  return RetryWhileLocked([&] { return Write(addr, buf, size); });
}

Status Context::ProbeBuckets(uint64_t key, GlobalAddr* addr) {
  const index::IndexTableCoords table = node_->index_table();
  if (table.buckets == 0) return Status::NotFound("index table absent");
  const uint64_t b1 = index::BucketOf(key, table.buckets);
  const uint64_t b2 = index::AltBucketOf(key, table.buckets);

  // Snapshot the epoch word and both candidate buckets, then re-read each
  // bucket's seq word. The chain executes in order, so an unchanged, even
  // seq across (snapshot, re-read) proves no writer touched the bucket in
  // between — index::SeqSnapshotConsistent, the bucket-sized twin of the
  // object seqlock validation.
  uint64_t epoch = 0;
  index::IndexBucket snap[2];
  uint64_t reseq[2] = {0, 0};
  rdma::WorkRequest wrs[5];
  for (auto& wr : wrs) {
    wr = rdma::WorkRequest{};
    wr.op = rdma::WorkRequest::Op::kRead;
    wr.r_key = table.r_key;
  }
  wrs[0].addr = table.base;
  wrs[0].buf = &epoch;
  wrs[0].len = sizeof(epoch);
  wrs[1].addr = table.BucketAddr(b1);
  wrs[1].buf = &snap[0];
  wrs[1].len = sizeof(snap[0]);
  wrs[2].addr = table.BucketAddr(b2);
  wrs[2].buf = &snap[1];
  wrs[2].len = sizeof(snap[1]);
  wrs[3].addr = table.BucketAddr(b1);
  wrs[3].buf = &reseq[0];
  wrs[3].len = sizeof(uint64_t);
  wrs[4].addr = table.BucketAddr(b2);
  wrs[4].buf = &reseq[1];
  wrs[4].len = sizeof(uint64_t);
  if (options_.local) {
    // Colocated: the same reads in the same order, as CPU loads.
    for (const auto& wr : wrs) {
      CORM_RETURN_NOT_OK(RawRead(wr.r_key, wr.addr, wr.buf, wr.len));
    }
  } else {
    auto ns = qp_.PostBatch(wrs, 5);
    if (!ns.ok()) {
      if (qp_.state() == rdma::QueuePair::State::kError) {
        stats_.qp_reconnects++;
        qp_.Reconnect();
      }
      return ns.status();
    }
    stats_.modeled_ns_total += *ns;
    ++shard_.doorbell_batches;
    shard_.doorbell_batched_wrs += 5;
    for (const auto& wr : wrs) {
      CORM_RETURN_NOT_OK(wr.status);
    }
  }

  for (int i = 0; i < 2; ++i) {
    if (!index::SeqSnapshotConsistent(snap[i].seq, reseq[i])) {
      return Status::TornRead("index bucket snapshot torn");
    }
  }
  for (const index::IndexBucket& bucket : snap) {
    for (const index::IndexEntry& e : bucket.entries) {
      if (!e.Live() || e.key != key) continue;
      if (e.fence_epoch != static_cast<uint16_t>(epoch)) {
        // Sealed-out entry (failover re-home): only the RPC path may
        // vouch for it — and it re-mints the entry under the new epoch.
        return Status::StalePointer("index entry fenced by epoch seal");
      }
      *addr = e.addr;
      return Status::OK();
    }
  }
  // Absence is only a hint too: a concurrent insert may be mid-publish, so
  // the caller confirms through the authoritative RPC lookup.
  return Status::NotFound("key not in index buckets");
}

Status Context::IndexLookupRpc(uint64_t key, GlobalAddr* addr) {
  stats_.index_rpc_fallbacks++;
  rdma::RpcMessage* msg = rdma::RpcMessagePool::Acquire();
  EncodeRequest(RpcOp::kIndexLookup, IndexLookupRequest{key}, &msg->request);
  CORM_RETURN_NOT_OK(RpcCallPooled(&msg, ring_));
  IndexLookupResponse resp;
  DecodeResponse(msg->response, &resp);
  msg->Unref();
  *addr = resp.addr;
  return Status::OK();
}

Status Context::Get(uint64_t key, void* buf, size_t size) {
  OpTimer timer(this);
  stats_.index_lookups++;
  ++shard_.index_lookups;

  // Fault site: pretend every one-sided resolution step came back stale,
  // driving the op straight down the RPC fallback path.
  bool force_rpc = false;
  uint64_t delay_ns = 0;
  if (auto* inj = sim::GlobalFaultInjector();
      inj != nullptr &&
      inj->ShouldFire(sim::fault_sites::kIndexStaleHint, &delay_ns)) {
    if (delay_ns > 0) sim::Pace(delay_ns);
    force_rpc = true;
  }

  // One hash lookup per Get: nothing below inserts into the cache before
  // the end, so the key's hint is updated or dropped through `it`.
  auto it = hint_cache_.find(key);
  const auto remember = [&](const GlobalAddr& hint) {
    if (it != hint_cache_.end()) {
      it->second = hint;
    } else {
      hint_cache_[key] = hint;
    }
  };
  GlobalAddr addr;
  if (!force_rpc) {
    // 1. Cached hint: the steady state is this single validated read.
    if (it != hint_cache_.end()) {
      Status st = DirectRead(it->second, buf, size);
      if (st.ok()) {
        stats_.index_one_sided_hits++;
        ++shard_.index_one_sided_hits;
        return st;
      }
    }
    // 2. One-sided bucket probe, then the validated read on its hint.
    Status st = ProbeBuckets(key, &addr);
    if (st.ok()) {
      st = DirectRead(addr, buf, size);
      if (st.ok()) {
        stats_.index_one_sided_hits++;
        ++shard_.index_one_sided_hits;
        remember(addr);
        return st;
      }
    }
  }
  // 3. Authoritative RPC lookup (self-heals the bucket entry server-side),
  // then a recovering read that rides out compaction locks and moves.
  Status st = IndexLookupRpc(key, &addr);
  if (st.ok()) {
    st = ReadWithRecovery(&addr, buf, size, MovedFallback::kRpcRead);
  }
  if (st.ok()) {
    remember(addr);
  } else if (it != hint_cache_.end()) {
    hint_cache_.erase(it);
  }
  return st;
}

Result<GlobalAddr> Context::Put(uint64_t key, const void* buf, size_t size) {
  OpTimer timer(this);
  stats_.index_lookups++;
  ++shard_.index_lookups;

  // Fast path: a cached pointer goes straight to the write RPC, whose
  // server-side resolution corrects stale hints anyway.
  auto it = hint_cache_.find(key);
  if (it != hint_cache_.end()) {
    GlobalAddr addr = it->second;
    Status st = WriteWithRecovery(&addr, buf, size);
    if (st.ok()) {
      stats_.index_one_sided_hits++;
      ++shard_.index_one_sided_hits;
      it->second = addr;
      return addr;
    }
    hint_cache_.erase(it);
    if (!st.IsStalePointer() && !st.IsObjectMoved() && !st.IsNotFound()) {
      return st;
    }
  }

  // One kIndexPut RPC: the worker looks the key up and, when it is fresh,
  // allocates, fills and publishes the object itself. A live key (or the
  // winner of a concurrent publish) comes back unwritten, and the value is
  // written through it like any overwrite.
  stats_.index_rpc_fallbacks++;
  rdma::RpcMessage* msg = rdma::RpcMessagePool::Acquire();
  EncodeRequest(RpcOp::kIndexPut,
                IndexPutRequest{key, static_cast<uint32_t>(size)},
                &msg->request, Slice(static_cast<const char*>(buf), size));
  // Any worker can allocate: stay on the home ring.
  CORM_RETURN_NOT_OK(RpcCallPooled(&msg, ring_));
  IndexPutResponse resp;
  DecodeResponse(msg->response, &resp);
  msg->Unref();
  GlobalAddr addr = resp.addr;
  if (resp.existed != 0) {
    CORM_RETURN_NOT_OK(WriteWithRecovery(&addr, buf, size));
  }
  hint_cache_[key] = addr;
  return addr;
}

Status Context::Del(uint64_t key) {
  OpTimer timer(this);
  stats_.index_lookups++;
  ++shard_.index_lookups;

  // Del is ownership-bound: the cached hint's owner stamp routes it to the
  // owning worker's ring; without a hint the home ring forwards it.
  int ring = ring_;
  if (auto it = hint_cache_.find(key); it != hint_cache_.end()) {
    ring = RingHintFor(it->second);
    hint_cache_.erase(it);
  }
  // The owner unlinks and frees in one handler. kObjectLocked (block in
  // transit to the compaction leader, object under compaction or write-
  // locked) means the key is still linked to its live object: retry.
  return RetryWhileLocked([&] {
    rdma::RpcMessage* msg = rdma::RpcMessagePool::Acquire();
    EncodeRequest(RpcOp::kIndexDel, IndexDelRequest{key}, &msg->request);
    Status st = RpcCallPooled(&msg, ring);
    if (msg != nullptr) msg->Unref();
    return st;
  });
}

}  // namespace corm::core
