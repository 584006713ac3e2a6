// corm-hotpath
#include "rdma/rpc_transport.h"

#include <algorithm>
#include <chrono>

#include "common/cpu_relax.h"
#include "common/thread_annotations.h"
#include "sim/fault_injector.h"

namespace corm::rdma {

namespace {
uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

// ---------------------------------------------------------------------------
// Message pool.
// ---------------------------------------------------------------------------

namespace {

// Thread-local freelist; its destructor (thread exit) frees what the thread
// shelved. Plain vector: only the owning thread touches it.
struct MessageFreeList {
  std::vector<RpcMessage*> items;
  ~MessageFreeList() {
    // Thread exit: the shelf is this thread's; free it. NOLINT(corm-raw-new)
    for (RpcMessage* m : items) delete m;
  }
};

MessageFreeList& LocalFreeList() {
  thread_local MessageFreeList list;
  return list;
}

}  // namespace

RpcMessage* RpcMessagePool::Acquire() {
  MessageFreeList& list = LocalFreeList();
  RpcMessage* msg;
  if (!list.items.empty()) {
    msg = list.items.back();
    list.items.pop_back();
  } else {
    // Cold path: pool empty (warm-up).
    msg = new RpcMessage();  // NOLINT(corm-raw-new)
  }
  // Two references: the calling client's and the serving node's.
  msg->refs_.store(2, std::memory_order_relaxed);
  return msg;
}

size_t RpcMessagePool::LocalFreeForTesting() {
  return LocalFreeList().items.size();
}

void RpcMessagePool::Recycle(RpcMessage* msg) {
  MessageFreeList& list = LocalFreeList();
  if (list.items.size() >= kMaxPerThread) {
    delete msg;  // NOLINT(corm-raw-new) refcount 0: sole owner
    return;
  }
  // Reset for reuse; clear() keeps the buffers' capacity, which is the
  // point of the pool — steady state re-encodes into already-sized storage.
  msg->request.clear();
  msg->response.clear();
  msg->status = Status::OK();
  msg->server_extra_ns = 0;
  // Relaxed is enough: the next use publishes the message to the server
  // through the queue's release/acquire hand-off, which orders this store.
  msg->done.store(false, std::memory_order_relaxed);
  // Freelist shelf: growth is bounded by the in-flight high-water mark and
  // amortizes to zero in steady state. NOLINT(corm-hotpath-alloc)
  list.items.push_back(msg);
}

// Escape: refcounted teardown — exclusive ownership of *this is proven by
// the acq_rel fetch_sub observing 1 (every other holder already released),
// a protocol the analyzer cannot express as a capability.
void RpcMessage::Unref() NO_THREAD_SAFETY_ANALYSIS {
  if (refs_.load(std::memory_order_relaxed) == 0) return;  // stack-owned
  if (refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // The last reference recycles into *this* thread's freelist: the client
    // on the normal path, the worker when the client abandoned on timeout.
    RpcMessagePool::Recycle(this);
  }
}

// ---------------------------------------------------------------------------
// NIC message rate limiter.
// ---------------------------------------------------------------------------

void NicMessageRateLimiter::Acquire() {
  const uint64_t interval = interval_ns_.load(std::memory_order_relaxed);
  if (interval == 0) return;
  const double scale = sim::SimTimeScale().load(std::memory_order_relaxed);
  if (scale <= 0.0) return;
  const auto real_interval = static_cast<uint64_t>(interval * scale);
  // Claim the next message slot; slots never accumulate burst credit
  // (an idle NIC does not store capacity).
  uint64_t slot;
  uint64_t expected = next_slot_ns_.load(std::memory_order_relaxed);
  Backoff backoff;
  for (;;) {
    slot = std::max(expected, NowNs());
    if (next_slot_ns_.compare_exchange_weak(expected, slot + real_interval,
                                            std::memory_order_relaxed)) {
      break;
    }
    // Contended CAS: many clients racing for slots. Back off exponentially
    // so losers stop hammering the line the winner needs.
    backoff.Pause();
  }
  // Wait out the slot. The wait is proportional to queue depth under
  // saturation, so escalate from pauses through yields to short sleeps
  // instead of burning the core at a fixed rate.
  backoff.Reset();
  while (NowNs() < slot) {
    backoff.Pause();
  }
}

// ---------------------------------------------------------------------------
// RPC queue (per-worker rings).
// ---------------------------------------------------------------------------

RpcQueue::RpcQueue(size_t ring_capacity_pow2, int num_rings) {
  const int n = std::max(num_rings, 1);
  rings_.reserve(static_cast<size_t>(n));  // NOLINT(corm-hotpath-alloc) ctor
  for (int i = 0; i < n; ++i) {
    rings_.push_back(  // NOLINT(corm-hotpath-alloc) construction only
        std::make_unique<Ring>(ring_capacity_pow2));
  }
}

bool RpcQueue::Push(RpcMessage* msg, int ring_hint) {
  const size_t n = rings_.size();
  size_t first;
  if (ring_hint >= 0 && static_cast<size_t>(ring_hint) < n) {
    first = static_cast<size_t>(ring_hint);  // owner-affinity dispatch
  } else {
    first = rr_.fetch_add(1, std::memory_order_relaxed) % n;
  }
  // Prefer the chosen ring; sweep the rest so a single full ring does not
  // fail the push while other workers have headroom.
  for (size_t i = 0; i < n; ++i) {
    Ring& ring = *rings_[(first + i) % n];
    if (ring.queue.TryPush(msg)) {
      ring.parker.Wake();
      return true;
    }
  }
  return false;
}

void RpcQueue::WakeAll() {
  for (auto& ring : rings_) ring->parker.Wake();
}

RpcMessage* RpcQueue::Poll() {
  for (auto& ring : rings_) {
    if (auto msg = ring->queue.TryPop()) return *msg;
  }
  return nullptr;
}

size_t RpcQueue::PollBatch(int ring, RpcMessage** out, size_t max) {
  const size_t own =
      (ring >= 0 && static_cast<size_t>(ring) < rings_.size())
          ? static_cast<size_t>(ring)
          : 0;
  return rings_[own]->queue.TryPopBatch(out, max);
}

size_t RpcQueue::ApproxDepth() const {
  size_t total = 0;
  for (const auto& ring : rings_) total += ring->queue.ApproxSize();
  return total;
}

// ---------------------------------------------------------------------------
// Client.
// ---------------------------------------------------------------------------

Status RpcClient::CallPooled(RpcMessage** inout_msg, int ring_hint,
                             RpcWireStats* wire) {
  RpcMessage* msg = *inout_msg;
  auto* fi = sim::GlobalFaultInjector();
  const Deadline deadline(policy_.deadline_ns);

  // Injected extra network latency (congestion, retransmission) on the
  // request leg.
  if (fi != nullptr) {
    uint64_t delay_ns = 0;
    if (fi->ShouldFire(sim::fault_sites::kRpcDelay, &delay_ns)) {
      sim::Pace(delay_ns);
      wire->network_ns += delay_ns;
    }
  }

  // Request leg: RDMA-write of the request into the remote RPC queue; the
  // server NIC admits messages at its two-sided message rate.
  const uint64_t req_leg = model_.RpcNs(msg->request.size()) / 2;
  sim::Pace(req_leg);
  wire->network_ns += req_leg;

  bool delivered = false;
  if (fi == nullptr || !fi->ShouldFire(sim::fault_sites::kRpcDropRequest)) {
    queue_->rate_limiter()->Acquire();
    Backoff backoff;
    for (;;) {
      if (queue_->Push(msg, ring_hint)) {
        delivered = true;
        break;
      }
      // Queue full: remote node saturated; clients retry, which throttles
      // the aggregate RPC throughput exactly as a bounded RPC ring does —
      // up to the deadline, past which the node counts as unresponsive.
      // Exponential backoff: a full ring means many clients outpacing the
      // workers, so spinning at full rate only steepens the overload.
      if (deadline.Expired()) break;
      sim::Pace(200);
      backoff.Pause();
    }
  }
  if (!delivered) {
    // The server will never see this message: release its reference too.
    msg->Unref();
    msg->Unref();
    *inout_msg = nullptr;
    return Status::Timeout("rpc request not delivered");
  }

  // Spin for completion (client polls its completion queue), checking the
  // wall-clock deadline at a coarse stride to keep the hot path cheap.
  // Deliberately CpuRelax (pause + yield), not the sleep ladder: on an
  // oversubscribed host the serving worker needs this core, and a sleeping
  // client would add 50 us to every RPC. Even a 64-poll PAUSE-only prefix
  // starved workers under `ctest -j4`: 15 ms RPC deadlines expired in
  // IndexTest.ConcurrentPutsOfOneFreshKey* in 5 of 12 runs.
  bool completed = false;
  for (uint32_t spins = 0;; ++spins) {
    if (msg->done.load(std::memory_order_acquire)) {
      completed = true;
      break;
    }
    if ((spins & 0x3ff) == 0x3ff && deadline.Expired()) break;
    CpuRelax();
  }
  if (!completed) {
    // Abandon the in-flight call: the server still holds its reference and
    // settles the memory whenever (if ever) it completes the request.
    msg->Unref();
    *inout_msg = nullptr;
    return Status::Timeout("rpc completion deadline expired");
  }

  // The completion (response packet) itself can be lost: the server
  // applied the operation but the client cannot know — classic at-least-
  // once ambiguity, surfaced as kTimeout.
  if (fi != nullptr && fi->ShouldFire(sim::fault_sites::kRpcDropResponse)) {
    msg->Unref();
    *inout_msg = nullptr;
    return Status::Timeout("rpc response lost");
  }

  wire->server_extra_ns = msg->server_extra_ns;

  // Response leg, sized by the reply payload; also a NIC message.
  const uint64_t resp_leg = model_.RpcNs(msg->response.size()) / 2;
  queue_->rate_limiter()->Acquire();
  sim::Pace(resp_leg);
  wire->network_ns += resp_leg;
  if (fi != nullptr && fi->ShouldFire(sim::fault_sites::kRpcDupCompletion)) {
    // Duplicated completion: the NIC delivers the response twice; the
    // second copy costs another message slot and leg of network time.
    wire->dup_completion = true;
    queue_->rate_limiter()->Acquire();
    sim::Pace(resp_leg);
    wire->network_ns += resp_leg;
  }
  // The caller still owns its reference: decode msg->response in place,
  // then Unref.
  return msg->status;
}

}  // namespace corm::rdma
