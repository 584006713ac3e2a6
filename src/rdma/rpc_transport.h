// corm-hotpath
//
// RPC transport over the simulated RDMA fabric (paper §2.2.2, Fig. 3).
//
// Remote peers push RPC requests "directly into the RPC queue"; the DSM
// worker threads poll it, serve the request and reply. The queue is split
// into per-worker rings (one lock-free MPMC ring per worker) so that a
// worker drains its own ring with a batched pop — one head CAS per batch —
// and clients can target the ring of the worker that owns the addressed
// block (owner-affinity dispatch, cutting kForwardedRpc hops). A client has
// at most one outstanding request and spins on the completion flag, like an
// RDMA client polling its CQ — but the spin is *bounded* by a RetryPolicy
// deadline: when the serving node dies mid-request the call returns
// kTimeout instead of hanging, and the abandoned message's lifetime is
// settled by its intrusive refcount (the server still holds a reference and
// releases it whenever it completes).
//
// Messages come from a per-thread freelist (RpcMessagePool) so the
// steady-state data plane performs no heap allocation: the client that
// drops the last reference recycles the message into its own thread's
// freelist and the next call reuses it, request/response buffers keeping
// their capacity. See DESIGN.md §7 for the pooling lifetimes.

#ifndef CORM_RDMA_RPC_TRANSPORT_H_
#define CORM_RDMA_RPC_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/mpmc_queue.h"
#include "common/parker.h"
#include "common/result.h"
#include "common/retry.h"
#include "common/slice.h"
#include "common/status.h"
#include "sim/latency_model.h"

namespace corm::rdma {

// One in-flight RPC. The server fills response/status and sets done last
// (release), which the spinning client observes (acquire).
//
// Lifetime: a message from RpcMessagePool::Acquire() carries two
// references — the client's and the server's — because a timed-out client
// abandons the message while the server may still be about to complete it.
// Whoever drops the last reference returns it to the pool (or frees it
// when that thread's freelist is full). Stack-allocated messages (tests,
// tools that complete synchronously) start at refcount 0, where Unref is a
// no-op and the owner's scope controls the lifetime as before.
struct RpcMessage {
  Buffer request;
  Buffer response;
  Status status;
  // Modeled server-side processing nanoseconds the handler charged (the
  // paper's "+0.5 us for Alloc/Free" style extras); lets clients account
  // full modeled operation latency without a wall clock.
  uint64_t server_extra_ns = 0;
  std::atomic<bool> done{false};

  // Drops one reference; recycles the message when the last one goes.
  void Unref();

 private:
  friend class RpcMessagePool;
  std::atomic<int> refs_{0};  // 0 = stack-owned, Unref is a no-op
};

// Per-thread freelist of RpcMessage objects. On the normal path the client
// thread drops the last reference (the server Completes 2 -> 1, the client
// reads the response and Unrefs 1 -> 0), so messages recycle into the
// *client's* freelist with no cross-thread synchronization and the next
// call on that thread reuses the same message and buffer capacity. On the
// abandoned-timeout path the server's Complete drops the last reference and
// the message recycles into the worker's freelist (bounded; workers never
// acquire, so those entries persist until further abandons overflow the cap
// and delete).
class RpcMessagePool {
 public:
  // A message with refs == 2 (client + server), fields reset, buffers
  // retaining any recycled capacity.
  static RpcMessage* Acquire();

  // Entries on the calling thread's freelist (tests).
  static size_t LocalFreeForTesting();

 private:
  friend struct RpcMessage;
  static constexpr size_t kMaxPerThread = 64;
  // Called by the final Unref. Resets and shelves `msg`, or deletes it
  // when the calling thread's freelist is full.
  static void Recycle(RpcMessage* msg);
};

// Token-style rate limiter modeling the RNIC's two-sided message rate: the
// aggregate Send/Recv throughput of the server NIC is what caps RPC ops/s
// in the paper's Fig. 12 (~700 Kreq/s), independent of worker CPU. Uses the
// global SimTimeScale; disabled at scale 0 (unit tests).
class NicMessageRateLimiter {
 public:
  // rate 0 disables limiting.
  explicit NicMessageRateLimiter(uint64_t msgs_per_sec = 0) {
    SetRate(msgs_per_sec);
  }

  void SetRate(uint64_t msgs_per_sec) {
    interval_ns_.store(
        msgs_per_sec == 0 ? 0 : 1'000'000'000ULL / msgs_per_sec,
        std::memory_order_relaxed);
  }

  // Blocks (exponential-backoff wait) until the caller's message slot is
  // due.
  void Acquire();

 private:
  std::atomic<uint64_t> interval_ns_{0};
  std::atomic<uint64_t> next_slot_ns_{0};
};

// The inbound request queue on the server node: one lock-free ring per
// worker plus a shared rate limiter. Capacity is per ring. Each ring has a
// Parker that its owning worker sleeps on when idle; Push wakes it.
class RpcQueue {
 public:
  explicit RpcQueue(size_t ring_capacity_pow2 = 4096, int num_rings = 1);

  int num_rings() const { return static_cast<int>(rings_.size()); }
  NicMessageRateLimiter* rate_limiter() { return &limiter_; }

  // Enqueues a request; false when every ring is full (client backs off).
  // `ring_hint` targets a specific worker's ring (owner affinity); out of
  // range (or -1) round-robins. A full hinted ring falls through to the
  // others before giving up. Wakes the owner of the ring it landed on if
  // that owner is parked.
  bool Push(RpcMessage* msg, int ring_hint = -1);

  // The parking spot of `ring`'s owning worker. Anything that hands that
  // worker work (Push, the worker's inbox) wakes it through here.
  Parker* parker(int ring) {
    return &rings_[static_cast<size_t>(ring)]->parker;
  }

  // Wakes every ring owner (node stop, service resume).
  void WakeAll();

  // True when `ring` holds a request not yet polled; the seq_cst check a
  // parking owner makes after announcing its park.
  bool RingNonEmpty(int ring) const {
    return rings_[static_cast<size_t>(ring)]->queue.NonEmpty();
  }

  // Dequeues one request from any ring, or nullptr when all are empty.
  // Control-plane use (tests, the cluster restart purge); workers use
  // PollBatch.
  RpcMessage* Poll();

  // Drains up to `max` requests from `ring` only (one batched pop — a
  // single head CAS — amortizing queue synchronization over the batch).
  // Returns the number of messages written to `out`.
  size_t PollBatch(int ring, RpcMessage** out, size_t max);

  size_t ApproxDepth() const;

 private:
  struct Ring {
    explicit Ring(size_t capacity_pow2) : queue(capacity_pow2) {}
    MpmcQueue<RpcMessage*> queue;
    Parker parker;
  };
  // unique_ptr: neither MpmcQueue nor Parker is movable.
  std::vector<std::unique_ptr<Ring>> rings_;
  std::atomic<uint64_t> rr_{0};  // round-robin cursor for unhinted pushes
  NicMessageRateLimiter limiter_;
};

// Modeled wire accounting for one call (client stats).
struct RpcWireStats {
  uint64_t network_ns = 0;       // modeled network round-trip time
  uint64_t server_extra_ns = 0;  // modeled server compute the handler charged
  bool dup_completion = false;   // an injected duplicate completion arrived
};

// Client-side RPC endpoint: pushes requests into a remote RpcQueue and
// spins for the completion — bounded by `policy.deadline_ns` — pacing the
// modeled network time of both legs. Consults the global fault injector at
// the rpc.* sites.
class RpcClient {
 public:
  RpcClient(RpcQueue* queue, sim::LatencyModel model,
            RetryPolicy policy = RetryPolicy{})
      : queue_(queue), model_(model), policy_(policy) {}

  // Zero-copy pooled call: `*msg` (from RpcMessagePool::Acquire, request
  // encoded in place) is sent and, on any status where the message is still
  // owned by the caller, returned with the response in msg->response — the
  // caller decodes in place and Unrefs. On timeout-class failures the
  // transport has already released the caller's reference(s) and nulls
  // `*msg`; the caller must not touch it.
  Status CallPooled(RpcMessage** msg, int ring_hint, RpcWireStats* wire);

  const sim::LatencyModel& model() const { return model_; }
  const RetryPolicy& retry_policy() const { return policy_; }

 private:
  RpcQueue* const queue_;
  const sim::LatencyModel model_;
  const RetryPolicy policy_;
};

}  // namespace corm::rdma

#endif  // CORM_RDMA_RPC_TRANSPORT_H_
