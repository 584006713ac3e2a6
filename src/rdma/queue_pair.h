// Reliable-connected Queue Pair endpoint (client side).
//
// Only reliable QPs support one-sided RDMA reads (paper §2.2), so this is
// the only QP type CoRM uses. A QP that performs an invalid access — wrong
// r_key, out-of-bounds, or an access racing ibv_rereg_mr — transitions to
// the error state and must be reconnected, which models the multi-
// millisecond recovery cost the paper is careful to avoid.
//
// Every verb — a single Read/Write as much as a chain — is a post of work
// requests through PostBatchShared, and every WR runs in ExecuteWr, the one
// place a verb reaches Rnic::MttAccess.

#ifndef CORM_RDMA_QUEUE_PAIR_H_
#define CORM_RDMA_QUEUE_PAIR_H_

#include <atomic>
#include <cstdint>

#include "common/result.h"
#include "rdma/rnic.h"
#include "sim/latency_model.h"

namespace corm::rdma {

class QueuePair;

// One work request inside a post (ibv_send_wr analogue). The poster fills
// the input fields; the post fills `status` per WR — the per-WR CQE.
struct WorkRequest {
  enum class Op : uint8_t { kRead, kWrite };

  Op op = Op::kRead;
  RKey r_key = 0;
  sim::VAddr addr = 0;
  void* buf = nullptr;  // read destination / write source
  size_t len = 0;
  Status status;        // out: per-WR completion status
};

// Chained post with selective signaling across one or more QPs sharing a
// completion queue: qps[i] executes wrs[i]. One doorbell charge covers the
// chain (per-QP MMIO posts are back-to-back, overlapped with the first wire
// leg) and only the final WR is signaled, so the batch pays
// DoorbellNs + sum(wire legs) + CompletionNs — the LatencyModel::RdmaBatchNs
// shape — instead of n full round trips; a one-WR post is exactly
// RdmaReadNs(len). Per-WR failures land in wrs[i].status (a WR that breaks
// its QP flushes that QP's remaining WRs with kQpBroken, IB flush
// semantics); the call itself only fails when every QP was already broken
// on entry or n == 0. Returns the total modeled ns, already paced.
Result<uint64_t> PostBatchShared(QueuePair* const* qps, WorkRequest* wrs,
                                 size_t n);

class QueuePair {
 public:
  enum class State { kConnected, kError };

  // A QP connects to a remote RNIC. Latency constants come from the RNIC's
  // model (both ends share the fabric).
  explicit QueuePair(Rnic* remote_rnic) : rnic_(remote_rnic) {}

  State state() const { return state_.load(std::memory_order_acquire); }

  // One-sided RDMA read of `len` bytes at remote `addr` into `buf`: a
  // one-WR post. Returns the modeled round-trip nanoseconds (including any
  // ODP faults), and paces the calling thread by that amount. On a remote
  // access error the QP enters the error state and the WR's kQpBroken is
  // returned.
  Result<uint64_t> Read(RKey r_key, sim::VAddr addr, void* buf, size_t len);

  // One-sided RDMA write, the same way (the replicated log shipper's verb).
  Result<uint64_t> Write(RKey r_key, sim::VAddr addr, const void* data,
                         size_t len);

  // Chained post on this QP alone (see PostBatchShared above).
  Result<uint64_t> PostBatch(WorkRequest* wrs, size_t n);

  // Re-establishes a broken connection. Models the paper's "few
  // milliseconds" of reconnection cost.
  uint64_t Reconnect();

  uint64_t reads_issued() const {
    return reads_issued_.load(std::memory_order_relaxed);
  }
  uint64_t reconnects() const {
    return reconnects_.load(std::memory_order_relaxed);
  }

  const sim::LatencyModel& model() const { return rnic_->model(); }

 private:
  friend Result<uint64_t> PostBatchShared(QueuePair* const*, WorkRequest*,
                                          size_t);

  // The one post body: qps[i * qp_stride] executes wrs[i] (stride 0 posts
  // the whole chain on qps[0]).
  static Result<uint64_t> Post(QueuePair* const* qps, size_t qp_stride,
                               WorkRequest* wrs, size_t n);

  // Posts `wr` alone and folds its per-WR status into the result.
  Result<uint64_t> PostOne(WorkRequest wr);

  // Executes one WR unpaced: runs the MTT access, fills the WR's status,
  // and returns the modeled wire-side cost of this WR alone (wire leg +
  // MTT faults; no doorbell/completion — the poster charges those once per
  // chain).
  uint64_t ExecuteWr(WorkRequest* wr);

  Rnic* const rnic_;
  std::atomic<State> state_{State::kConnected};
  std::atomic<uint64_t> reads_issued_{0};
  std::atomic<uint64_t> reconnects_{0};
};

}  // namespace corm::rdma

#endif  // CORM_RDMA_QUEUE_PAIR_H_
