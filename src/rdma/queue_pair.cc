#include "rdma/queue_pair.h"

namespace corm::rdma {

namespace {
// Paper §3.5: recovering a broken QP "can take few milliseconds".
constexpr uint64_t kReconnectNs = 3'000'000;
}  // namespace

Result<uint64_t> QueuePair::Read(RKey r_key, sim::VAddr addr, void* buf,
                                 size_t len) {
  return PostOne({WorkRequest::Op::kRead, r_key, addr, buf, len, {}});
}

Result<uint64_t> QueuePair::Write(RKey r_key, sim::VAddr addr,
                                  const void* data, size_t len) {
  return PostOne({WorkRequest::Op::kWrite, r_key, addr,
                  const_cast<void*>(data), len, {}});
}

Result<uint64_t> QueuePair::PostOne(WorkRequest wr) {
  QueuePair* const self = this;
  auto ns = Post(&self, /*qp_stride=*/0, &wr, 1);
  if (ns.ok() && !wr.status.ok()) return std::move(wr.status);
  return ns;
}

uint64_t QueuePair::ExecuteWr(WorkRequest* wr) {
  if (state_.load(std::memory_order_acquire) == State::kError) {
    // Flush semantics: WRs posted to (or chained behind a break on) an
    // errored QP complete with a flush error and consume no wire time.
    wr->status = Status::QpBroken("WR flushed: QP in error state");
    return 0;
  }
  const bool is_write = wr->op == WorkRequest::Op::kWrite;
  if (!is_write) reads_issued_.fetch_add(1, std::memory_order_relaxed);
  bool broke_qp = false;
  auto fault_ns =
      rnic_->MttAccess(wr->r_key, wr->addr, wr->buf, wr->len, is_write,
                       &broke_qp);
  if (broke_qp) state_.store(State::kError, std::memory_order_release);
  if (!fault_ns.ok()) {
    wr->status = fault_ns.status();
    return 0;
  }
  wr->status = Status::OK();
  return rnic_->model().RdmaWireNs(wr->len) + *fault_ns;
}

Result<uint64_t> QueuePair::Post(QueuePair* const* qps, size_t qp_stride,
                                 WorkRequest* wrs, size_t n) {
  if (n == 0) return Status::InvalidArgument("empty WR chain");
  bool any_live = false;
  for (size_t i = 0; i < n; ++i) {
    if (qps[i * qp_stride]->state() == State::kConnected) {
      any_live = true;
      break;
    }
  }
  if (!any_live) {
    return Status::QpBroken("every QP of the post is in the error state; "
                            "Reconnect() first");
  }
  const sim::LatencyModel& m = qps[0]->model();
  // One doorbell rings the whole chain, only the last WR is signaled: the
  // per-verb overhead is paid once (LatencyModel::RdmaBatchNs shape).
  uint64_t total_ns = m.DoorbellNs() + m.CompletionNs();
  for (size_t i = 0; i < n; ++i) {
    total_ns += qps[i * qp_stride]->ExecuteWr(&wrs[i]);
  }
  sim::Pace(total_ns);
  return total_ns;
}

Result<uint64_t> PostBatchShared(QueuePair* const* qps, WorkRequest* wrs,
                                 size_t n) {
  return QueuePair::Post(qps, /*qp_stride=*/1, wrs, n);
}

Result<uint64_t> QueuePair::PostBatch(WorkRequest* wrs, size_t n) {
  QueuePair* const self = this;
  return Post(&self, /*qp_stride=*/0, wrs, n);
}

uint64_t QueuePair::Reconnect() {
  reconnects_.fetch_add(1, std::memory_order_relaxed);
  sim::Pace(kReconnectNs);
  state_.store(State::kConnected, std::memory_order_release);
  return kReconnectNs;
}

}  // namespace corm::rdma
