// corm-hotpath
//
// Ship path for the one-sided replicated log. Ship() runs once per replica
// per replicated write, so it follows the data-plane discipline: no locks,
// no allocation after session setup — records are serialized into the
// session's preallocated staging image and written to the wire from there.

#include "rdma/log_shipper.h"

#include <atomic>
#include <cstring>

#include "common/logging.h"
#include "sim/fault_injector.h"
#include "sim/latency_model.h"

namespace corm::rdma {

namespace {
// Modeled gap between ack polls: the primary's doorbell/poll cadence, well
// under one fabric round trip.
constexpr uint64_t kAckPollGapNs = 200;
// Retransmit the unacked window every Nth unproductive ack poll.
constexpr int kRetransmitEvery = 8;
}  // namespace

int ReplicaLogShipper::AddSession(Rnic* remote_rnic, sim::VAddr ring_base,
                                  RKey r_key, uint32_t slots,
                                  uint32_t slot_bytes, Parker* drainer) {
  // Session setup is the cold path (once per replica node per context);
  // the staging image is the allocation that keeps Ship() allocation-free.
  // NOLINT(corm-hotpath-alloc)
  auto s = std::make_unique<Session>(remote_rnic);
  s->base = ring_base;
  s->r_key = r_key;
  s->slots = slots;
  s->slot_bytes = slot_bytes;
  s->drainer = drainer;
  // Staging image + per-slot lengths, sized once here so the ship path
  // never grows them. NOLINT(corm-hotpath-alloc)
  s->staging.resize(static_cast<size_t>(slots) * slot_bytes);
  s->staged_len.assign(slots, 0);  // NOLINT(corm-hotpath-alloc) cold path
  sessions_.push_back(std::move(s));  // NOLINT(corm-hotpath-alloc) cold path
  return static_cast<int>(sessions_.size()) - 1;
}

uint32_t ReplicaLogShipper::capacity(int session) const {
  const Session& s = *sessions_[session];
  return s.slot_bytes - static_cast<uint32_t>(sizeof(ReplRecordHeader));
}

uint64_t ReplicaLogShipper::acked(int session) const {
  return sessions_[session]->acked;
}

uint64_t ReplicaLogShipper::next_seq(int session) const {
  return sessions_[session]->next;
}

Status ReplicaLogShipper::WriteSlot(Session& s, uint64_t seq) {
  const uint32_t wire = s.staged_len[(seq - 1) % s.slots];
  auto ns = s.qp.Write(s.r_key, SlotAddr(s, seq), StagedSlot(s, seq), wire);
  if (ns.status().code() == StatusCode::kQpBroken) {
    // Broken QP (fault site qp.break): reconnect in place and retry. Every
    // staged record survives in the session image, so nothing is lost.
    modeled_ns_ += s.qp.Reconnect();
    ns = s.qp.Write(s.r_key, SlotAddr(s, seq), StagedSlot(s, seq), wire);
  }
  CORM_RETURN_NOT_OK(ns.status());
  modeled_ns_ += *ns;
  // The record landed through plain stores (the simulated RDMA write). The
  // fence orders them before Wake's check of the parking word; it pairs
  // with the fence the applier runs between announcing its park and
  // checking its rings (common/parker.h, Worker::ParkIdle).
  std::atomic_thread_fence(std::memory_order_seq_cst);
  s.drainer->Wake();
  return Status::OK();
}

Result<uint64_t> ReplicaLogShipper::Ship(int session, uint8_t kind,
                                         uint32_t epoch, uint64_t version,
                                         const uint8_t addr[16],
                                         Slice payload) {
  Session& s = *sessions_[session];
  if (payload.size() > capacity(session)) {
    return Status::InvalidArgument("record exceeds ring slot");
  }
  const uint64_t seq = s.next;
  if (seq > s.acked + s.slots) {
    // Window full: the slot for `seq` still holds an unapplied record.
    // Refresh the ack one-sidedly before giving up.
    auto applied = ReadApplied(session);
    CORM_RETURN_NOT_OK(applied.status());
    if (seq > s.acked + s.slots) {
      return Status::NetworkError("repl ring window full");
    }
  }

  ReplRecordHeader h;
  h.magic = kReplRecordMagic;
  h.epoch = epoch;
  h.seq = seq;
  h.version = version;
  std::memcpy(h.addr, addr, sizeof(h.addr));
  h.payload_len = static_cast<uint32_t>(payload.size());
  h.kind = kind;
  h.crc = ReplRecordCrc(h, payload.data(), payload.size());

  uint8_t* slot = StagedSlot(s, seq);
  std::memcpy(slot, &h, sizeof(h));
  if (!payload.empty()) {
    std::memcpy(slot + sizeof(h), payload.data(), payload.size());
  }
  s.staged_len[(seq - 1) % s.slots] =
      static_cast<uint32_t>(sizeof(h) + payload.size());

  if (auto* inj = sim::GlobalFaultInjector();
      inj == nullptr || !inj->ShouldFire(sim::fault_sites::kReplShipDrop)) {
    CORM_RETURN_NOT_OK(WriteSlot(s, seq));
  }
  s.next = seq + 1;
  return seq;
}

Result<uint64_t> ReplicaLogShipper::ReadApplied(int session) {
  Session& s = *sessions_[session];
  uint64_t delay_ns = 0;
  if (auto* inj = sim::GlobalFaultInjector();
      inj != nullptr &&
      inj->ShouldFire(sim::fault_sites::kReplAckDelay, &delay_ns)) {
    sim::Pace(delay_ns);
    modeled_ns_ += delay_ns;
  }
  uint64_t word = 0;
  auto ns = s.qp.Read(s.r_key, s.base, &word, sizeof(word));
  if (ns.status().code() == StatusCode::kQpBroken) {
    modeled_ns_ += s.qp.Reconnect();
    ns = s.qp.Read(s.r_key, s.base, &word, sizeof(word));
  }
  CORM_RETURN_NOT_OK(ns.status());
  modeled_ns_ += *ns;
  if (word > s.acked) s.acked = word;
  return word;
}

Result<uint64_t> ReplicaLogShipper::ReadAppliedBatch(const int* sessions,
                                                     size_t n) {
  // Fixed chain width keeps this allocation-free (hotpath discipline):
  // wider polls run as back-to-back chains.
  constexpr size_t kChain = 16;
  uint64_t total_ns = 0;
  while (n > 0) {
    const size_t k = n < kChain ? n : kChain;
    QueuePair* qps[kChain];
    WorkRequest wrs[kChain];
    uint64_t words[kChain] = {};
    for (size_t i = 0; i < k; ++i) {
      Session& s = *sessions_[sessions[i]];
      if (s.qp.state() == QueuePair::State::kError) {
        const uint64_t reconnect_ns = s.qp.Reconnect();
        modeled_ns_ += reconnect_ns;
        total_ns += reconnect_ns;
      }
      uint64_t delay_ns = 0;
      if (auto* inj = sim::GlobalFaultInjector();
          inj != nullptr &&
          inj->ShouldFire(sim::fault_sites::kReplAckDelay, &delay_ns)) {
        sim::Pace(delay_ns);
        modeled_ns_ += delay_ns;
        total_ns += delay_ns;
      }
      qps[i] = &s.qp;
      wrs[i] = WorkRequest{};
      wrs[i].op = WorkRequest::Op::kRead;
      wrs[i].r_key = s.r_key;
      wrs[i].addr = s.base;
      wrs[i].buf = &words[i];
      wrs[i].len = sizeof(uint64_t);
    }
    auto ns = PostBatchShared(qps, wrs, k);
    CORM_RETURN_NOT_OK(ns.status());
    modeled_ns_ += *ns;
    total_ns += *ns;
    for (size_t i = 0; i < k; ++i) {
      if (!wrs[i].status.ok()) continue;  // flushed mid-chain: next round
      Session& s = *sessions_[sessions[i]];
      if (words[i] > s.acked) s.acked = words[i];
    }
    sessions += k;
    n -= k;
  }
  return total_ns;
}

Status ReplicaLogShipper::Retransmit(int session) {
  Session& s = *sessions_[session];
  for (uint64_t seq = s.acked + 1; seq < s.next; ++seq) {
    CORM_RETURN_NOT_OK(WriteSlot(s, seq));
  }
  return Status::OK();
}

Status ReplicaLogShipper::AwaitApplied(int session, uint64_t seq,
                                       const Deadline& deadline) {
  int polls = 0;
  while (!deadline.Expired()) {
    auto applied = ReadApplied(session);
    CORM_RETURN_NOT_OK(applied.status());
    if (*applied >= seq) return Status::OK();
    if (++polls % kRetransmitEvery == 0) {
      CORM_RETURN_NOT_OK(Retransmit(session));
    }
    sim::Pace(kAckPollGapNs);
  }
  return Status::Timeout("replica apply deadline expired");
}

}  // namespace corm::rdma
