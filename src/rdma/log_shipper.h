// Multi-ring replicated-log shipper (DESIGN.md §11).
//
// One ReplicaLogShipper lives inside each ReplicatedContext and owns one
// *session* per backup replica node: a QueuePair to that node's RNIC, the
// remote coordinates of its ReplLogRing, and a local staging image of every
// in-flight record. Shipping is purely one-sided: Ship() stages the wire
// image and RDMA-WRITEs it into the next ring slot; the ack is the backup's
// applied_seq control word, which ReadApplied() fetches with a one-sided
// READ. Because the staging image survives until the ack covers it,
// Retransmit() can re-write any window of records verbatim — the recovery
// path for dropped ship writes (fault site repl.ship_drop) and for rings
// whose memory survived a crash/restart.
//
// Thread ownership: a shipper belongs to the single thread driving its
// ReplicatedContext; nothing here is locked.

#ifndef CORM_RDMA_LOG_SHIPPER_H_
#define CORM_RDMA_LOG_SHIPPER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/parker.h"
#include "common/result.h"
#include "common/retry.h"
#include "common/slice.h"
#include "rdma/queue_pair.h"
#include "rdma/repl_record.h"
#include "rdma/rnic.h"

namespace corm::rdma {

class ReplicaLogShipper {
 public:
  ReplicaLogShipper() = default;
  ReplicaLogShipper(const ReplicaLogShipper&) = delete;
  ReplicaLogShipper& operator=(const ReplicaLogShipper&) = delete;

  // Opens a session to a remote ReplLogRing (cold path, run once per
  // replica node). Returns the session index used by every other call.
  // `drainer` is the parking spot of the worker that applies the ring:
  // every record written into the ring wakes it.
  int AddSession(Rnic* remote_rnic, sim::VAddr ring_base, RKey r_key,
                 uint32_t slots, uint32_t slot_bytes, Parker* drainer);

  size_t num_sessions() const { return sessions_.size(); }
  // Usable record-payload bytes per slot for `session`.
  uint32_t capacity(int session) const;
  // Last remotely-applied sequence this shipper has observed.
  uint64_t acked(int session) const;
  // Next sequence Ship() will assign.
  uint64_t next_seq(int session) const;

  // Ships one record: assigns the session's next sequence, stages the wire
  // image, and RDMA-writes it into the ring slot. Returns the assigned
  // sequence. kNetworkError when the sequence window is full even after
  // refreshing the ack (replica not draining). Fault site repl.ship_drop
  // swallows the wire write (the record stays staged; Retransmit recovers).
  Result<uint64_t> Ship(int session, uint8_t kind, uint32_t epoch,
                        uint64_t version, const uint8_t addr[16],
                        Slice payload);

  // One-sided read of the replica's applied_seq control word; also advances
  // the session's local ack cursor. Fault site repl.ack_delay paces extra
  // modeled time before the read completes.
  Result<uint64_t> ReadApplied(int session);

  // Coalesced ack poll: reads the applied_seq word of every listed session
  // in chained posts over the sessions' shared completion queue, paying one
  // doorbell + one completion per chain instead of a full round trip per
  // replica (DESIGN.md §12). Each session's ack cursor advances exactly as
  // ReadApplied would. A QP found broken is reconnected before the chain;
  // one broken *mid-chain* simply misses this round and is retried by the
  // caller's next poll. Returns the modeled ns charged for the whole call.
  Result<uint64_t> ReadAppliedBatch(const int* sessions, size_t n);

  // Re-writes every staged record in (acked, next) verbatim.
  Status Retransmit(int session);

  // Polls ReadApplied (retransmitting periodically) until the replica has
  // applied `seq` or the deadline expires. Single-session helper for tests
  // and the seal path; Write()'s quorum loop in dsm/replication.cc polls
  // sessions round-robin itself.
  Status AwaitApplied(int session, uint64_t seq, const Deadline& deadline);

  // Modeled fabric nanoseconds consumed by this shipper so far (ship +
  // ack reads + retransmits). The replication bench diffs this across an
  // op to attribute replication cost.
  uint64_t modeled_ns() const { return modeled_ns_; }

 private:
  struct Session {
    QueuePair qp;
    sim::VAddr base = 0;
    RKey r_key = 0;
    uint32_t slots = 0;
    uint32_t slot_bytes = 0;
    uint64_t next = 1;   // next sequence to assign
    uint64_t acked = 0;  // last applied sequence observed remotely
    Buffer staging;      // slots * slot_bytes local image of in-flight slots
    std::vector<uint32_t> staged_len;  // wire bytes per slot
    Parker* drainer = nullptr;         // the ring's applier, woken per write

    explicit Session(Rnic* remote) : qp(remote) {}
  };

  sim::VAddr SlotAddr(const Session& s, uint64_t seq) const {
    return s.base + sim::kVPageSize +
           ((seq - 1) % s.slots) * static_cast<uint64_t>(s.slot_bytes);
  }
  uint8_t* StagedSlot(Session& s, uint64_t seq) const {
    return s.staging.data() +
           ((seq - 1) % s.slots) * static_cast<size_t>(s.slot_bytes);
  }
  // Writes the staged record `seq` into its ring slot and wakes the ring's
  // applier.
  Status WriteSlot(Session& s, uint64_t seq);

  std::vector<std::unique_ptr<Session>> sessions_;
  uint64_t modeled_ns_ = 0;
};

}  // namespace corm::rdma

#endif  // CORM_RDMA_LOG_SHIPPER_H_
