// The backup side of the one-sided replicated log (DESIGN.md §11): the ring
// a primary's ReplicaLogShipper RDMA-writes records into.

#ifndef CORM_RDMA_REPL_LOG_RING_H_
#define CORM_RDMA_REPL_LOG_RING_H_

#include <atomic>
#include <cstdint>

#include "common/result.h"
#include "common/slice.h"
#include "rdma/repl_record.h"
#include "rdma/rnic.h"
#include "sim/address_space.h"

namespace corm::rdma {

// Server-side sequenced ingress ring for the replicated log (DESIGN.md
// §11). Layout in registered memory:
//
//   page 0:        u64 applied_seq   (release-stored by the local applier,
//                                     read one-sidedly by the remote primary
//                                     as the durability high-water mark)
//   page 1..N:     `slots` record slots of `slot_bytes` each; the slot for
//                  sequence s is (s-1) % slots
//
// There is no valid byte: a slot is valid *structurally* when its
// ReplRecordHeader carries the magic, the exact next expected sequence
// (applied+1), and a checksum that covers header + payload. A torn
// one-sided write fails the crc, a re-shipped duplicate of an applied
// record fails the seq check — both look like "not arrived yet", which is
// precisely the contract the shipper's retransmit path needs.
class ReplLogRing {
 public:
  static Result<ReplLogRing> Create(sim::AddressSpace* space, Rnic* rnic,
                                    uint32_t slots, uint32_t slot_bytes);

  ReplLogRing(ReplLogRing&& other) noexcept { *this = std::move(other); }
  ReplLogRing& operator=(ReplLogRing&& other) noexcept {
    if (this != &other) {
      this->~ReplLogRing();
      space_ = other.space_;
      rnic_ = other.rnic_;
      base_ = other.base_;
      npages_ = other.npages_;
      keys_ = other.keys_;
      slots_ = other.slots_;
      slot_bytes_ = other.slot_bytes_;
      applied_ = other.applied_;
      other.space_ = nullptr;
    }
    return *this;
  }
  ~ReplLogRing();

  // Remote-access coordinates handed to the shipper at session setup.
  sim::VAddr base() const { return base_; }
  RKey r_key() const { return keys_.r_key; }
  uint32_t slots() const { return slots_; }
  uint32_t slot_bytes() const { return slot_bytes_; }
  // Usable record-payload bytes per slot.
  uint32_t capacity() const {
    return slot_bytes_ - static_cast<uint32_t>(sizeof(ReplRecordHeader));
  }

  // Local read of the durability high-water mark (the applier's own view;
  // the primary reads the same word one-sidedly through its QP).
  uint64_t applied() const;

  // Consumer side (applier worker): if record applied+1 has fully arrived,
  // copies its header and payload out and returns true. Does NOT advance —
  // the applier calls Advance() only after durably applying the record, so
  // a crashed-and-restarted node re-applies instead of losing it.
  bool NextRecord(ReplRecordHeader* hdr, Buffer* payload);
  // Cheap arrival check for an idle applier: true when the slot of record
  // applied+1 carries its header (the payload may still be in flight —
  // NextRecord's crc decides that).
  bool HasRecord() const;

  // Publishes record applied+1 as durably applied: clears the slot magic
  // and release-stores the new high-water mark into the control word.
  void Advance();

 private:
  ReplLogRing(sim::AddressSpace* space, Rnic* rnic, sim::VAddr base,
              size_t npages, MrKeys keys, uint32_t slots, uint32_t slot_bytes,
              std::atomic<uint64_t>* applied)
      : space_(space),
        rnic_(rnic),
        base_(base),
        npages_(npages),
        keys_(keys),
        slots_(slots),
        slot_bytes_(slot_bytes),
        applied_(applied) {}

  sim::VAddr SlotAddr(uint64_t seq) const {
    return base_ + sim::kVPageSize +
           ((seq - 1) % slots_) * static_cast<uint64_t>(slot_bytes_);
  }

  sim::AddressSpace* space_ = nullptr;
  Rnic* rnic_ = nullptr;
  sim::VAddr base_ = 0;
  size_t npages_ = 0;
  MrKeys keys_;
  uint32_t slots_ = 0;
  uint32_t slot_bytes_ = 0;
  // The applied_seq word on the control page, translated once by Create:
  // the page stays mapped to its frame for the ring's lifetime.
  std::atomic<uint64_t>* applied_ = nullptr;
};

}  // namespace corm::rdma

#endif  // CORM_RDMA_REPL_LOG_RING_H_
