#include "rdma/repl_log_ring.h"

#include "common/logging.h"
#include "common/sanitizer.h"

namespace corm::rdma {

Result<ReplLogRing> ReplLogRing::Create(sim::AddressSpace* space, Rnic* rnic,
                                        uint32_t slots, uint32_t slot_bytes) {
  if (slots == 0 || slot_bytes <= sizeof(ReplRecordHeader)) {
    return Status::InvalidArgument("bad repl ring geometry");
  }
  // One control page for the applied_seq word, then the slot array.
  const size_t slot_bytes_total = static_cast<size_t>(slots) * slot_bytes;
  const size_t npages =
      1 + (slot_bytes_total + sim::kVPageSize - 1) / sim::kVPageSize;
  sim::VAddr base = space->ReserveRange(npages);
  Status st = space->MapFresh(base, npages);
  if (!st.ok()) {
    space->ReleaseRange(base, npages);
    return st;
  }
  auto keys = rnic->RegisterMemory(base, npages, /*odp=*/true);
  if (!keys.ok()) {
    CORM_CHECK(space->Unmap(base, npages).ok());
    space->ReleaseRange(base, npages);
    return keys.status();
  }
  uint8_t* control = space->TranslatePtr(base);
  CORM_CHECK(control != nullptr);
  return ReplLogRing(space, rnic, base, npages, *keys, slots, slot_bytes,
                     reinterpret_cast<std::atomic<uint64_t>*>(control));
}

ReplLogRing::~ReplLogRing() {
  if (space_ == nullptr) return;  // moved-from
  rnic_->DeregisterMemory(keys_.r_key).ok();
  space_->Unmap(base_, npages_).ok();
  space_->ReleaseRange(base_, npages_);
  space_ = nullptr;
}

uint64_t ReplLogRing::applied() const {
  return applied_->load(std::memory_order_acquire);
}

bool ReplLogRing::NextRecord(ReplRecordHeader* hdr, Buffer* payload) {
  const uint64_t next = applied() + 1;
  uint8_t* slot = space_->TranslatePtr(SlotAddr(next));
  CORM_CHECK(slot != nullptr);
  // Snapshot under RacyCopy: the remote shipper may be RDMA-writing this
  // slot concurrently (first delivery, or a retransmit of identical bytes).
  // A torn snapshot fails the crc below and reads as "not arrived".
  ReplRecordHeader h;
  RacyCopy(&h, slot, sizeof(h));
  if (h.magic != kReplRecordMagic || h.seq != next) return false;
  if (h.payload_len > capacity()) return false;
  payload->resize(h.payload_len);
  if (h.payload_len != 0) {
    RacyCopy(payload->data(), slot + sizeof(ReplRecordHeader), h.payload_len);
  }
  if (h.crc != ReplRecordCrc(h, payload->data(), h.payload_len)) return false;
  *hdr = h;
  return true;
}

bool ReplLogRing::HasRecord() const {
  const uint64_t next = applied() + 1;
  const uint8_t* slot = space_->TranslatePtr(SlotAddr(next));
  CORM_CHECK(slot != nullptr);
  ReplRecordHeader h;
  RacyCopy(&h, slot, sizeof(h));
  return h.magic == kReplRecordMagic && h.seq == next;
}

void ReplLogRing::Advance() {
  const uint64_t next = applied() + 1;
  uint8_t* slot = space_->TranslatePtr(SlotAddr(next));
  CORM_CHECK(slot != nullptr);
  // Clear the magic so a stale image can never be mistaken for a fresh
  // record after the sequence space wraps this slot. RacyCopy because the
  // shipper may still be retransmitting the (now applied) record.
  const uint32_t zero = 0;
  RacyCopy(slot, &zero, sizeof(zero));
  applied_->store(next, std::memory_order_release);
}

}  // namespace corm::rdma
