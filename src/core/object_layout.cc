#include "core/object_layout.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"
#include "common/sanitizer.h"

namespace corm::core {

void WritePayload(uint8_t* slot, uint32_t slot_size, uint8_t version,
                  const void* data, uint32_t len) {
  CORM_CHECK_LE(len, PayloadCapacity(slot_size));
  const auto* src = static_cast<const uint8_t*>(data);
  const uint32_t lines = SlotCachelines(slot_size);
  // Cacheline 0: payload starts after the header.
  uint32_t chunk = std::min<uint32_t>(
      len, std::min<uint32_t>(slot_size, kCacheLineSize) - kHeaderSize);
  if (chunk > 0) {
    std::memcpy(slot + kHeaderSize, src, chunk);
    src += chunk;
  }
  uint32_t remaining = len - chunk;
  for (uint32_t line = 1; line < lines; ++line) {
    uint8_t* base = slot + line * kCacheLineSize;
    StoreVersionByte(base, version);  // per-cacheline version byte
    chunk = std::min<uint32_t>(remaining,
                               static_cast<uint32_t>(kCacheLineSize) - 1);
    if (chunk > 0) {
      std::memcpy(base + 1, src, chunk);
      src += chunk;
      remaining -= chunk;
    }
  }
  CORM_CHECK_EQ(remaining, 0u);
  // Happens-before edge to any reader that validates this snapshot
  // (SnapshotConsistent / header recheck) — pairs with CORM_TSAN_ACQUIRE
  // on the validation paths.
  CORM_TSAN_RELEASE(slot);
}

// Reader side of the seqlock: the payload bytes intentionally race with a
// concurrent writer; validation (version bytes / header recheck) happens on
// the snapshot afterwards. RacyCopy keeps the racy loads out of TSan's
// sight while the writer side stays fully instrumented.
void ReadPayload(const uint8_t* slot, uint32_t slot_size, void* out,
                 uint32_t len) {
  CORM_CHECK_LE(len, PayloadCapacity(slot_size));
  auto* dst = static_cast<uint8_t*>(out);
  const uint32_t lines = SlotCachelines(slot_size);
  uint32_t chunk = std::min<uint32_t>(
      len, std::min<uint32_t>(slot_size, kCacheLineSize) - kHeaderSize);
  RacyCopy(dst, slot + kHeaderSize, chunk);
  dst += chunk;
  uint32_t remaining = len - chunk;
  for (uint32_t line = 1; line < lines && remaining > 0; ++line) {
    const uint8_t* base = slot + line * kCacheLineSize;
    chunk = std::min<uint32_t>(remaining,
                               static_cast<uint32_t>(kCacheLineSize) - 1);
    RacyCopy(dst, base + 1, chunk);
    dst += chunk;
    remaining -= chunk;
  }
}

bool SnapshotConsistent(const uint8_t* slot, uint32_t slot_size) {
  const ObjectHeader h = ObjectHeader::Unpack(LoadHeaderWord(slot));
  if (!Readable(h.lock)) return false;
  const uint32_t lines = SlotCachelines(slot_size);
  for (uint32_t line = 1; line < lines; ++line) {
    if (LoadVersionByte(slot + line * kCacheLineSize) != h.version) {
      return false;
    }
  }
  CORM_TSAN_ACQUIRE(slot);  // snapshot validated: order after its writer
  return true;
}

Status AuditSlotConsistency(const uint8_t* slot, uint32_t slot_size) {
  const ObjectHeader h = ObjectHeader::Unpack(LoadHeaderWord(slot));
  if (h.lock == LockState::kTombstone) return Status::OK();  // freed slot
  if (h.lock != LockState::kFree) {
    return Status::Internal("audit: slot left in locked state");
  }
  const uint32_t lines = SlotCachelines(slot_size);
  for (uint32_t line = 1; line < lines; ++line) {
    const uint8_t v = LoadVersionByte(slot + line * kCacheLineSize);
    if (v != h.version) {
      std::ostringstream msg;
      msg << "audit: version byte of cacheline " << line << " is "
          << static_cast<int>(v) << ", header version is "
          << static_cast<int>(h.version);
      return Status::Internal(msg.str());
    }
  }
  return Status::OK();
}

}  // namespace corm::core
