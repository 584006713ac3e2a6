#include "core/object_layout.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"
#include "common/sanitizer.h"

namespace corm::core {

namespace {

// Payload placement in checksum mode: a flat region after the header, with
// the 4-byte checksum in the slot's last bytes.
uint32_t ChecksumOffset(uint32_t slot_size) { return slot_size - kChecksumSize; }

void WritePayloadVersions(uint8_t* slot, uint32_t slot_size, uint8_t version,
                          const uint8_t* src, uint32_t len) {
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
}

// Reader side of the seqlock: the payload bytes intentionally race with a
// concurrent writer; validation (version bytes / header recheck) happens on
// the snapshot afterwards. RacyCopy keeps the racy loads out of TSan's
// sight while the writer side stays fully instrumented.
void ReadPayloadVersions(const uint8_t* slot, uint32_t slot_size,
                         uint8_t* dst, uint32_t len) {
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

}  // namespace

uint32_t PayloadChecksum(const uint8_t* slot, uint32_t slot_size) {
  // FNV-1a over the header version byte + the full payload region, so a
  // snapshot mixing an old payload with a new header (or vice versa) fails.
  uint32_t h = 2166136261u;
  auto mix = [&h](uint8_t byte) {
    h ^= byte;
    h *= 16777619u;
  };
  mix(LoadVersionByte(slot));  // header version byte
  const uint32_t capacity = PayloadCapacity(slot_size, ConsistencyMode::kChecksum);
  for (uint32_t i = 0; i < capacity; ++i) mix(slot[kHeaderSize + i]);
  return h;
}

void WritePayload(uint8_t* slot, uint32_t slot_size, uint8_t version,
                  const void* data, uint32_t len, ConsistencyMode mode) {
  CORM_CHECK_LE(len, PayloadCapacity(slot_size, mode));
  const auto* src = static_cast<const uint8_t*>(data);
  if (mode == ConsistencyMode::kCachelineVersions) {
    WritePayloadVersions(slot, slot_size, version, src, len);
    // Happens-before edge to any reader that validates this snapshot
    // (SnapshotConsistent / header recheck) — pairs with CORM_TSAN_ACQUIRE
    // on the validation paths.
    CORM_TSAN_RELEASE(slot);
    return;
  }
  if (len > 0) std::memcpy(slot + kHeaderSize, src, len);
  // The checksum covers the *whole* payload region (partial writes leave
  // the remainder intact but still protected), plus the version byte —
  // which the caller must have staged into slot[0] before or right after
  // this call; we compute over `version` explicitly to avoid the ordering
  // dependency.
  uint32_t h = 2166136261u;
  auto mix = [&h](uint8_t byte) {
    h ^= byte;
    h *= 16777619u;
  };
  mix(version);
  const uint32_t capacity = PayloadCapacity(slot_size, mode);
  for (uint32_t i = 0; i < capacity; ++i) mix(slot[kHeaderSize + i]);
  std::memcpy(slot + ChecksumOffset(slot_size), &h, kChecksumSize);
  CORM_TSAN_RELEASE(slot);
}

void ReadPayload(const uint8_t* slot, uint32_t slot_size, void* out,
                 uint32_t len, ConsistencyMode mode) {
  CORM_CHECK_LE(len, PayloadCapacity(slot_size, mode));
  auto* dst = static_cast<uint8_t*>(out);
  if (mode == ConsistencyMode::kCachelineVersions) {
    ReadPayloadVersions(slot, slot_size, dst, len);
    return;
  }
  RacyCopy(dst, slot + kHeaderSize, len);
}

bool SnapshotConsistent(const uint8_t* slot, uint32_t slot_size,
                        ConsistencyMode mode) {
  const ObjectHeader h = ObjectHeader::Unpack(LoadHeaderWord(slot));
  if (!Readable(h.lock)) return false;
  if (mode == ConsistencyMode::kCachelineVersions) {
    const uint32_t lines = SlotCachelines(slot_size);
    for (uint32_t line = 1; line < lines; ++line) {
      if (LoadVersionByte(slot + line * kCacheLineSize) != h.version) {
        return false;
      }
    }
    CORM_TSAN_ACQUIRE(slot);  // snapshot validated: order after its writer
    return true;
  }
  uint32_t stored;
  std::memcpy(&stored, slot + ChecksumOffset(slot_size), kChecksumSize);
  if (stored != PayloadChecksum(slot, slot_size)) return false;
  CORM_TSAN_ACQUIRE(slot);
  return true;
}

Status AuditSlotConsistency(const uint8_t* slot, uint32_t slot_size,
                            ConsistencyMode mode) {
  const ObjectHeader h = ObjectHeader::Unpack(LoadHeaderWord(slot));
  if (h.lock == LockState::kTombstone) return Status::OK();  // freed slot
  if (h.lock != LockState::kFree) {
    return Status::Internal("audit: slot left in locked state");
  }
  if (mode == ConsistencyMode::kCachelineVersions) {
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
  uint32_t stored;
  std::memcpy(&stored, slot + ChecksumOffset(slot_size), kChecksumSize);
  if (stored != PayloadChecksum(slot, slot_size)) {
    return Status::Internal("audit: payload checksum mismatch");
  }
  return Status::OK();
}

}  // namespace corm::core
