// On-memory object layout: header word + FaRM-style per-cacheline versions.
//
// Each slot of a size class holds exactly one object:
//
//   byte  0..7   header word (version | lock | class | object ID | home page)
//   byte  8..63  payload
//   byte 64      version byte (replica of header version, cacheline 1)
//   byte 65..127 payload
//   byte 128     version byte (cacheline 2), ...
//
// Slots >= 64 B are cacheline aligned (size classes >= 64 are multiples of
// 64); smaller slots (16/32 B) never straddle a cacheline. A lock-free
// DirectRead is consistent iff the object is unlocked and every version
// byte matches the header version (paper §3.2.3). Writers bump the version
// and rewrite all version bytes under the header lock. This is the only
// read-validation protocol: the trailing-checksum alternative §4.2.1
// mentions is not built, so the slot geometry below is decided here alone.
//
// The header packs (paper §3.3, §4.4): the object version (8 b), the lock
// state (2 b), the size class (6 b), the block-local object ID (16 b), and
// the page index of the object's *home* block — the virtual block where it
// was first allocated — used to decide when an old virtual address can be
// reused (32 b).

#ifndef CORM_CORE_OBJECT_LAYOUT_H_
#define CORM_CORE_OBJECT_LAYOUT_H_

#include <atomic>
#include <cstdint>
#include <cstring>

#include "common/byte_units.h"
#include "common/sanitizer.h"
#include "common/status.h"
#include "sim/address_space.h"

namespace corm::core {

inline constexpr uint32_t kHeaderSize = 8;

// 2-bit lock states in the header.
enum class LockState : uint8_t {
  kFree = 0,        // readable, lockable
  kWriteLocked = 1, // a writer holds the object
  kCompacting = 2,  // compaction is relocating the object (§3.2.3):
                    // readable, but excludes writers, frees and log apply
  kTombstone = 3,   // slot freed; scanners must skip it
};

// True for the lock states a reader may take a snapshot under. Nothing can
// change a kCompacting object's bytes — writers, frees and replicated-log
// apply all back off — so a snapshot that validates is the object's current
// value (DESIGN.md §8, the deviation from paper §3.2.3).
constexpr bool Readable(LockState lock) {
  return lock == LockState::kFree || lock == LockState::kCompacting;
}

// Decoded header word.
struct ObjectHeader {
  uint8_t version = 0;
  LockState lock = LockState::kFree;
  uint8_t class_idx = 0;   // 6 bits
  uint16_t obj_id = 0;
  uint32_t home_page = 0;  // (home block vaddr - kBase) >> 12

  constexpr uint64_t Pack() const {
    return static_cast<uint64_t>(version) |
           (static_cast<uint64_t>(lock) << 8) |
           (static_cast<uint64_t>(class_idx & 0x3f) << 10) |
           (static_cast<uint64_t>(obj_id) << 16) |
           (static_cast<uint64_t>(home_page) << 32);
  }

  static constexpr ObjectHeader Unpack(uint64_t w) {
    ObjectHeader h;
    h.version = static_cast<uint8_t>(w & 0xff);
    h.lock = static_cast<LockState>((w >> 8) & 0x3);
    h.class_idx = static_cast<uint8_t>((w >> 10) & 0x3f);
    h.obj_id = static_cast<uint16_t>((w >> 16) & 0xffff);
    h.home_page = static_cast<uint32_t>(w >> 32);
    return h;
  }
};

// Compile-time pin of the header bit layout. The header word is the unit of
// the seqlock protocol AND crosses the wire in one-sided RDMA reads, so a
// refactor of Pack/Unpack must not silently move a field: version bits 0-7,
// lock bits 8-9, class bits 10-15, object ID bits 16-31, home page bits
// 32-63.
namespace layout_internal {
inline constexpr ObjectHeader kHeaderProbe{
    /*version=*/0xAB, /*lock=*/LockState::kCompacting, /*class_idx=*/0x2A,
    /*obj_id=*/0xBEEF, /*home_page=*/0x12345678};
inline constexpr uint64_t kHeaderProbeWord = kHeaderProbe.Pack();
}  // namespace layout_internal
static_assert(layout_internal::kHeaderProbeWord == 0x12345678'BEEFAAABULL,
              "header bit layout changed (wire/RDMA format)");
static_assert((layout_internal::kHeaderProbeWord & 0xff) == 0xAB,
              "version must occupy header bits 0-7");
static_assert(((layout_internal::kHeaderProbeWord >> 8) & 0x3) ==
                  static_cast<uint64_t>(LockState::kCompacting),
              "lock state must occupy header bits 8-9");
static_assert(((layout_internal::kHeaderProbeWord >> 10) & 0x3f) == 0x2A,
              "size class must occupy header bits 10-15");
static_assert(((layout_internal::kHeaderProbeWord >> 16) & 0xffff) == 0xBEEF,
              "object ID must occupy header bits 16-31");
static_assert((layout_internal::kHeaderProbeWord >> 32) == 0x12345678,
              "home page must occupy header bits 32-63");
static_assert(
    ObjectHeader::Unpack(layout_internal::kHeaderProbeWord).version == 0xAB &&
        ObjectHeader::Unpack(layout_internal::kHeaderProbeWord).lock ==
            LockState::kCompacting &&
        ObjectHeader::Unpack(layout_internal::kHeaderProbeWord).class_idx ==
            0x2A &&
        ObjectHeader::Unpack(layout_internal::kHeaderProbeWord).obj_id ==
            0xBEEF &&
        ObjectHeader::Unpack(layout_internal::kHeaderProbeWord).home_page ==
            0x12345678,
    "Unpack must invert Pack field-for-field");
static_assert(kHeaderSize == sizeof(uint64_t),
              "header word must be exactly 8 bytes (atomic seqlock unit)");

inline uint32_t HomePageOf(sim::VAddr block_base) {
  return static_cast<uint32_t>((block_base - sim::AddressSpace::kBase) >>
                               sim::kVPageShift);
}

inline sim::VAddr HomeVaddrOf(uint32_t home_page) {
  return sim::AddressSpace::kBase +
         (static_cast<sim::VAddr>(home_page) << sim::kVPageShift);
}

// Number of cachelines a slot spans (slots < 64 B span one).
inline constexpr uint32_t SlotCachelines(uint32_t slot_size) {
  return slot_size <= kCacheLineSize
             ? 1
             : slot_size / static_cast<uint32_t>(kCacheLineSize);
}

// Usable payload bytes in a slot of `slot_size`: the slot minus the header
// and one version byte per additional cacheline.
inline constexpr uint32_t PayloadCapacity(uint32_t slot_size) {
  const uint32_t overhead = kHeaderSize + (SlotCachelines(slot_size) - 1);
  return slot_size > overhead ? slot_size - overhead : 0;
}

// Compile-time pin of the cacheline-version geometry (paper §3.2.3): one
// version byte leads every 64 B line after the first, so readers and
// writers must agree on the stride and the payload capacity.
static_assert(kCacheLineSize == 64,
              "cacheline-version stride is fixed at 64 B");
static_assert(SlotCachelines(16) == 1 && SlotCachelines(64) == 1 &&
                  SlotCachelines(128) == 2 && SlotCachelines(4096) == 64,
              "slot cacheline count drives version-byte placement");
static_assert(PayloadCapacity(64) == 56 && PayloadCapacity(128) == 119,
              "cacheline-version payload capacity: slot - 8 - (lines - 1)");

// --- Atomic header access (server-side, on mapped frame memory). ---------

inline uint64_t LoadHeaderWord(const uint8_t* slot) {
  return std::atomic_ref<const uint64_t>(
             *reinterpret_cast<const uint64_t*>(slot))
      .load(std::memory_order_acquire);
}

inline void StoreHeaderWord(uint8_t* slot, uint64_t w) {
  std::atomic_ref<uint64_t>(*reinterpret_cast<uint64_t*>(slot))
      .store(w, std::memory_order_release);
}

inline bool CasHeaderWord(uint8_t* slot, uint64_t& expected, uint64_t desired) {
  return std::atomic_ref<uint64_t>(*reinterpret_cast<uint64_t*>(slot))
      .compare_exchange_strong(expected, desired, std::memory_order_acq_rel);
}

// Per-cacheline version bytes are written by the (locked) writer while
// lock-free readers poll them: a genuine seqlock-style race. Relaxed
// atomics make that race well-defined at the C++ level and let TSan model
// it (atomic vs atomic is never a report), without imposing ordering — the
// header word's acquire/release carries the ordering.
inline void StoreVersionByte(uint8_t* p, uint8_t v) {
  std::atomic_ref<uint8_t>(*p).store(v, std::memory_order_relaxed);
}

inline uint8_t LoadVersionByte(const uint8_t* p) {
  return std::atomic_ref<const uint8_t>(*p).load(std::memory_order_relaxed);
}

// Header version stepping (paper §3.2.3): each committed write bumps the
// version by exactly one (mod 256). The CORM_AUDIT hooks in the write path
// enforce this monotonicity so a skipped or repeated version — which would
// let a torn snapshot validate — is caught at the source.
inline uint8_t NextVersion(uint8_t v) { return static_cast<uint8_t>(v + 1); }

inline bool VersionMonotonic(uint8_t old_version, uint8_t new_version) {
  return new_version == NextVersion(old_version);
}

// --- Payload scatter/gather around the cacheline version bytes. -----------

// Writes `len` payload bytes into the slot and stamps `version` into every
// cacheline's version byte, including lines past `len`, so a partial write
// leaves the whole slot validating under the new version. Does NOT touch
// the header word; callers update it separately (under lock).
void WritePayload(uint8_t* slot, uint32_t slot_size, uint8_t version,
                  const void* data, uint32_t len);

// Gathers up to `len` payload bytes from the slot into `out`.
void ReadPayload(const uint8_t* slot, uint32_t slot_size, void* out,
                 uint32_t len);

// Lock-free consistency check on a *snapshot* of a slot (e.g. a DirectRead
// buffer): the header must be Readable and every cacheline version byte
// must equal the header version (paper §3.2.3).
bool SnapshotConsistent(const uint8_t* slot, uint32_t slot_size);

// --- Invariant audits (always compiled; hot-path hooks are CORM_AUDIT). ---

// Audits one *quiescent* slot (caller guarantees no concurrent writer:
// object locked by the caller, or the block is owner-private): every
// version byte must equal the header version, and the header lock state
// must be kFree or kTombstone. Returns OK or a description of the first
// violation.
Status AuditSlotConsistency(const uint8_t* slot, uint32_t slot_size);

// --- Deterministic test/bench payload patterns. ---------------------------

inline uint8_t PatternByte(uint64_t object_index, uint32_t byte_index) {
  return static_cast<uint8_t>(object_index * 131 + byte_index * 7 + 13);
}

inline void PatternFill(uint64_t object_index, uint8_t* buf, uint32_t len) {
  for (uint32_t i = 0; i < len; ++i) buf[i] = PatternByte(object_index, i);
}

inline bool PatternCheck(uint64_t object_index, const uint8_t* buf,
                         uint32_t len) {
  for (uint32_t i = 0; i < len; ++i) {
    if (buf[i] != PatternByte(object_index, i)) return false;
  }
  return true;
}

}  // namespace corm::core

#endif  // CORM_CORE_OBJECT_LAYOUT_H_
