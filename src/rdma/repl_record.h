// Wire formats for the one-sided replicated log (DESIGN.md §11).
//
// A primary replicates a write by RDMA-WRITEing one *log record* into each
// backup's ingress ring (ReplLogRing in repl_log_ring.h). The record is
// self-describing and self-validating: a magic word, the shipper's
// epoch and sequence number, the object version, the target address as
// opaque bytes (this layer must not depend on core/), and an FNV-1a
// checksum over header + payload. A backup only applies a record whose
// checksum validates AND whose sequence is exactly applied+1 — so torn or
// reordered one-sided writes are indistinguishable from "not arrived yet"
// and the shipper's retransmit path fills the gap.
//
// The record payload for a data record is the object's full replicated
// image: a ReplObjectHeader followed by the user payload. Replicas store
// that image verbatim, which lets readers validate any replica copy
// independently (epoch + version + crc) and lets failover seal an epoch by
// rewriting only the header portion of each stored image.

#ifndef CORM_RDMA_REPL_RECORD_H_
#define CORM_RDMA_REPL_RECORD_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace corm::rdma {

// Record kinds. A seal record carries no user payload: it instructs the
// applier to fence the old epoch on the addressed object.
inline constexpr uint8_t kReplRecordData = 1;
inline constexpr uint8_t kReplRecordSeal = 2;

inline constexpr uint32_t kReplRecordMagic = 0x4C504552u;  // "REPL"

// FNV-1a, the same idiom object_layout.cc uses for payload checksums. Seeded
// so multi-span checksums chain: crc = ReplFnv1a(b, n, ReplFnv1a(a, m)).
inline uint32_t ReplFnv1a(const void* data, size_t n,
                          uint32_t seed = 2166136261u) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t h = seed;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 16777619u;
  }
  return h;
}

// The fixed prefix of every slot in a ReplLogRing. 56 bytes, explicitly
// padded, trivially copyable — it crosses the (simulated) wire as raw bytes.
struct ReplRecordHeader {
  uint32_t magic = 0;      // kReplRecordMagic
  uint32_t epoch = 0;      // shipper's replication epoch (fencing token)
  uint64_t seq = 0;        // 1-based per-ring sequence number
  uint64_t version = 0;    // object version this record installs
  uint8_t addr[16] = {};   // target GlobalAddr, opaque to this layer
  uint32_t payload_len = 0;
  uint8_t kind = 0;        // kReplRecordData | kReplRecordSeal
  uint8_t pad[3] = {};
  uint32_t crc = 0;        // FNV-1a over header (crc field zeroed) + payload
  uint32_t pad2 = 0;       // keeps sizeof a multiple of the u64 alignment
};
static_assert(sizeof(ReplRecordHeader) == 56, "record header is wire format");
static_assert(std::is_trivially_copyable_v<ReplRecordHeader>,
              "record header crosses the wire as raw bytes");

// Computes the record checksum: header with its crc field zeroed, then the
// payload bytes.
inline uint32_t ReplRecordCrc(const ReplRecordHeader& h, const void* payload,
                              size_t payload_len) {
  ReplRecordHeader tmp = h;
  tmp.crc = 0;
  uint32_t crc = ReplFnv1a(&tmp, sizeof(tmp));
  if (payload_len != 0) crc = ReplFnv1a(payload, payload_len, crc);
  return crc;
}

// The stored prefix of every replicated object image. Readers validate a
// replica copy by recomputing crc over (version, user payload[len]); the
// epoch is deliberately *excluded* from the crc so a failover seal can bump
// the stored epoch without recomputing payload checksums it cannot see.
struct ReplObjectHeader {
  uint32_t epoch = 0;    // epoch that last wrote or sealed this copy
  uint32_t crc = 0;      // FNV-1a over (version, user payload[len])
  uint64_t version = 0;  // monotone per-object write version
  uint32_t len = 0;      // user payload bytes following this header
  uint32_t pad = 0;
};
static_assert(sizeof(ReplObjectHeader) == 24, "object header is wire format");
static_assert(std::is_trivially_copyable_v<ReplObjectHeader>,
              "object header is stored/shipped as raw bytes");

inline uint32_t ReplObjectCrc(uint64_t version, const void* payload,
                              size_t len) {
  uint32_t crc = ReplFnv1a(&version, sizeof(version));
  if (len != 0) crc = ReplFnv1a(payload, len, crc);
  return crc;
}

// True when `h` + the `len` payload bytes that follow it form a
// self-consistent replica image.
inline bool ReplObjectValid(const ReplObjectHeader& h, const void* payload) {
  return h.crc == ReplObjectCrc(h.version, payload, h.len);
}

}  // namespace corm::rdma

#endif  // CORM_RDMA_REPL_RECORD_H_
