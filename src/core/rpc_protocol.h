// Wire format of CoRM's RPC operations (paper Table 2).
//
// Requests and responses are flat POD structs preceded by a one-byte
// opcode; variable-length payloads follow the struct. Status travels in the
// RpcMessage itself. Everything stays within one simulated fabric, so no
// endianness handling is needed.

#ifndef CORM_CORE_RPC_PROTOCOL_H_
#define CORM_CORE_RPC_PROTOCOL_H_

#include <cstdint>
#include <cstring>

#include "common/slice.h"
#include "core/addr.h"

namespace corm::core {

enum class RpcOp : uint8_t {
  kAlloc = 1,
  kFree = 2,
  kRead = 3,
  kWrite = 4,
  kReleasePtr = 5,
  // Keyed index operations (DESIGN.md §13). Lookup is the authoritative
  // fallback behind the one-sided bucket probe. Put and Del are whole keyed
  // mutations, each one RPC run to completion by the serving worker: Put
  // allocates, fills and publishes a fresh key's object (a live key is
  // handed back for the client's kWrite), Del unlinks and frees on the
  // block's owner.
  kIndexLookup = 6,
  kIndexPut = 7,
  kIndexDel = 8,
};

struct AllocRequest {
  uint64_t size;  // payload bytes the client wants
};

struct AllocResponse {
  GlobalAddr addr;
};

struct FreeRequest {
  GlobalAddr addr;
};

struct FreeResponse {
  GlobalAddr addr;  // corrected pointer (Table 2: Free performs correction)
};

struct ReadRequest {
  GlobalAddr addr;
  uint32_t size;  // bytes to read
};

// ReadResponse is followed by `size` payload bytes.
struct ReadResponse {
  GlobalAddr addr;  // corrected pointer
  uint32_t size;
};

// WriteRequest is followed by `size` payload bytes.
struct WriteRequest {
  GlobalAddr addr;
  uint32_t size;
};

struct WriteResponse {
  GlobalAddr addr;  // corrected pointer
};

struct ReleasePtrRequest {
  GlobalAddr addr;
};

struct ReleasePtrResponse {
  GlobalAddr addr;  // re-homed pointer (now canonical in the current block)
};

struct IndexLookupRequest {
  uint64_t key;
};

struct IndexLookupResponse {
  // Corrected, owner-hint-stamped pointer. The handler self-heals the
  // bucket entry when the stored hint was stale or fenced, so a lookup
  // that fell back to RPC leaves the one-sided path healthy again.
  GlobalAddr addr;
};

// IndexPutRequest is followed by `size` value bytes.
struct IndexPutRequest {
  uint64_t key;
  uint32_t size;
};

struct IndexPutResponse {
  // existed == 0: the worker created the object, wrote the value into it
  // and published it; `addr` is its owner-hint-stamped pointer.
  // existed == 1: the key was already live (or won a concurrent publish);
  // nothing was written and `addr` names the live object, which the client
  // writes through with kWrite.
  GlobalAddr addr;
  uint8_t existed;
};

// kIndexDel carries no response body: OK means the key is unlinked and its
// object freed; kObjectLocked means neither happened (block in transit to
// the compaction leader, or the object under compaction) and is retryable.
struct IndexDelRequest {
  uint64_t key;
};

// --- Encoding helpers. -----------------------------------------------------

template <typename T>
void EncodeRequest(RpcOp op, const T& body, Buffer* out, Slice payload = {}) {
  out->resize(1 + sizeof(T) + payload.size());
  (*out)[0] = static_cast<uint8_t>(op);
  std::memcpy(out->data() + 1, &body, sizeof(T));
  if (!payload.empty()) {
    std::memcpy(out->data() + 1 + sizeof(T), payload.data(), payload.size());
  }
}

inline RpcOp PeekOp(const Buffer& buf) { return static_cast<RpcOp>(buf[0]); }

// Decodes the fixed-size body; returns the trailing payload as a Slice.
template <typename T>
Slice DecodeRequest(const Buffer& buf, T* body) {
  std::memcpy(body, buf.data() + 1, sizeof(T));
  return Slice(buf.data() + 1 + sizeof(T), buf.size() - 1 - sizeof(T));
}

template <typename T>
void EncodeResponse(const T& body, Buffer* out, Slice payload = {}) {
  out->resize(sizeof(T) + payload.size());
  std::memcpy(out->data(), &body, sizeof(T));
  if (!payload.empty()) {
    std::memcpy(out->data() + sizeof(T), payload.data(), payload.size());
  }
}

template <typename T>
Slice DecodeResponse(const Buffer& buf, T* body) {
  std::memcpy(body, buf.data(), sizeof(T));
  return Slice(buf.data() + sizeof(T), buf.size() - sizeof(T));
}

}  // namespace corm::core

#endif  // CORM_CORE_RPC_PROTOCOL_H_
