// Wire layout of the compaction-safe remote index (DESIGN.md §13).
//
// Every node owns a bucket table in registered memory; clients locate keyed
// objects with a one-sided READ of the candidate buckets and validate the
// embedded GlobalAddr hint FaRM-style against the object's own header — the
// index never has to be transactionally consistent with the object store,
// it only has to be *safe to distrust*. The entry therefore carries exactly
// what distrust needs: the full key (exact match, not just the hash), the
// last-known pointer, the object version the hint was minted at (a floor a
// validated read must meet), and the index fence epoch (a seal bumps the
// table epoch, instantly invalidating every earlier entry after a failover
// re-home — the PR-7 fencing idea applied to lookups).
//
// Concurrency model mirrors the object seqlock: each bucket is guarded by a
// seq word (odd = writer in the bucket). Node-side writers hold the seq odd
// across the entry rewrite; one-sided readers snapshot the whole bucket and
// discard the snapshot when seq was odd or changed across the read. A torn
// bucket snapshot can therefore cost a retry or an RPC fallback, never a
// wrong object: the object-level validation is the final guard.

#ifndef CORM_INDEX_INDEX_LAYOUT_H_
#define CORM_INDEX_INDEX_LAYOUT_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "core/addr.h"
#include "rdma/rnic.h"
#include "sim/address_space.h"

namespace corm::index {

// SplitMix64 finalizer: full-avalanche key hash.
inline constexpr uint64_t MixKey(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

// One keyed entry. 32 bytes so a 4-way bucket plus its seq header stays a
// single MTU-friendly READ. Copied byte-wise into one-sided read buffers,
// so the field placement is wire format (pinned below).
struct IndexEntry {
  uint64_t key = 0;              // full key: exact match, no hash ambiguity
  core::GlobalAddr addr;         // last-known pointer (owner hint stamped)
  uint32_t hint_version = 0;     // object version floor for validated reads
  uint16_t fence_epoch = 0;      // table epoch the entry was minted under
  uint16_t state = 0;            // kEmpty | kLive

  static constexpr uint16_t kEmpty = 0;
  static constexpr uint16_t kLive = 1;

  bool Live() const { return state == kLive; }
};

static_assert(sizeof(IndexEntry) == 32, "IndexEntry is wire format");
static_assert(std::is_trivially_copyable_v<IndexEntry>,
              "IndexEntry crosses the wire via memcpy");
static_assert(offsetof(IndexEntry, key) == 0 &&
                  offsetof(IndexEntry, addr) == 8 &&
                  offsetof(IndexEntry, hint_version) == 24 &&
                  offsetof(IndexEntry, fence_epoch) == 28 &&
                  offsetof(IndexEntry, state) == 30,
              "IndexEntry field offsets are wire format");

inline constexpr size_t kEntriesPerBucket = 4;

// A seq-guarded bucket. The header pads to 32 bytes so entries stay
// 32-byte aligned and the whole bucket is a fixed 160-byte READ.
struct IndexBucket {
  uint64_t seq = 0;        // seqlock: odd while a node-side writer is inside
  uint64_t reserved[3] = {0, 0, 0};
  IndexEntry entries[kEntriesPerBucket];
};

static_assert(sizeof(IndexBucket) == 160, "IndexBucket is wire format");
static_assert(std::is_trivially_copyable_v<IndexBucket>,
              "IndexBucket crosses the wire via memcpy");

// Table geometry. Word 0 of the registered region is the index fence epoch
// (bumped by SealIndexEpoch on failover re-home); buckets start after a
// 64-byte header so they never share a cache line with the epoch word.
inline constexpr size_t kTableHeaderBytes = 64;

inline constexpr size_t TableBytes(uint32_t buckets) {
  return kTableHeaderBytes + static_cast<size_t>(buckets) * sizeof(IndexBucket);
}

// Two candidate buckets per key (cuckoo-style choice without displacement):
// an insert takes a free slot in either, a lookup READs both in one chained
// post. Eight slots per key make bucket overflow vanishingly rare at the
// load factors the config allows; a genuinely full pair reports
// kResourceExhausted rather than silently evicting (an evicted entry would
// orphan its object — the table is the authoritative key→pointer map).
inline constexpr uint64_t BucketOf(uint64_t key, uint32_t buckets) {
  return MixKey(key) % buckets;
}
inline constexpr uint64_t AltBucketOf(uint64_t key, uint32_t buckets) {
  return MixKey(key ^ 0xc2b2ae3d27d4eb4fULL) % buckets;
}

// Remote coordinates of a node's index table. Lives in registered memory;
// `base` is the table header, bucket i starts at
// base + kTableHeaderBytes + i * sizeof(bucket).
struct IndexTableCoords {
  sim::VAddr base = 0;
  rdma::RKey r_key = 0;
  uint32_t buckets = 0;

  sim::VAddr BucketAddr(uint64_t bucket) const {
    return base + kTableHeaderBytes + bucket * sizeof(IndexBucket);
  }
};

}  // namespace corm::index

#endif  // CORM_INDEX_INDEX_LAYOUT_H_
