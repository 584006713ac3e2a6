// Node-side operations on the registered index bucket table (DESIGN.md
// §13). The table memory itself is owned by CormNode (mapped fresh and
// registered for one-sided access like a repl ingress ring); IndexTable is
// a view that implements the seqlocked mutation protocol over it.
//
// Writers (RPC workers serving kIndexPut/Del/Lookup-repair, and the
// compaction engine's IndexRepair sub-phase) serialize per bucket through
// the bucket's seq word: CAS even→odd, mutate, release odd→even. Holds are
// a single 32-byte entry rewrite, so contention is momentary — but every
// acquisition still runs under a Deadline (src/index/ is in corm-tidy's
// rule-8 strict-wait set: no unbounded wait, ever). One-sided readers never
// touch the seq word remotely; they snapshot the bucket and validate with
// SeqSnapshotConsistent (index/remote_seq.h) against the seq embedded in
// the snapshot itself plus the chained re-read.

#ifndef CORM_INDEX_INDEX_TABLE_H_
#define CORM_INDEX_INDEX_TABLE_H_

#include <cstdint>
#include <functional>

#include "common/status.h"
#include "index/index_layout.h"

namespace corm::index {

class IndexTable {
 public:
  // `base` is the local (translated) address of the table header; the
  // region must span TableBytes(buckets). The view does not own it.
  IndexTable(uint8_t* base, uint32_t buckets);

  uint32_t buckets() const { return buckets_; }

  // The index fence epoch (word 0). Sealing bumps it and reports how many
  // live entries the seal just fenced (their fence_epoch no longer matches)
  // — the caller attributes those to the index_fenced_entries counter.
  uint64_t Epoch() const;
  uint64_t SealEpoch(uint64_t* fenced_live_entries);

  // Inserts or overwrites the entry for `key`. A new entry is minted under
  // the current epoch. kOutOfMemory when both candidate buckets are full:
  // the table is the authoritative key→pointer map, so silent eviction
  // would orphan an object. With `existing` non-null the insert is
  // insert-if-absent: a live entry is left untouched, its pointer lands in
  // *existing, and the status is kAlreadyExists — the publish race arbiter
  // two concurrent Puts of a fresh key settle through.
  Status Insert(uint64_t key, const core::GlobalAddr& addr,
                core::GlobalAddr* existing = nullptr);

  // Removes the entry for `key`; false when absent.
  bool Remove(uint64_t key);

  // Node-side exact lookup (the RPC fallback path). Returns the raw entry,
  // fenced or not — the caller decides whether to repair it.
  bool Lookup(uint64_t key, IndexEntry* out) const;

  // Rewrites the live entry for `key` in place with a fresh pointer, the
  // current epoch, and a bumped entry generation (self-healing repair from
  // the RPC lookup handler). False when the key is absent.
  bool Repair(uint64_t key, const core::GlobalAddr& addr);

  // Budgeted repair walk for the compaction IndexRepair sub-phase: visits
  // up to `bucket_budget` buckets starting at *cursor, calling `fn` on
  // every live entry under the bucket's seq lock; `fn` returns true after
  // mutating the entry (the walk then bumps its generation and re-stamps
  // the current epoch). Advances *cursor; returns the number of entries
  // rewritten. The walk is resumable exactly like a compaction phase.
  size_t RepairScan(uint64_t* cursor, size_t bucket_budget,
                    const std::function<bool(IndexEntry*)>& fn);

  // Live entries across the table (test/bench observability; takes each
  // bucket's seq lock briefly).
  uint64_t LiveEntries() const;

 private:
  IndexBucket* Bucket(uint64_t i) const;
  // Bounded seq acquisition; false if the Deadline expires (the caller
  // converts that into a transient status, never a wedge).
  bool LockBucket(IndexBucket* b) const;
  void UnlockBucket(IndexBucket* b) const;
  // Slot holding `key` in bucket `b`, or -1.
  static int FindSlot(const IndexBucket* b, uint64_t key);

  uint8_t* const base_;
  const uint32_t buckets_;
};

}  // namespace corm::index

#endif  // CORM_INDEX_INDEX_TABLE_H_
