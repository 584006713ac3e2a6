// Seq-word helpers for the keyed index's bucket snapshots (DESIGN.md §13).
// A seq word guards a fixed-size region the way the object header version
// guards a slot: writers hold it odd across the mutation, readers snapshot
// the region and accept the snapshot only if the seq was even and unchanged
// around it. These helpers only interpret the word — how it is read (CPU
// atomic on the serving node, one-sided READ from a client) is the
// caller's business, which keeps them usable on both sides of the RNIC.

#ifndef CORM_INDEX_REMOTE_SEQ_H_
#define CORM_INDEX_REMOTE_SEQ_H_

#include <cstdint>

namespace corm::index {

// Odd seq = a writer is inside the region; any snapshot taken under it is
// torn by definition.
inline constexpr bool SeqWriterActive(uint64_t seq) { return (seq & 1) != 0; }

// A snapshot bracketed by (before, after) reads of the seq word is
// consistent iff no writer was active and nothing committed in between.
inline constexpr bool SeqSnapshotConsistent(uint64_t before, uint64_t after) {
  return before == after && !SeqWriterActive(before);
}

}  // namespace corm::index

#endif  // CORM_INDEX_REMOTE_SEQ_H_
