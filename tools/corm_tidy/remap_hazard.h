// corm-tidy: the corm-remap-hazard check.
//
// CoRM's defining hazard (paper §3.2-§3.3, DESIGN.md §9): background
// compaction *moves objects under live code*. A raw `Block*` (or a lookup
// Entry holding one) obtained from the block directory is only meaningful
// until the next remap point — a call that may advance
// CompactionEngine::Step(), re-enter the RPC/inbox/repl-ingress drain
// (which can itself step the engine or mutate the directory), or otherwise
// release the kCompacting hand-off. Code that caches such a pointer across
// a remap point and then dereferences it is exactly the relocation bug
// class Mesh (Powers et al.) documents for compacting C/C++ allocators,
// and no grep can see it: the taint, the remap call, and the stale use are
// three different lines.
//
// The analysis is a deliberately simple source-order dataflow, so a
// diagnostic means the same thing on every host:
//
//   taint   a declaration (or assignment) whose initializer calls a
//           directory/object lookup (Lookup, LookupBlockCached,
//           ResolveObject, ...) or extracts `.block` from a tainted value
//   hazard  a later call, in the same scope chain, to a remap point
//           (Step, HandleInbox, HandleRpc, ReapZombies, ...) marks every
//           live tainted variable hazardous
//   use     any subsequent read of a hazardous variable fires, unless the
//           code revalidated first: re-assigned the variable from a fresh
//           lookup, compared the directory epoch, or pinned the object
//           (kCompacting / Pin*) — the three sanctioned idioms
//
// Since v2 the dataflow is *interprocedural*: when a CallGraph is supplied,
// the three token classes above are widened by function summaries —
//
//   taint   also an assignment from any function whose summary says
//           returns-lookup-tainted (a helper wrapping the lookup)
//   hazard  also a call to any function whose summary says
//           may-advance-remap (a remap point buried N calls deep)
//   clear   also a call to any function whose summary says
//           pins-or-validates (a helper performing the revalidation)
//
// so hiding either side of the three-line pattern behind project helpers
// no longer hides the hazard. Passing a null CallGraph reproduces the PR-6
// per-function analysis exactly (`corm-tidy --no-interproc`), which the
// fixture suite uses to prove the interprocedural cases are *new* catches.
//
// False-negative bias is accepted (this is a linter, not a verifier); the
// value is that the three-line pattern becomes mechanically visible.
//
// Strict set: files under src/index/ get no NOLINT escape (and the marker
// itself is flagged there), mirroring the rule-8 strict-wait treatment —
// the bucket table is what a remote client probes one-sided mid-remap, so
// a suppressed hazard there voids the keyed lookup contract (DESIGN.md
// §13).

#ifndef CORM_TIDY_REMAP_HAZARD_H_
#define CORM_TIDY_REMAP_HAZARD_H_

#include "call_graph.h"
#include "token_checks.h"

namespace corm_tidy {

// `cg` may be null: intra-procedural (PR-6) behavior only.
void CheckRemapHazard(const SourceFile& f, const CallGraph* cg,
                      DiagSink* sink);

}  // namespace corm_tidy

#endif  // CORM_TIDY_REMAP_HAZARD_H_
