// corm-tidy: token-engine checks (they need no compilation database).
// Each function appends unsuppressed diagnostics and counts suppressed
// ones; the remap-hazard check lives in remap_hazard.h.

#ifndef CORM_TIDY_TOKEN_CHECKS_H_
#define CORM_TIDY_TOKEN_CHECKS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "source_file.h"

namespace corm_tidy {

// Shared sink: routes a candidate diagnostic through the file's NOLINT
// suppression window and tallies the outcome.
struct DiagSink {
  std::vector<Diagnostic>* diags;
  size_t suppressed = 0;

  void Report(const SourceFile& f, const std::string& check, int line,
              int col, std::string message);
};

// True when `i` indexes an allocating `new` (not placement; nothrow-new is
// allocating) or an expression `delete`. Sets *is_delete accordingly.
// Exposed for the hotpath check, which reuses the same recognizer.
bool IsAllocatingNewOrDelete(const std::vector<Token>& toks, size_t i,
                             bool* is_delete);

// corm-raw-new: allocating new/delete expressions anywhere in the file.
void CheckRawNew(const SourceFile& f, DiagSink* sink);

// corm-hotpath-alloc: explicit and implicit allocations in `// corm-hotpath`
// files — new/make_unique/make_shared/malloc-family plus container growth
// calls (push_back, resize, append, ...) and std::function usage, which the
// grep rule could not see.
void CheckHotpathAlloc(const SourceFile& f, DiagSink* sink);

// corm-unbounded-wait: while-loops whose condition reads a std::atomic
// (`.load(` / `->load(`) with no Deadline and no stop-flag in the condition
// or body. In the strict-wait files — compaction_engine.cc, the
// replicated-log ship path (log_shipper.cc, replication.cc) and the keyed
// index's bucket seq-lock (index_table.cc) — the check is strict (rule 8):
// stop-flags don't count, sleeps are flagged, and NOLINT is not honored.
void CheckUnboundedWait(const SourceFile& f, DiagSink* sink);

// corm-escape-rationale: every NOLINT(corm-*) marker and every
// NO_THREAD_SAFETY_ANALYSIS attribute needs a non-trivial comment (three or
// more consecutive letters beyond the escape token itself) on the same or
// preceding line. The macro's definition site (thread_annotations.h) is
// exempt.
void CheckEscapeRationale(const SourceFile& f, DiagSink* sink);

// Path classification shared with the driver.
bool IsWaitExemptPath(const std::string& path);   // src/common/, src/rdma/
bool IsStrictWaitPath(const std::string& path);
bool IsThreadAnnotationsPath(const std::string& path);

}  // namespace corm_tidy

#endif  // CORM_TIDY_TOKEN_CHECKS_H_
