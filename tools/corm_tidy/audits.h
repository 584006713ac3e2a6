// corm-tidy: project contract audits (`corm-tidy --audit`).
//
// Four exhaustiveness contracts that rot silently without a machine check:
//
//   Fault sites.  Every named injection site in src/sim/fault_injector.h
//   (the fault_sites namespace) must be (a) exercised by at least one test
//   under tests/ — referenced by constant name or by its literal site
//   string — and (b) listed in DESIGN.md §6.2's fault table (the lines
//   between the fault-site-table-begin/end markers). A site wired into the
//   substrate but never armed by a test is untested failure-handling code;
//   a site missing from the table is an undocumented failure mode. Both
//   directions are checked: a table row whose site no longer exists fails
//   too.
//
//   Node counters.  Every entry of the CORM_NODE_COUNTERS(X) list
//   (src/core/corm_node.h), which generates the node's stat shard, its
//   snapshot and the fold in CormNode::stats(), must be listed in
//   EXPERIMENTS.md's stats schema (the stats-schema-begin/end block), which
//   is what bench scripts and plots consume. Again both directions: a
//   schema row for a counter that was removed fails.
//
//   Config fields.  Every data member of `struct CormConfig` (parsed from
//   corm_node.h's tokens) must be assigned — `.field =`, a store or a
//   designated initializer — by some file under src/, bench/, examples/,
//   perfbench/ or tests/ (the lint fixture trees aside) other than
//   corm_node.h itself. CormConfig keeps
//   only settings a caller changes; a field nothing sets is a constant
//   dressed up as a knob.
//
//   Dead modules.  Every header under src/ must be #included by some file
//   under src/, bench/, examples/ or perfbench/ other than its own .cc
//   (same directory, same stem). A header that only its implementation
//   and tests include is code nothing runs; delete it rather than keep it
//   compiling.
//
// Exit codes: 0 all contracts hold, 1 violations, 2 the tree is missing a
// prerequisite (no marker block, no fault_injector.h, ...) — an audit that
// cannot run must not report success.

#ifndef CORM_TIDY_AUDITS_H_
#define CORM_TIDY_AUDITS_H_

#include <ostream>
#include <string>

namespace corm_tidy {

// Runs the audits against the repo rooted at `root` (expects src/, tests/,
// DESIGN.md, EXPERIMENTS.md under it; bench/, examples/ and perfbench/ are
// optional).
int RunAudits(const std::string& root, std::ostream& os);

}  // namespace corm_tidy

#endif  // CORM_TIDY_AUDITS_H_
