// corm-tidy: source model shared by every check.
//
// A SourceFile carries the lexed token stream plus the *comment layer* —
// NOLINT suppressions, escape rationales, and the `// corm-hotpath` file
// contract. Every check routes its diagnostics through the same
// suppression logic so a NOLINT means the same thing everywhere.

#ifndef CORM_TIDY_SOURCE_FILE_H_
#define CORM_TIDY_SOURCE_FILE_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lexer.h"

namespace corm_tidy {

// Stable check identifiers. These are the NOLINT names and the `[...]`
// suffix on every diagnostic; lint.sh and the fixture suite key on them.
inline constexpr char kCheckRawNew[] = "corm-raw-new";
inline constexpr char kCheckHotpathAlloc[] = "corm-hotpath-alloc";
inline constexpr char kCheckUnboundedWait[] = "corm-unbounded-wait";
inline constexpr char kCheckEscapeRationale[] = "corm-escape-rationale";
inline constexpr char kCheckRemapHazard[] = "corm-remap-hazard";
inline constexpr char kCheckLockRank[] = "corm-lock-rank";

struct CheckInfo {
  const char* id;
  const char* summary;
};

// The catalog, in the order --list-checks prints it.
const std::vector<CheckInfo>& CheckCatalog();

struct Diagnostic {
  std::string file;   // display path
  int line = 0;
  int col = 0;
  std::string check;  // one of the kCheck* ids
  std::string message;
};

class SourceFile {
 public:
  // Loads and lexes `path`. Returns false (with *err set) on I/O failure.
  static bool Load(const std::string& path, SourceFile* out,
                   std::string* err);

  const std::string& path() const { return path_; }
  const std::vector<Token>& tokens() const { return lex_.tokens; }

  // True when the first line is the `// corm-hotpath` data-plane contract
  // marker (DESIGN.md §7).
  bool is_hotpath() const { return hotpath_; }

  // Comment text on `line` ("" when none).
  std::string CommentOn(int line) const;

  // True when `check` is suppressed at `line`: a NOLINT naming it (or an
  // accepted alias) sits on the same or the preceding line. Aliases keep
  // the historical grep-era markers working:
  //   corm-spin-wait  also suppresses corm-unbounded-wait (rule 5)
  //   corm-raw-new    also suppresses corm-hotpath-alloc  (rule 7)
  bool IsSuppressed(const std::string& check, int line) const;

  // NOLINT markers present on `line` itself (no window), for the
  // escape-rationale check and the compaction-engine escape ban.
  const std::set<std::string>& NolintsOn(int line) const;

  // Lines (sorted) carrying at least one NOLINT(corm-*) marker.
  std::vector<int> NolintLines() const;

 private:
  bool LineSuppresses(const std::string& check, int line) const;

  std::string path_;
  LexResult lex_;
  bool hotpath_ = false;
  std::map<int, std::set<std::string>> nolints_;  // line -> check ids
};

}  // namespace corm_tidy

#endif  // CORM_TIDY_SOURCE_FILE_H_
