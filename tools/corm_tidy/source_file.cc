#include "source_file.h"

#include <fstream>
#include <sstream>

namespace corm_tidy {
namespace {

const std::set<std::string> kEmptySet;

// Extracts every NOLINT(...) id list from a comment string. A bare NOLINT
// (no parenthesized list, clang-tidy style) suppresses everything and is
// recorded as "*".
void ParseNolints(const std::string& comment, std::set<std::string>* out) {
  size_t pos = 0;
  while ((pos = comment.find("NOLINT", pos)) != std::string::npos) {
    size_t p = pos + 6;  // past "NOLINT"
    // NOLINTNEXTLINE is deliberately unsupported: the project convention is
    // same-line or preceding-line markers, and one convention is plenty.
    if (comment.compare(pos, 14, "NOLINTNEXTLINE") == 0) {
      pos = p;
      continue;
    }
    if (p < comment.size() && comment[p] == '(') {
      const size_t close = comment.find(')', p);
      if (close == std::string::npos) break;
      std::string ids = comment.substr(p + 1, close - p - 1);
      std::stringstream ss(ids);
      std::string id;
      while (std::getline(ss, id, ',')) {
        const size_t b = id.find_first_not_of(" \t");
        const size_t e = id.find_last_not_of(" \t");
        if (b != std::string::npos) out->insert(id.substr(b, e - b + 1));
      }
      pos = close;
    } else {
      out->insert("*");
      pos = p;
    }
  }
}

}  // namespace

const std::vector<CheckInfo>& CheckCatalog() {
  static const std::vector<CheckInfo> kCatalog = {
      {kCheckRawNew,
       "allocating new/delete expressions in src/ (RAII-only ownership; "
       "rule 1, comment/macro/multi-line aware)"},
      {kCheckHotpathAlloc,
       "any allocation in a `// corm-hotpath` file, including implicit ones "
       "(container growth, string append, std::function) (rule 7)"},
      {kCheckUnboundedWait,
       "loops polling a std::atomic with no Deadline or stop-flag bound; "
       "absolute ban (incl. sleeps and escapes) in compaction_engine.cc, "
       "the replicated-log ship path and the index bucket lock "
       "(index_table.cc) (rules 5+8)"},
      {kCheckEscapeRationale,
       "every NOLINT(corm-*) / NO_THREAD_SAFETY_ANALYSIS escape must carry "
       "a written rationale on the same or preceding line (rule 6)"},
      {kCheckRemapHazard,
       "a raw pointer derived from a Block/object lookup stays live across "
       "a call that may advance compaction (remap point) without "
       "revalidation or pinning; interprocedural since v2 (lookups, remap "
       "points, and revalidations hidden behind helpers are summarized)"},
      {kCheckLockRank,
       "static lock-order verification against the LockRank hierarchy: an "
       "acquisition (or a call that may transitively acquire) a rank <= one "
       "already held is a latent deadlock (common/lock_rank.h)"},
  };
  return kCatalog;
}

bool SourceFile::Load(const std::string& path, SourceFile* out,
                      std::string* err) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *err = "cannot open " + path;
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  out->path_ = path;
  out->lex_ = Lex(text);
  // The contract marker must be the very first line (rule 7) — the whole
  // line, so a first line that merely *starts* with the marker text does
  // not opt a file in.
  std::string first_line = text.substr(0, text.find('\n'));
  while (!first_line.empty() &&
         (first_line.back() == '\r' || first_line.back() == ' ' ||
          first_line.back() == '\t')) {
    first_line.pop_back();
  }
  out->hotpath_ = first_line == "// corm-hotpath";
  for (const auto& [line, comment] : out->lex_.comments) {
    std::set<std::string> ids;
    ParseNolints(comment, &ids);
    if (!ids.empty()) out->nolints_[line] = std::move(ids);
  }
  return true;
}

std::string SourceFile::CommentOn(int line) const {
  auto it = lex_.comments.find(line);
  return it == lex_.comments.end() ? std::string() : it->second;
}

bool SourceFile::LineSuppresses(const std::string& check, int line) const {
  auto it = nolints_.find(line);
  if (it == nolints_.end()) return false;
  const std::set<std::string>& ids = it->second;
  if (ids.count("*") || ids.count(check)) return true;
  if (check == kCheckUnboundedWait && ids.count("corm-spin-wait")) return true;
  if (check == kCheckHotpathAlloc && ids.count(kCheckRawNew)) return true;
  return false;
}

bool SourceFile::IsSuppressed(const std::string& check, int line) const {
  return LineSuppresses(check, line) ||
         (line > 1 && LineSuppresses(check, line - 1));
}

const std::set<std::string>& SourceFile::NolintsOn(int line) const {
  auto it = nolints_.find(line);
  return it == nolints_.end() ? kEmptySet : it->second;
}

std::vector<int> SourceFile::NolintLines() const {
  std::vector<int> lines;
  for (const auto& [line, ids] : nolints_) {
    for (const std::string& id : ids) {
      if (id.rfind("corm-", 0) == 0) {
        lines.push_back(line);
        break;
      }
    }
  }
  return lines;
}

}  // namespace corm_tidy
