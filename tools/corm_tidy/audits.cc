#include "audits.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <vector>

#include "source_file.h"

namespace corm_tidy {
namespace {

namespace fs = std::filesystem;

bool IsPunct(const Token& t, const char* text) {
  return t.kind == Token::Kind::kPunct && t.text == text;
}
bool IsIdent(const Token& t, const char* text) {
  return t.kind == Token::Kind::kIdent && t.text == text;
}

bool ReadFile(const fs::path& p, std::string* out) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

// Loads every *.h/*.cc under `dir` (sorted for deterministic reports).
bool LoadTree(const fs::path& dir,
              std::vector<std::unique_ptr<SourceFile>>* out,
              std::string* err) {
  if (!fs::is_directory(dir)) {
    *err = dir.generic_string() + " is not a directory";
    return false;
  }
  std::vector<std::string> paths;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    const auto ext = entry.path().extension();
    if (entry.is_regular_file() && (ext == ".h" || ext == ".cc")) {
      paths.push_back(entry.path().generic_string());
    }
  }
  std::sort(paths.begin(), paths.end());
  for (const std::string& p : paths) {
    auto f = std::make_unique<SourceFile>();
    if (!SourceFile::Load(p, f.get(), err)) return false;
    out->push_back(std::move(f));
  }
  return true;
}

// `const char* kName = "site.string";` inside `namespace fault_sites {}`.
// Returns constant name -> site string.
std::map<std::string, std::string> ParseFaultSites(const SourceFile& f) {
  std::map<std::string, std::string> sites;
  const auto& toks = f.tokens();
  size_t i = 0;
  for (; i + 2 < toks.size(); ++i) {
    if (IsIdent(toks[i], "namespace") && IsIdent(toks[i + 1], "fault_sites") &&
        IsPunct(toks[i + 2], "{")) {
      break;
    }
  }
  if (i + 2 >= toks.size()) return sites;
  int depth = 0;
  for (i += 2; i < toks.size(); ++i) {
    if (IsPunct(toks[i], "{")) ++depth;
    if (IsPunct(toks[i], "}") && --depth == 0) break;
    if (toks[i].kind == Token::Kind::kIdent &&
        toks[i].text.rfind("k", 0) == 0 && i + 2 < toks.size() &&
        IsPunct(toks[i + 1], "=") &&
        toks[i + 2].kind == Token::Kind::kString) {
      sites[toks[i].text] = toks[i + 2].text;
    }
  }
  return sites;
}

// Backticked entries inside a `<!-- marker-begin --> ... <!-- marker-end -->`
// block of a markdown file. Returns false when the markers are absent.
bool ParseMarkerBlock(const std::string& text, const std::string& marker,
                      std::set<std::string>* out) {
  const std::string begin = "<!-- " + marker + "-begin -->";
  const std::string end = "<!-- " + marker + "-end -->";
  const size_t b = text.find(begin);
  const size_t e = text.find(end);
  if (b == std::string::npos || e == std::string::npos || e < b) return false;
  size_t i = b + begin.size();
  while (i < e) {
    const size_t open = text.find('`', i);
    if (open == std::string::npos || open >= e) break;
    const size_t close = text.find('`', open + 1);
    if (close == std::string::npos || close >= e) break;
    const std::string entry = text.substr(open + 1, close - open - 1);
    if (!entry.empty()) out->insert(entry);
    i = close + 1;
  }
  return true;
}

// Names in the `#define CORM_NODE_COUNTERS(X)` list of `header`, in list
// order. Reads raw text because the lexer drops preprocessor lines. Each
// entry is `X(name)`; `/* */` comments between entries are skipped, and the
// list ends at the first line break without a continuation backslash.
std::vector<std::string> ParseCounterList(const std::string& header) {
  std::vector<std::string> names;
  const std::string def = "#define CORM_NODE_COUNTERS(X)";
  size_t i = header.find(def);
  if (i == std::string::npos) return names;
  for (i += def.size(); i < header.size();) {
    if (header.compare(i, 2, "/*") == 0) {
      const size_t close = header.find("*/", i + 2);
      if (close == std::string::npos) break;
      i = close + 2;
    } else if (header[i] == '\n') {
      size_t j = i;
      if (j > 0 && header[j - 1] == '\r') --j;
      if (j == 0 || header[j - 1] != '\\') break;
      ++i;
    } else if (header.compare(i, 2, "X(") == 0) {
      const size_t close = header.find(')', i + 2);
      if (close == std::string::npos) break;
      names.push_back(header.substr(i + 2, close - i - 2));
      i = close + 1;
    } else {
      ++i;
    }
  }
  return names;
}

// True when the tokens before `end`, past any trailing identifiers
// (`const`, `noexcept`), end in `)`: a function head, not a data member.
bool EndsWithParams(const std::vector<Token>& toks, size_t begin, size_t end) {
  while (end > begin && toks[end - 1].kind == Token::Kind::kIdent) --end;
  return end > begin && IsPunct(toks[end - 1], ")");
}

// Data-member names of `struct <name> { ... };` in `toks`, in declaration
// order. Each `;`-terminated statement at the struct's top level is a
// member, named by the last identifier before its initializer (`= ...` or
// `{...}`). Member functions (their heads end in `)`) with their bodies,
// and static, using, friend and nested type declarations are skipped.
std::vector<std::string> ParseStructFields(const std::vector<Token>& toks,
                                           const std::string& name) {
  std::vector<std::string> fields;
  size_t i = 0;
  while (i + 2 < toks.size() &&
         !(IsIdent(toks[i], "struct") && IsIdent(toks[i + 1], name.c_str()) &&
           IsPunct(toks[i + 2], "{"))) {
    ++i;
  }
  size_t stmt = i += 3;  // first token of the current statement
  size_t cut = 0;        // first `=` or `{` of the statement, 0 = none yet
  for (int depth = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (depth == 0 && IsPunct(t, "{") && EndsWithParams(toks, stmt, i)) {
      for (int body = 0; i < toks.size(); ++i) {  // skip a function body
        if (IsPunct(toks[i], "{")) ++body;
        if (IsPunct(toks[i], "}") && --body == 0) break;
      }
      stmt = i + 1;
      cut = 0;
      continue;
    }
    if (depth == 0 && cut == 0 && (IsPunct(t, "=") || IsPunct(t, "{"))) {
      cut = i;
    }
    if (IsPunct(t, "{")) ++depth;
    if (IsPunct(t, "}") && --depth < 0) break;  // end of the struct
    if (depth != 0 || !IsPunct(t, ";")) continue;
    const size_t end = cut != 0 ? cut : i;
    const Token& first = toks[stmt];
    const bool skip = IsIdent(first, "static") || IsIdent(first, "using") ||
                      IsIdent(first, "friend") || IsIdent(first, "enum") ||
                      IsIdent(first, "struct") || IsIdent(first, "class");
    if (!skip && end > stmt && toks[end - 1].kind == Token::Kind::kIdent &&
        !EndsWithParams(toks, stmt, end)) {
      fields.push_back(toks[end - 1].text);
    }
    stmt = i + 1;
    cut = 0;
  }
  return fields;
}

// The config-field contract: every CormConfig field must be assigned
// (`.field =`, a member store or a designated initializer) by some file
// under src/, bench/, examples/, perfbench/ or tests/ other than `node_h`,
// the header that declares it. The lint fixture trees are not searched:
// their mini configs must not vouch for the real one. Returns the failure
// count.
int AuditUnsetConfigFields(const fs::path& root, const fs::path& node_h,
                           const std::vector<std::string>& fields,
                           const std::function<void(const std::string&)>& fail) {
  std::set<std::string> unset(fields.begin(), fields.end());
  for (const char* dir : {"src", "bench", "examples", "perfbench", "tests"}) {
    if (!fs::is_directory(root / dir)) continue;
    for (auto it = fs::recursive_directory_iterator(root / dir);
         it != fs::recursive_directory_iterator(); ++it) {
      const fs::directory_entry& entry = *it;
      if (entry.is_directory() && entry.path().filename() == "lint_fixtures") {
        it.disable_recursion_pending();
        continue;
      }
      const auto ext = entry.path().extension();
      std::string text;
      if (!entry.is_regular_file() ||
          (ext != ".h" && ext != ".cc" && ext != ".cpp") ||
          fs::equivalent(entry.path(), node_h) ||
          !ReadFile(entry.path(), &text)) {
        continue;
      }
      const std::vector<Token> toks = Lex(text).tokens;
      for (size_t k = 0; k + 2 < toks.size(); ++k) {
        if (IsPunct(toks[k], ".") && IsPunct(toks[k + 2], "=")) {
          unset.erase(toks[k + 1].text);
        }
      }
    }
  }
  for (const std::string& f : fields) {
    if (unset.count(f) != 0) {
      fail("CormConfig field `" + f +
           "` is set by nothing under src/, bench/, examples/, perfbench/ "
           "or tests/: delete it or fold it into a constant");
    }
  }
  return static_cast<int>(unset.size());
}

// The quoted targets of the `#include "..."` lines in `text`.
std::vector<std::string> QuotedIncludes(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    size_t i = line.find_first_not_of(" \t");
    if (i == std::string::npos || line[i] != '#') continue;
    i = line.find_first_not_of(" \t", i + 1);
    if (i == std::string::npos || line.compare(i, 7, "include") != 0) continue;
    const size_t open = line.find('"', i + 7);
    if (open == std::string::npos) continue;
    const size_t close = line.find('"', open + 1);
    if (close == std::string::npos) continue;
    out.push_back(line.substr(open + 1, close - open - 1));
  }
  return out;
}

// The dead-module contract. Headers are named by their path relative to
// src/, the spelling every include in the tree uses; an include is also
// resolved against its own file's directory. Returns the failure count.
int AuditDeadModules(const fs::path& root,
                     const std::function<void(const std::string&)>& fail) {
  const fs::path src = root / "src";
  std::vector<std::string> headers;
  // Included header (src/-relative) -> the files including it.
  std::map<std::string, std::set<std::string>> includers;
  for (const char* dir : {"src", "bench", "examples", "perfbench"}) {
    if (!fs::is_directory(root / dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(root / dir)) {
      const auto ext = entry.path().extension();
      if (!entry.is_regular_file() ||
          (ext != ".h" && ext != ".cc" && ext != ".cpp")) {
        continue;
      }
      const std::string rel =
          entry.path().lexically_relative(src).generic_string();
      if (ext == ".h" && rel.rfind("..", 0) != 0) headers.push_back(rel);
      std::string text;
      if (!ReadFile(entry.path(), &text)) continue;
      const fs::path dir_rel =
          entry.path().parent_path().lexically_relative(src);
      for (const std::string& inc : QuotedIncludes(text)) {
        includers[inc].insert(rel);
        includers[(dir_rel / inc).lexically_normal().generic_string()].insert(
            rel);
      }
    }
  }
  std::sort(headers.begin(), headers.end());
  int failures = 0;
  for (const std::string& h : headers) {
    const std::string own_cc = h.substr(0, h.size() - 2) + ".cc";
    const auto& by = includers[h];
    if (std::none_of(by.begin(), by.end(),
                     [&](const std::string& f) { return f != own_cc; })) {
      ++failures;
      fail("header `src/" + h +
           "` is included by nothing under src/, bench/, examples/ or "
           "perfbench/ but its own .cc: a dead module");
    }
  }
  return failures;
}

}  // namespace

int RunAudits(const std::string& root, std::ostream& os) {
  const fs::path rp(root);
  std::string err;

  std::vector<std::unique_ptr<SourceFile>> src_files;
  std::vector<std::unique_ptr<SourceFile>> test_files;
  if (!LoadTree(rp / "src", &src_files, &err) ||
      !LoadTree(rp / "tests", &test_files, &err)) {
    os << "FATAL: " << err << "\n";
    return 2;
  }

  int failures = 0;
  auto fail = [&](const std::string& msg) {
    ++failures;
    os << "  FAIL " << msg << "\n";
  };

  // --- Fault-site exhaustiveness. -----------------------------------------
  const SourceFile* injector = nullptr;
  for (const auto& f : src_files) {
    if (f->path().size() >= 16 &&
        f->path().compare(f->path().size() - 16, 16, "fault_injector.h") ==
            0) {
      injector = f.get();
      break;
    }
  }
  if (injector == nullptr) {
    os << "FATAL: no fault_injector.h under " << (rp / "src").generic_string()
       << "\n";
    return 2;
  }
  const auto sites = ParseFaultSites(*injector);
  if (sites.empty()) {
    os << "FATAL: no fault_sites constants in " << injector->path() << "\n";
    return 2;
  }

  std::string design;
  if (!ReadFile(rp / "DESIGN.md", &design)) {
    os << "FATAL: cannot read DESIGN.md under " << root << "\n";
    return 2;
  }
  std::set<std::string> table;
  if (!ParseMarkerBlock(design, "fault-site-table", &table)) {
    os << "FATAL: DESIGN.md has no fault-site-table markers\n";
    return 2;
  }

  std::set<std::string> site_strings;
  for (const auto& [cname, site] : sites) {
    site_strings.insert(site);
    // Exercised: a test names the constant or spells the site string.
    bool exercised = false;
    for (const auto& tf : test_files) {
      for (const Token& t : tf->tokens()) {
        if ((t.kind == Token::Kind::kIdent && t.text == cname) ||
            (t.kind == Token::Kind::kString && t.text == site)) {
          exercised = true;
          break;
        }
      }
      if (exercised) break;
    }
    if (!exercised) {
      fail("fault site `" + site + "` (" + cname +
           ") is exercised by no test under tests/");
    }
    if (table.count(site) == 0) {
      fail("fault site `" + site +
           "` is missing from the DESIGN.md fault-site table");
    }
  }
  for (const std::string& entry : table) {
    if (site_strings.count(entry) == 0) {
      fail("DESIGN.md fault-site table lists `" + entry +
           "`, which is not a fault_sites constant");
    }
  }
  if (failures == 0) {
    os << "  OK   fault sites: " << sites.size()
       << " site(s) exercised and documented\n";
  }

  // --- Node-counter schema. ----------------------------------------------
  const int fault_failures = failures;
  const SourceFile* node_h = nullptr;
  for (const auto& f : src_files) {
    const auto& p = f->path();
    if (p.size() >= 11 && p.compare(p.size() - 11, 11, "corm_node.h") == 0) {
      node_h = f.get();
    }
  }
  std::string header;
  if (node_h == nullptr || !ReadFile(node_h->path(), &header)) {
    os << "FATAL: corm_node.h not found under src/\n";
    return 2;
  }
  const auto counters = ParseCounterList(header);
  if (counters.empty()) {
    os << "FATAL: no CORM_NODE_COUNTERS(X) entries in " << node_h->path()
       << "\n";
    return 2;
  }

  std::string experiments;
  if (!ReadFile(rp / "EXPERIMENTS.md", &experiments)) {
    os << "FATAL: cannot read EXPERIMENTS.md under " << root << "\n";
    return 2;
  }
  std::set<std::string> schema;
  if (!ParseMarkerBlock(experiments, "stats-schema", &schema)) {
    os << "FATAL: EXPERIMENTS.md has no stats-schema markers\n";
    return 2;
  }

  for (const std::string& c : counters) {
    if (schema.count(c) == 0) {
      fail("NodeStatShard counter `" + c +
           "` is missing from the EXPERIMENTS.md stats schema");
    }
  }
  const std::set<std::string> counter_set(counters.begin(), counters.end());
  for (const std::string& entry : schema) {
    if (counter_set.count(entry) == 0) {
      fail("EXPERIMENTS.md stats schema lists `" + entry +
           "`, which is not a NodeStatShard counter");
    }
  }
  if (failures == fault_failures) {
    os << "  OK   node counters: " << counters.size()
       << " counter(s) documented\n";
  }

  // --- Config fields. ------------------------------------------------------
  const auto fields = ParseStructFields(node_h->tokens(), "CormConfig");
  if (fields.empty()) {
    os << "FATAL: no struct CormConfig fields in " << node_h->path() << "\n";
    return 2;
  }
  if (AuditUnsetConfigFields(rp, node_h->path(), fields, fail) == 0) {
    os << "  OK   config fields: " << fields.size()
       << " CormConfig field(s) set outside their header\n";
  }

  // --- Dead modules. -------------------------------------------------------
  if (AuditDeadModules(rp, fail) == 0) {
    os << "  OK   dead modules: every src/ header has an includer\n";
  }

  return failures == 0 ? 0 : 1;
}

}  // namespace corm_tidy
