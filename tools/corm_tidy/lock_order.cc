#include "lock_order.h"

#include <algorithm>
#include <climits>
#include <set>
#include <tuple>
#include <utility>

namespace corm_tidy {
namespace {

constexpr int kUnresolved = INT_MIN;

bool IsPunct(const Token& t, const char* text) {
  return t.kind == Token::Kind::kPunct && t.text == text;
}
bool IsIdent(const Token& t) { return t.kind == Token::Kind::kIdent; }
bool IsIdent(const Token& t, const char* text) {
  return t.kind == Token::Kind::kIdent && t.text == text;
}

// `src/core/block_directory.cc` -> `block_directory`: the unit ambiguous
// member names are resolved within (a .h/.cc pair share a stem).
std::string FileStem(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  std::string base = slash == std::string::npos ? path : path.substr(slash + 1);
  const size_t dot = base.find_last_of('.');
  return dot == std::string::npos ? base : base.substr(0, dot);
}

// Evaluates the integer initializer of an enumerator: a number literal,
// optionally parenthesized. Enumerators without an initializer continue
// from the previous value, like the language says.
bool ParseIntLiteral(const std::string& text, int* out) {
  try {
    *out = std::stoi(text, nullptr, 0);
    return true;
  } catch (...) {
    return false;
  }
}

// Parses every `enum class LockRank ... { kName = N, ... }` in the file
// set. Fixtures carry their own mini enum; src/ contributes the real one
// from common/lock_rank.h.
void ParseRankEnums(const std::vector<const SourceFile*>& files,
                    std::map<std::string, int>* ranks) {
  for (const SourceFile* f : files) {
    const auto& toks = f->tokens();
    for (size_t i = 0; i + 2 < toks.size(); ++i) {
      if (!IsIdent(toks[i], "enum") || !IsIdent(toks[i + 1], "class") ||
          !IsIdent(toks[i + 2], "LockRank")) {
        continue;
      }
      size_t j = i + 3;
      while (j < toks.size() && !IsPunct(toks[j], "{") &&
             !IsPunct(toks[j], ";")) {
        ++j;
      }
      if (j >= toks.size() || !IsPunct(toks[j], "{")) continue;
      int next_value = 0;
      for (++j; j < toks.size() && !IsPunct(toks[j], "}"); ++j) {
        if (!IsIdent(toks[j])) continue;
        const std::string name = toks[j].text;
        int value = next_value;
        if (j + 2 < toks.size() && IsPunct(toks[j + 1], "=") &&
            toks[j + 2].kind == Token::Kind::kNumber) {
          if (!ParseIntLiteral(toks[j + 2].text, &value)) continue;
          j += 2;
        }
        (*ranks)[name] = value;
        next_value = value + 1;
        while (j < toks.size() && !IsPunct(toks[j], ",") &&
               !IsPunct(toks[j], "}")) {
          ++j;
        }
        if (j < toks.size() && IsPunct(toks[j], "}")) break;
      }
      i = j;
    }
  }
}

// A ranked-lock member/variable whose rank is statically visible.
struct LockDecl {
  std::string name;
  int rank = 0;
  // Substrate mutexes are runtime-uninstrumented and only constrained to be
  // leaves: substrate-under-substrate nesting (two QP locks, a region map
  // and its entries) is the substrate's own business, so they check as
  // reentrant — equal rank allowed, CoRM ranks under them still diagnosed.
  bool reentrant = false;
  std::string stem;  // file stem of the declaration site
};

// Finds rank bindings of two shapes:
//   RankedSpinLock mu_{LockRank::kBlockAllocator};   (decl initializer)
//   Shard() : mu(LockRank::kNodeDirectory) {}        (ctor initializer)
// Both are `IDENT ( '{' | '(' ) LockRank :: kX ( '}' | ')' )`; the
// LockRankRegion RAII declaration shares the shape and is excluded (it is
// an acquisition, not a lock). corm::Mutex/SharedMutex/CountedMutex
// members bind to kSubstrate when that rank exists: the runtime leaves them
// uninstrumented (always a leaf), and the static pass gives them the leaf rank so a CoRM
// lock acquired *under* one is still diagnosed.
void ParseLockDecls(const std::vector<const SourceFile*>& files,
                    const std::map<std::string, int>& ranks,
                    std::vector<LockDecl>* out) {
  const auto substrate = ranks.find("kSubstrate");
  for (const SourceFile* f : files) {
    const std::string stem = FileStem(f->path());
    const auto& toks = f->tokens();
    for (size_t i = 0; i + 4 < toks.size(); ++i) {
      if (IsIdent(toks[i]) && !IsIdent(toks[i], "LockRank") &&
          (IsPunct(toks[i + 1], "{") || IsPunct(toks[i + 1], "(")) &&
          IsIdent(toks[i + 2], "LockRank") && IsPunct(toks[i + 3], "::") &&
          IsIdent(toks[i + 4])) {
        if (i > 0 && IsIdent(toks[i - 1], "LockRankRegion")) continue;
        const auto it = ranks.find(toks[i + 4].text);
        if (it == ranks.end()) continue;
        out->push_back({toks[i].text, it->second, false, stem});
        continue;
      }
      if (substrate != ranks.end() &&
          (IsIdent(toks[i], "Mutex") || IsIdent(toks[i], "SharedMutex") ||
           IsIdent(toks[i], "CountedMutex")) &&
          IsIdent(toks[i + 1]) && IsPunct(toks[i + 2], ";")) {
        out->push_back({toks[i + 1].text, substrate->second, true, stem});
      }
    }
  }
}

// Rank (and reentrancy) of the lock named `name` used from a file with stem
// `use_stem`. Globally unique rank wins; otherwise the declaration sharing
// the use site's file stem (the .h of a .cc) disambiguates; otherwise
// unresolved — skipped, a documented precision loss, never a false
// positive.
std::pair<int, bool> ResolveLock(const std::vector<LockDecl>& decls,
                                 const std::string& name,
                                 const std::string& use_stem) {
  std::set<std::pair<int, bool>> all;
  std::set<std::pair<int, bool>> stem_match;
  for (const LockDecl& d : decls) {
    if (d.name != name) continue;
    all.insert({d.rank, d.reentrant});
    if (d.stem == use_stem) stem_match.insert({d.rank, d.reentrant});
  }
  if (all.size() == 1) return *all.begin();
  if (stem_match.size() == 1) return *stem_match.begin();
  return {kUnresolved, false};
}

struct Acquisition {
  int rank = 0;
  bool reentrant = false;
  int depth = 0;  // brace depth the guard was declared at
};

// A call made while ranks were held; checked against propagated summaries.
struct HeldCall {
  const SourceFile* file = nullptr;
  std::string callee;
  int line = 0;
  int col = 0;
  int held_max = 0;
  std::string held_name;
};

}  // namespace

LockOrderAnalysis LockOrderAnalysis::Run(
    const std::vector<const SourceFile*>& files, CallGraph* cg,
    DiagSink* sink) {
  LockOrderAnalysis a;
  ParseRankEnums(files, &a.ranks_);
  if (a.ranks_.empty()) return a;  // no hierarchy in scope, nothing to check

  std::vector<LockDecl> decls;
  ParseLockDecls(files, a.ranks_, &decls);

  std::vector<HeldCall> held_calls;
  std::map<std::string, std::set<int>> direct_acquires;

  // Definitions to walk: the call graph's when supplied (fixpoint needs the
  // same def set), a fresh scan otherwise.
  std::vector<FunctionDef> scanned;
  const std::vector<FunctionDef>* defs;
  if (cg != nullptr) {
    defs = &cg->definitions();
  } else {
    for (const SourceFile* f : files) {
      auto d = FindFunctionDefs(*f);
      scanned.insert(scanned.end(), d.begin(), d.end());
    }
    defs = &scanned;
  }

  for (const FunctionDef& def : *defs) {
    const SourceFile& f = *def.file;
    const auto& toks = f.tokens();
    const std::string stem = FileStem(f.path());
    std::vector<Acquisition> held;
    int depth = 0;

    auto held_max = [&]() {
      int m = kUnresolved;
      for (const Acquisition& h : held) m = std::max(m, h.rank);
      return m;
    };

    for (size_t i = def.body_begin; i < def.body_end; ++i) {
      const Token& t = toks[i];
      if (IsPunct(t, "{")) {
        ++depth;
        continue;
      }
      if (IsPunct(t, "}")) {
        while (!held.empty() && held.back().depth >= depth) held.pop_back();
        --depth;
        continue;
      }
      if (!IsIdent(t)) continue;

      // Acquisition: LockGuard<M> g(lockexpr) / SharedLockGuard<M> g(...).
      int rank = kUnresolved;
      bool reentrant = false;
      size_t past = 0;  // one past the event, 0 when none matched
      if ((t.text == "LockGuard" || t.text == "SharedLockGuard") &&
          i + 1 < def.body_end && IsPunct(toks[i + 1], "<")) {
        size_t j = i + 2;
        while (j < def.body_end && !IsPunct(toks[j], ">")) ++j;
        if (j + 2 < def.body_end && IsIdent(toks[j + 1]) &&
            IsPunct(toks[j + 2], "(")) {
          // Lock expression: the last identifier before `)` — handles
          // `mu_`, `s.mu`, `node->alias_mu_`.
          size_t k = j + 3;
          std::string lock_name;
          while (k < def.body_end && !IsPunct(toks[k], ")")) {
            if (IsIdent(toks[k])) lock_name = toks[k].text;
            ++k;
          }
          if (!lock_name.empty()) {
            std::tie(rank, reentrant) = ResolveLock(decls, lock_name, stem);
            past = k;
          }
        }
      }
      // Acquisition: LockRankRegion r(LockRank::kX) — reentrant.
      if (t.text == "LockRankRegion" && i + 6 < def.body_end &&
          IsIdent(toks[i + 1]) && IsPunct(toks[i + 2], "(") &&
          IsIdent(toks[i + 3], "LockRank") && IsPunct(toks[i + 4], "::") &&
          IsIdent(toks[i + 5])) {
        const auto it = a.ranks_.find(toks[i + 5].text);
        if (it != a.ranks_.end()) {
          rank = it->second;
          reentrant = true;
          past = i + 6;
        }
      }

      if (rank != kUnresolved && past != 0) {
        const int held_top = held_max();
        if (held_top != kUnresolved) {
          a.edges_.push_back(
              {held_top, rank, reentrant, f.path(), t.line});
          const bool ok = reentrant ? rank >= held_top : rank > held_top;
          if (!ok) {
            sink->Report(
                f, kCheckLockRank, t.line, t.col,
                "lock-order violation: acquiring '" + a.RankName(rank) +
                    "' (" + std::to_string(rank) + ") while holding '" +
                    a.RankName(held_top) + "' (" + std::to_string(held_top) +
                    "); the hierarchy in common/lock_rank.h only permits " +
                    (reentrant ? "equal or " : "") +
                    "increasing ranks");
          }
        }
        held.push_back({rank, reentrant, depth});
        direct_acquires[def.name].insert(rank);
        i = past;
        continue;
      }

      // Call site under held ranks: remember for the interprocedural pass.
      if (cg != nullptr && !held.empty() && i + 1 < def.body_end &&
          IsPunct(toks[i + 1], "(") && t.text != "LockGuard" &&
          t.text != "SharedLockGuard" && t.text != "LockRankRegion") {
        const int m = held_max();
        held_calls.push_back(
            {&f, t.text, t.line, t.col, m, a.RankName(m)});
      }
    }
  }

  if (cg == nullptr) return a;

  // Deposit direct may-acquire sets, then propagate them over the call
  // graph with the usual grow-only fixpoint.
  auto& summaries = cg->summaries();
  for (const auto& [name, ranks] : direct_acquires) {
    summaries[name].acquires.insert(ranks.begin(), ranks.end());
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const FunctionDef& def : cg->definitions()) {
      FunctionSummary& s = summaries[def.name];
      for (const std::string& callee : def.callees) {
        const auto it = summaries.find(callee);
        if (it == summaries.end()) continue;
        for (int r : it->second.acquires) {
          if (s.acquires.insert(r).second) changed = true;
        }
      }
    }
  }

  // A call that may (transitively) acquire a rank *below* one the caller
  // holds is a latent inversion even though no guard is visible at the call
  // site. Equal rank is allowed: summaries cannot tell a reentrant region
  // from a lock, and regions re-enter legitimately.
  for (const HeldCall& hc : held_calls) {
    const FunctionSummary* s = cg->SummaryFor(hc.callee);
    if (s == nullptr || s->acquires.empty()) continue;
    const int lowest = *s->acquires.begin();
    if (lowest >= hc.held_max) continue;
    sink->Report(
        *hc.file, kCheckLockRank, hc.line, hc.col,
        "lock-order violation: call to '" + hc.callee +
            "()' while holding '" + hc.held_name + "' (" +
            std::to_string(hc.held_max) + ") may acquire '" +
            a.RankName(lowest) + "' (" + std::to_string(lowest) +
            "), a lower rank; hoist the call out of the critical section "
            "or re-rank the locks (common/lock_rank.h)");
  }
  return a;
}

std::string LockOrderAnalysis::RankName(int value) const {
  for (const auto& [name, v] : ranks_) {
    if (v == value) return name;
  }
  return "rank" + std::to_string(value);
}

void LockOrderAnalysis::Dump(std::ostream& os) const {
  // Ranks sorted by value (ties by name), edges in discovery order.
  std::vector<std::pair<int, std::string>> by_value;
  for (const auto& [name, v] : ranks_) by_value.emplace_back(v, name);
  std::sort(by_value.begin(), by_value.end());
  for (const auto& [v, name] : by_value) {
    os << "rank " << name << " " << v << "\n";
  }
  for (const LockOrderEdge& e : edges_) {
    os << "edge " << RankName(e.held_rank) << " " << e.held_rank << " "
       << RankName(e.acquired_rank) << " " << e.acquired_rank << " "
       << (e.reentrant ? 1 : 0) << " " << e.file << ":" << e.line << "\n";
  }
}

}  // namespace corm_tidy
