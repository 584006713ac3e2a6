#include "token_checks.h"

#include <algorithm>
#include <cctype>

namespace corm_tidy {
namespace {

bool Is(const Token& t, Token::Kind k, const char* text) {
  return t.kind == k && t.text == text;
}
bool IsIdent(const Token& t, const char* text) {
  return Is(t, Token::Kind::kIdent, text);
}
bool IsPunct(const Token& t, const char* text) {
  return Is(t, Token::Kind::kPunct, text);
}

std::string Lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

// Index one past the matching closer for the opener at `open` (which must
// index an opening punct); tokens.size() when unbalanced.
size_t PastMatching(const std::vector<Token>& toks, size_t open,
                    const char* opener, const char* closer) {
  int depth = 0;
  for (size_t i = open; i < toks.size(); ++i) {
    if (IsPunct(toks[i], opener)) ++depth;
    if (IsPunct(toks[i], closer) && --depth == 0) return i + 1;
  }
  return toks.size();
}

// Container/string growth methods that may allocate. `insert`/`emplace` on
// a preallocated structure can be allocation-free, but a hot-path file
// promises the steady state performs *no* allocation — a growth-capable
// call there is either cold-path (annotate it) or a contract violation.
const char* kGrowthMethods[] = {
    "push_back", "emplace_back", "emplace", "push_front", "emplace_front",
    "resize",    "reserve",      "append",  "assign",     "insert",
};

// Allocation entry points by name.
const char* kAllocCalls[] = {
    "make_unique", "make_shared", "malloc",       "calloc",
    "realloc",     "strdup",      "aligned_alloc",
};

bool InList(const std::string& s, const char* const* list, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (s == list[i]) return true;
  }
  return false;
}

}  // namespace

void DiagSink::Report(const SourceFile& f, const std::string& check,
                      int line, int col, std::string message) {
  if (f.IsSuppressed(check, line)) {
    ++suppressed;
    return;
  }
  diags->push_back({f.path(), line, col, check, std::move(message)});
}

bool IsAllocatingNewOrDelete(const std::vector<Token>& toks, size_t i,
                             bool* is_delete) {
  const Token& t = toks[i];
  if (t.kind != Token::Kind::kIdent) return false;
  const bool prev_operator = i > 0 && IsIdent(toks[i - 1], "operator");

  if (t.text == "new") {
    // `operator new` declarations are not allocation sites.
    if (prev_operator) return false;
    if (i + 1 >= toks.size()) return false;
    const Token& next = toks[i + 1];
    if (IsPunct(next, "(")) {
      // Placement new does not allocate — unless the placement argument is
      // std::nothrow, which selects the allocating nothrow form.
      const size_t end = PastMatching(toks, i + 1, "(", ")");
      for (size_t j = i + 2; j + 1 < end; ++j) {
        if (IsIdent(toks[j], "nothrow")) {
          *is_delete = false;
          return true;
        }
      }
      return false;
    }
    // Allocating form: `new Type(...)` / `new Type[...]` / `new ns::T{...}`.
    if (next.kind == Token::Kind::kIdent || IsPunct(next, "::")) {
      *is_delete = false;
      return true;
    }
    return false;
  }

  if (t.text == "delete") {
    if (prev_operator) return false;                      // operator delete decl
    if (i > 0 && IsPunct(toks[i - 1], "=")) return false;  // = delete
    if (i + 1 >= toks.size()) return false;
    size_t j = i + 1;
    if (IsPunct(toks[j], "[")) {  // delete[] expr
      if (j + 1 < toks.size() && IsPunct(toks[j + 1], "]")) j += 2;
    }
    if (j >= toks.size()) return false;
    const Token& operand = toks[j];
    if (operand.kind == Token::Kind::kIdent || IsPunct(operand, "(") ||
        IsPunct(operand, "*") || IsPunct(operand, "::")) {
      *is_delete = true;
      return true;
    }
    return false;
  }
  return false;
}

void CheckRawNew(const SourceFile& f, DiagSink* sink) {
  const auto& toks = f.tokens();
  for (size_t i = 0; i < toks.size(); ++i) {
    bool is_delete = false;
    if (!IsAllocatingNewOrDelete(toks, i, &is_delete)) continue;
    sink->Report(f, kCheckRawNew, toks[i].line, toks[i].col,
                 is_delete
                     ? "expression `delete`: ownership is RAII-only; return "
                       "the pointer to its owning unique_ptr/pool instead"
                     : "allocating `new` expression: ownership is RAII-only; "
                       "use std::make_unique or a pool");
  }
}

void CheckHotpathAlloc(const SourceFile& f, DiagSink* sink) {
  if (!f.is_hotpath()) return;
  const auto& toks = f.tokens();
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    bool is_delete = false;
    if (IsAllocatingNewOrDelete(toks, i, &is_delete)) {
      sink->Report(f, kCheckHotpathAlloc, t.line, t.col,
                   "explicit heap allocation in a corm-hotpath file");
      continue;
    }
    if (t.kind != Token::Kind::kIdent) continue;

    // Named allocation call: make_unique<...>(...), malloc(...), ...
    if (InList(t.text, kAllocCalls, std::size(kAllocCalls)) &&
        i + 1 < toks.size() &&
        (IsPunct(toks[i + 1], "(") || IsPunct(toks[i + 1], "<"))) {
      sink->Report(f, kCheckHotpathAlloc, t.line, t.col,
                   "heap allocation (`" + t.text +
                       "`) in a corm-hotpath file; move it off the data "
                       "plane or annotate the cold path");
      continue;
    }

    // Implicit allocation: growth-capable member call on some object. The
    // token engine cannot see the receiver's type; a hot-path file is held
    // to the stricter reading.
    if (InList(t.text, kGrowthMethods, std::size(kGrowthMethods)) && i > 0 &&
        (IsPunct(toks[i - 1], ".") || IsPunct(toks[i - 1], "->")) &&
        i + 1 < toks.size() && IsPunct(toks[i + 1], "(")) {
      sink->Report(f, kCheckHotpathAlloc, t.line, t.col,
                   "`" + t.text +
                       "()` may grow its container (implicit allocation) in "
                       "a corm-hotpath file");
      continue;
    }

    // std::function construction/declaration: the capture state of any
    // non-trivial lambda heap-allocates on conversion.
    if (t.text == "function" && i >= 2 && IsPunct(toks[i - 1], "::") &&
        IsIdent(toks[i - 2], "std") && i + 1 < toks.size() &&
        IsPunct(toks[i + 1], "<")) {
      sink->Report(f, kCheckHotpathAlloc, t.line, t.col,
                   "std::function in a corm-hotpath file: lambda-to-function "
                   "conversion heap-allocates its capture state");
    }
  }
}

void CheckUnboundedWait(const SourceFile& f, DiagSink* sink) {
  const bool strict = IsStrictWaitPath(f.path());
  if (!strict && IsWaitExemptPath(f.path())) return;
  const auto& toks = f.tokens();

  auto report = [&](const std::string& check, int line, int col,
                    std::string msg) {
    if (strict) {
      // Rule 8: no escape hatch inside the strict-wait files — diagnostics
      // bypass the NOLINT window entirely.
      sink->diags->push_back({f.path(), line, col, check, std::move(msg)});
    } else {
      sink->Report(f, check, line, col, std::move(msg));
    }
  };

  for (size_t i = 0; i < toks.size(); ++i) {
    if (strict && IsIdent(toks[i], "sleep_for")) {
      report(kCheckUnboundedWait, toks[i].line, toks[i].col,
             "sleep inside a strict-wait file; compaction phase handlers, "
             "the replication ship path and the index bucket lock poll and "
             "re-enter or give up at a Deadline (rule 8)");
      continue;
    }
    if (!IsIdent(toks[i], "while")) continue;
    if (i + 1 >= toks.size() || !IsPunct(toks[i + 1], "(")) continue;
    const size_t cond_end = PastMatching(toks, i + 1, "(", ")");

    // Does the condition read an atomic?
    bool reads_atomic = false;
    bool bounded = false;
    for (size_t j = i + 2; j + 1 < cond_end; ++j) {
      if (IsIdent(toks[j], "load") && j > 0 &&
          (IsPunct(toks[j - 1], ".") || IsPunct(toks[j - 1], "->")) &&
          j + 1 < toks.size() && IsPunct(toks[j + 1], "(")) {
        reads_atomic = true;
      }
      if (toks[j].kind == Token::Kind::kIdent) {
        const std::string low = Lower(toks[j].text);
        if (low.find("deadline") != std::string::npos ||
            low.find("expired") != std::string::npos) {
          bounded = true;  // Deadline-checked condition
        }
        // A service run-loop polling its stop flag is bounded by the node's
        // lifetime, not a completion wait — but rule 8 refuses even that
        // inside the engine: phase handlers poll and *return*.
        if (!strict && (low.find("stop") != std::string::npos ||
                        low.find("quit") != std::string::npos ||
                        low.find("shutdown") != std::string::npos)) {
          bounded = true;
        }
      }
    }
    if (!reads_atomic || bounded) continue;

    // Look through the loop body for a Deadline bound (the common shape:
    // `while (!done.load()) { if (deadline.expired()) return kTimeout; }`).
    size_t body_end = cond_end;
    if (cond_end < toks.size() && IsPunct(toks[cond_end], "{")) {
      body_end = PastMatching(toks, cond_end, "{", "}");
    } else {
      while (body_end < toks.size() && !IsPunct(toks[body_end], ";")) {
        ++body_end;
      }
    }
    for (size_t j = cond_end; j < body_end && !bounded; ++j) {
      if (toks[j].kind != Token::Kind::kIdent) continue;
      const std::string low = Lower(toks[j].text);
      if (low.find("deadline") != std::string::npos ||
          low.find("expired") != std::string::npos) {
        bounded = true;
      }
    }
    if (bounded) continue;

    report(kCheckUnboundedWait, toks[i].line, toks[i].col,
           strict ? "unbounded atomic wait in a strict-wait file; poll and "
                    "re-enter on the next slice, or bound it with a "
                    "Deadline (rule 8, no NOLINT honored)"
                  : "unbounded spin-wait on an atomic; bound it with a "
                    "Deadline (common/retry.h) so a dead peer converts to "
                    "kTimeout instead of a hang");
  }

  // Rule 8 also bans the escape marker itself inside the engine file: an
  // un-honorable NOLINT is a lie waiting for a reader to believe it.
  if (strict) {
    for (int line : f.NolintLines()) {
      const auto& ids = f.NolintsOn(line);
      if (ids.count("corm-spin-wait") || ids.count(kCheckUnboundedWait)) {
        sink->diags->push_back(
            {f.path(), line, 1, kCheckUnboundedWait,
             "spin-wait NOLINT marker inside a strict-wait file "
             "(compaction_engine.cc, log_shipper.cc, replication.cc, "
             "index_table.cc); "
             "rule 8 grants no escape here — remove the wait instead"});
      }
    }
  }
}

void CheckEscapeRationale(const SourceFile& f, DiagSink* sink) {
  if (IsThreadAnnotationsPath(f.path())) return;  // the macro's definition

  // A rationale is a comment, in the same-or-preceding-line window, with
  // real words left after the escape tokens themselves are deleted.
  auto has_rationale = [&](int line) {
    std::string window = f.CommentOn(line);
    if (line > 1) window += " " + f.CommentOn(line - 1);
    // Delete escape tokens so they cannot self-certify.
    for (const char* tok : {"NOLINT", "NO_THREAD_SAFETY_ANALYSIS"}) {
      size_t pos;
      while ((pos = window.find(tok)) != std::string::npos) {
        size_t end = pos + std::char_traits<char>::length(tok);
        if (end < window.size() && window[end] == '(') {
          const size_t close = window.find(')', end);
          end = close == std::string::npos ? window.size() : close + 1;
        }
        window.erase(pos, end - pos);
      }
    }
    int run = 0;
    for (char c : window) {
      run = std::isalpha(static_cast<unsigned char>(c)) ? run + 1 : 0;
      if (run >= 3) return true;
    }
    return false;
  };

  for (int line : f.NolintLines()) {
    if (!has_rationale(line)) {
      sink->Report(f, kCheckEscapeRationale, line, 1,
                   "NOLINT(corm-*) without a written rationale on the same "
                   "or preceding line; escapes are debts, document why this "
                   "one is safe (rule 6)");
    }
  }
  for (const Token& t : f.tokens()) {
    if (t.kind == Token::Kind::kIdent &&
        t.text == "NO_THREAD_SAFETY_ANALYSIS" && !has_rationale(t.line)) {
      sink->Report(f, kCheckEscapeRationale, t.line, t.col,
                   "NO_THREAD_SAFETY_ANALYSIS without a written rationale on "
                   "the same or preceding line (rule 6)");
    }
  }
}

bool IsWaitExemptPath(const std::string& path) {
  // The low-level primitives own the sanctioned bounded waits (rule 5).
  return path.find("src/common/") != std::string::npos ||
         path.find("src/rdma/") != std::string::npos;
}

bool IsStrictWaitPath(const std::string& path) {
  // Rule 8's absolute ban covers the compaction engine and, since the
  // replicated log landed, the ship path: a blocked shipper stalls every
  // replicated write behind it, and a blocked applier stalls a whole
  // ingress ring — both must convert dead peers into kTimeout via
  // Deadline, never wait unboundedly. Strict mode overrides the src/rdma/
  // wait exemption for log_shipper.cc. The keyed index's bucket seq-lock
  // (index_table.cc) is held by serving workers and the compaction
  // engine's IndexRepair alike, so a wait there stalls both.
  return path.find("compaction_engine.cc") != std::string::npos ||
         path.find("log_shipper.cc") != std::string::npos ||
         path.find("replication.cc") != std::string::npos ||
         path.find("index_table.cc") != std::string::npos;
}

bool IsThreadAnnotationsPath(const std::string& path) {
  return path.find("thread_annotations.h") != std::string::npos;
}

}  // namespace corm_tidy
