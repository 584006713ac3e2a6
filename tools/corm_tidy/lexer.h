// corm-tidy: a minimal C++ lexer, the base of the linter's token engine.
//
// It is deliberately not a parser: it produces a comment- and string-aware
// token stream with line/column positions, which is exactly what the grep
// rules lacked — greps cannot tell `delete msg;` from `// delete msg later`
// or see a `delete` whose operand sits on the next line. Everything here
// must hold on a lone file with no compilation database.

#ifndef CORM_TIDY_LEXER_H_
#define CORM_TIDY_LEXER_H_

#include <map>
#include <string>
#include <vector>

namespace corm_tidy {

struct Token {
  enum class Kind {
    kIdent,   // identifiers and keywords (new/delete/while/...)
    kNumber,  // numeric literals
    kString,  // string literals (incl. raw/prefixed forms), body in text
    kChar,    // character literals
    kPunct,   // operators / punctuation, multi-char where it matters
  };
  Kind kind = Kind::kPunct;
  std::string text;  // identifier/punct spelling; literal spelling for
                     // numbers and the body (quotes stripped) for strings —
                     // the wire-ABI extractor and the audits read literals
  int line = 0;      // 1-based
  int col = 0;       // 1-based
};

struct LexResult {
  std::vector<Token> tokens;
  // Concatenated comment text per line (both // and /* */ styles). Used for
  // NOLINT markers, rationale checks, and the `// corm-hotpath` contract.
  std::map<int, std::string> comments;
};

// Lexes `text`. Preprocessor directives (including continuation lines) are
// skipped entirely: the grep rules never saw macro bodies either, so the
// token engine stays no *noisier* than the greps while becoming strictly
// more precise on real code.
LexResult Lex(const std::string& text);

}  // namespace corm_tidy

#endif  // CORM_TIDY_LEXER_H_
