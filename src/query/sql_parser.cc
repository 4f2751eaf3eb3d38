#include "query/sql_parser.h"

#include <cctype>
#include <cmath>

#include "common/str_util.h"

namespace featlib {
namespace {

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

enum class TokenKind {
  kIdent,
  kNumber,
  kString,
  kComma,
  kLParen,
  kRParen,
  kStar,
  kEquals,
  kGreaterEquals,
  kLessEquals,
  kGreater,
  kLess,
  kNotEquals,
  kSemicolon,
  kEnd,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;     // identifier spelling / string contents
  double number = 0.0;  // kNumber value
  bool is_integer = false;
  size_t pos = 0;  // byte offset in the input, for error messages
};

/// Tokenizes the dialect; fails on characters outside it.
class Lexer {
 public:
  explicit Lexer(const std::string& input) : input_(input) {}

  Result<std::vector<Token>> Run() {
    std::vector<Token> out;
    while (true) {
      SkipSpace();
      if (pos_ >= input_.size()) break;
      FEAT_ASSIGN_OR_RETURN(Token t, Next());
      out.push_back(std::move(t));
    }
    Token end;
    end.kind = TokenKind::kEnd;
    end.pos = input_.size();
    out.push_back(end);
    return out;
  }

 private:
  void SkipSpace() {
    while (pos_ < input_.size()) {
      if (std::isspace(static_cast<unsigned char>(input_[pos_]))) {
        ++pos_;
      } else if (input_[pos_] == '-' && pos_ + 1 < input_.size() &&
                 input_[pos_ + 1] == '-') {
        // SQL line comment: skip to end of line.
        while (pos_ < input_.size() && input_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  Status ErrorAt(size_t pos, const std::string& msg) const {
    return Status::InvalidArgument(
        StrFormat("SQL parse error at offset %zu: %s", pos, msg.c_str()));
  }

  Result<Token> Next() {
    const size_t start = pos_;
    const char c = input_[pos_];
    Token t;
    t.pos = start;
    switch (c) {
      case ',':
        ++pos_;
        t.kind = TokenKind::kComma;
        return t;
      case '(':
        ++pos_;
        t.kind = TokenKind::kLParen;
        return t;
      case ')':
        ++pos_;
        t.kind = TokenKind::kRParen;
        return t;
      case '*':
        ++pos_;
        t.kind = TokenKind::kStar;
        return t;
      case ';':
        ++pos_;
        t.kind = TokenKind::kSemicolon;
        return t;
      case '=':
        ++pos_;
        t.kind = TokenKind::kEquals;
        return t;
      case '>':
        ++pos_;
        if (pos_ < input_.size() && input_[pos_] == '=') {
          ++pos_;
          t.kind = TokenKind::kGreaterEquals;
        } else {
          t.kind = TokenKind::kGreater;
        }
        return t;
      case '<':
        ++pos_;
        if (pos_ < input_.size() && input_[pos_] == '=') {
          ++pos_;
          t.kind = TokenKind::kLessEquals;
        } else if (pos_ < input_.size() && input_[pos_] == '>') {
          ++pos_;
          t.kind = TokenKind::kNotEquals;
        } else {
          t.kind = TokenKind::kLess;
        }
        return t;
      case '!':
        if (pos_ + 1 < input_.size() && input_[pos_ + 1] == '=') {
          pos_ += 2;
          t.kind = TokenKind::kNotEquals;
          return t;
        }
        return ErrorAt(start, "unexpected '!'");
      case '\'':
        return LexString();
      default:
        break;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '-' || c == '+' ||
        c == '.') {
      return LexNumber();
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      return LexIdent();
    }
    return ErrorAt(start, StrFormat("unexpected character '%c'", c));
  }

  Result<Token> LexString() {
    Token t;
    t.pos = pos_;
    t.kind = TokenKind::kString;
    ++pos_;  // opening quote
    std::string value;
    while (pos_ < input_.size()) {
      const char c = input_[pos_];
      if (c == '\'') {
        if (pos_ + 1 < input_.size() && input_[pos_ + 1] == '\'') {
          value += '\'';  // '' escape
          pos_ += 2;
          continue;
        }
        ++pos_;  // closing quote
        t.text = std::move(value);
        return t;
      }
      value += c;
      ++pos_;
    }
    return ErrorAt(t.pos, "unterminated string literal");
  }

  Result<Token> LexNumber() {
    Token t;
    t.pos = pos_;
    t.kind = TokenKind::kNumber;
    const size_t start = pos_;
    if (input_[pos_] == '-' || input_[pos_] == '+') ++pos_;
    bool saw_dot = false, saw_exp = false;
    while (pos_ < input_.size()) {
      const char c = input_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' && !saw_dot && !saw_exp) {
        saw_dot = true;
        ++pos_;
      } else if ((c == 'e' || c == 'E') && !saw_exp) {
        saw_exp = true;
        ++pos_;
        if (pos_ < input_.size() && (input_[pos_] == '-' || input_[pos_] == '+')) {
          ++pos_;
        }
      } else {
        break;
      }
    }
    const std::string spelled = input_.substr(start, pos_ - start);
    double v = 0.0;
    if (!ParseDouble(spelled, &v)) {
      return ErrorAt(start, "malformed number '" + spelled + "'");
    }
    t.number = v;
    t.is_integer = !saw_dot && !saw_exp;
    return t;
  }

  Result<Token> LexIdent() {
    Token t;
    t.pos = pos_;
    t.kind = TokenKind::kIdent;
    const size_t start = pos_;
    while (pos_ < input_.size() &&
           (std::isalnum(static_cast<unsigned char>(input_[pos_])) ||
            input_[pos_] == '_')) {
      ++pos_;
    }
    t.text = input_.substr(start, pos_ - start);
    return t;
  }

  const std::string& input_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  /// Parses one statement starting at the cursor; leaves the cursor after
  /// the statement's optional ';'.
  Result<ParsedAggQuery> ParseStatement() {
    ParsedAggQuery out;
    FEAT_RETURN_NOT_OK(ExpectKeyword("SELECT"));
    FEAT_RETURN_NOT_OK(ParseSelectList(&out));
    FEAT_RETURN_NOT_OK(ExpectKeyword("FROM"));
    FEAT_ASSIGN_OR_RETURN(out.relation, ExpectIdent("relation name"));
    if (PeekKeyword("WHERE")) {
      Advance();
      FEAT_RETURN_NOT_OK(ParseWhere(&out.query));
    }
    FEAT_RETURN_NOT_OK(ExpectKeyword("GROUP"));
    FEAT_RETURN_NOT_OK(ExpectKeyword("BY"));
    FEAT_RETURN_NOT_OK(ParseGroupBy(&out));
    if (Peek().kind == TokenKind::kSemicolon) Advance();
    return out;
  }

  bool AtEnd() const { return Peek().kind == TokenKind::kEnd; }

  /// Skips stray ';' tokens between statements.
  void SkipSemicolons() {
    while (Peek().kind == TokenKind::kSemicolon) Advance();
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    const size_t i = std::min(cursor_ + ahead, tokens_.size() - 1);
    return tokens_[i];
  }
  const Token& Advance() { return tokens_[std::min(cursor_++, tokens_.size() - 1)]; }

  static bool KeywordMatches(const Token& t, const char* kw) {
    return t.kind == TokenKind::kIdent && StrLower(t.text) == StrLower(kw);
  }

  bool PeekKeyword(const char* kw, size_t ahead = 0) const {
    return KeywordMatches(Peek(ahead), kw);
  }

  Status ErrorAt(const Token& t, const std::string& msg) const {
    const std::string got =
        t.kind == TokenKind::kEnd ? "end of input" : "'" + Spelling(t) + "'";
    return Status::InvalidArgument(StrFormat("SQL parse error at offset %zu: %s, got %s",
                                             t.pos, msg.c_str(), got.c_str()));
  }

  static std::string Spelling(const Token& t) {
    switch (t.kind) {
      case TokenKind::kIdent:
      case TokenKind::kString:
        return t.text;
      case TokenKind::kNumber:
        return StrFormat("%g", t.number);
      case TokenKind::kComma:
        return ",";
      case TokenKind::kLParen:
        return "(";
      case TokenKind::kRParen:
        return ")";
      case TokenKind::kStar:
        return "*";
      case TokenKind::kEquals:
        return "=";
      case TokenKind::kGreaterEquals:
        return ">=";
      case TokenKind::kLessEquals:
        return "<=";
      case TokenKind::kGreater:
        return ">";
      case TokenKind::kLess:
        return "<";
      case TokenKind::kNotEquals:
        return "<>";
      case TokenKind::kSemicolon:
        return ";";
      case TokenKind::kEnd:
        return "";
    }
    return "";
  }

  Status ExpectKeyword(const char* kw) {
    if (!PeekKeyword(kw)) {
      return ErrorAt(Peek(), StrFormat("expected %s", kw));
    }
    Advance();
    return Status::OK();
  }

  Result<std::string> ExpectIdent(const char* what) {
    if (Peek().kind != TokenKind::kIdent) {
      return ErrorAt(Peek(), StrFormat("expected %s", what));
    }
    return Advance().text;
  }

  /// select_list := item (',' item)*; item := ident | AGG '(' ident ')'
  /// [AS ident]. Exactly one aggregate item is required.
  Status ParseSelectList(ParsedAggQuery* out) {
    bool saw_agg = false;
    std::vector<std::string> bare;
    while (true) {
      if (Peek().kind != TokenKind::kIdent) {
        return ErrorAt(Peek(), "expected column or aggregate in SELECT list");
      }
      if (Peek(1).kind == TokenKind::kLParen) {
        const Token& name = Peek();
        if (saw_agg) {
          return ErrorAt(name,
                         "the Def. 2 query class has exactly one aggregate item");
        }
        auto fn = ParseAggFunction(name.text);
        if (!fn.ok()) {
          return ErrorAt(name, "unknown aggregation function '" + name.text + "'");
        }
        out->query.agg = fn.value();
        Advance();  // name
        Advance();  // (
        if (Peek().kind == TokenKind::kStar) {
          // COUNT(*): attribute-less row counting (AggQuery::Validate
          // rejects the '*' form for every other aggregate).
          if (out->query.agg != AggFunction::kCount) {
            return ErrorAt(Peek(),
                           "'*' is only valid in COUNT(*); " + name.text +
                               " needs an attribute");
          }
          out->query.agg_attr.clear();
          Advance();
        } else {
          FEAT_ASSIGN_OR_RETURN(out->query.agg_attr,
                                ExpectIdent("aggregation attribute"));
        }
        if (Peek().kind != TokenKind::kRParen) {
          return ErrorAt(Peek(), "expected ')'");
        }
        Advance();
        if (PeekKeyword("AS")) {
          Advance();
          FEAT_ASSIGN_OR_RETURN(out->feature_alias, ExpectIdent("feature alias"));
        }
        saw_agg = true;
      } else {
        bare.push_back(Advance().text);
      }
      if (Peek().kind != TokenKind::kComma) break;
      Advance();
    }
    if (!saw_agg) {
      return ErrorAt(Peek(), "SELECT list lacks an aggregate item agg(attr)");
    }
    select_keys_ = std::move(bare);
    return Status::OK();
  }

  /// where := conjunct (AND conjunct)*
  Status ParseWhere(AggQuery* q) {
    while (true) {
      FEAT_RETURN_NOT_OK(ParseConjunct(q));
      if (!PeekKeyword("AND")) break;
      Advance();
    }
    return Status::OK();
  }

  Result<double> ExpectNumber(const char* what) {
    if (Peek().kind != TokenKind::kNumber) {
      return ErrorAt(Peek(), StrFormat("expected %s", what));
    }
    return Advance().number;
  }

  /// conjunct := TRUE | ident BETWEEN num AND num | ident ('='|'>='|'<=') lit
  Status ParseConjunct(AggQuery* q) {
    if (PeekKeyword("TRUE")) {
      Advance();  // no-op conjunct; contributes no predicate
      return Status::OK();
    }
    FEAT_ASSIGN_OR_RETURN(std::string attr, ExpectIdent("predicate attribute"));
    if (PeekKeyword("BETWEEN")) {
      Advance();
      FEAT_ASSIGN_OR_RETURN(double lo, ExpectNumber("BETWEEN lower bound"));
      FEAT_RETURN_NOT_OK(ExpectKeyword("AND"));
      FEAT_ASSIGN_OR_RETURN(double hi, ExpectNumber("BETWEEN upper bound"));
      if (lo > hi) {
        return Status::InvalidArgument(
            StrFormat("BETWEEN bounds inverted on %s: %g > %g", attr.c_str(), lo, hi));
      }
      q->predicates.push_back(Predicate::Range(attr, lo, hi));
      return Status::OK();
    }
    const Token& op = Peek();
    switch (op.kind) {
      case TokenKind::kEquals: {
        Advance();
        const Token& lit = Peek();
        Value v;
        if (lit.kind == TokenKind::kString) {
          v = Value::Str(lit.text);
        } else if (lit.kind == TokenKind::kNumber) {
          if (lit.is_integer &&
              !(lit.number >= -0x1p63 && lit.number < 0x1p63)) {
            return ErrorAt(lit, "integer literal out of int64 range");
          }
          v = lit.is_integer ? Value::Int(static_cast<int64_t>(std::llround(lit.number)))
                             : Value::Double(lit.number);
        } else if (KeywordMatches(lit, "NULL")) {
          return ErrorAt(lit,
                         "NULL comparisons are outside the Def. 2 query class");
        } else {
          return ErrorAt(lit, "expected literal after '='");
        }
        Advance();
        q->predicates.push_back(Predicate::Equals(attr, std::move(v)));
        return Status::OK();
      }
      case TokenKind::kGreaterEquals: {
        Advance();
        FEAT_ASSIGN_OR_RETURN(double lo, ExpectNumber("range lower bound"));
        q->predicates.push_back(Predicate::Range(attr, lo, std::nullopt));
        return Status::OK();
      }
      case TokenKind::kLessEquals: {
        Advance();
        FEAT_ASSIGN_OR_RETURN(double hi, ExpectNumber("range upper bound"));
        q->predicates.push_back(Predicate::Range(attr, std::nullopt, hi));
        return Status::OK();
      }
      case TokenKind::kGreater:
      case TokenKind::kLess:
        return ErrorAt(op,
                       "strict comparisons are outside the Def. 2 query class "
                       "(ranges are inclusive: use >=, <= or BETWEEN)");
      case TokenKind::kNotEquals:
        return ErrorAt(op, "'!=' is outside the Def. 2 query class");
      default:
        return ErrorAt(op, "expected a predicate operator");
    }
  }

  Status ParseGroupBy(ParsedAggQuery* out) {
    std::vector<std::string> keys;
    while (true) {
      FEAT_ASSIGN_OR_RETURN(std::string k, ExpectIdent("GROUP BY key"));
      keys.push_back(std::move(k));
      if (Peek().kind != TokenKind::kComma) break;
      Advance();
    }
    // SQL validity: non-aggregated SELECT columns and GROUP BY keys must
    // agree (order-insensitively; GROUP BY order is canonical).
    for (const std::string& s : select_keys_) {
      bool found = false;
      for (const std::string& k : keys) found |= (k == s);
      if (!found) {
        return Status::InvalidArgument("SELECT column '" + s +
                                       "' is missing from GROUP BY");
      }
    }
    for (const std::string& k : keys) {
      bool found = false;
      for (const std::string& s : select_keys_) found |= (k == s);
      if (!found) {
        return Status::InvalidArgument("GROUP BY key '" + k +
                                       "' is missing from the SELECT list");
      }
    }
    out->query.group_keys = std::move(keys);
    return Status::OK();
  }

  std::vector<Token> tokens_;
  size_t cursor_ = 0;
  std::vector<std::string> select_keys_;
};

}  // namespace

Result<ParsedAggQuery> ParseAggQuerySql(const std::string& sql) {
  FEAT_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lexer(sql).Run());
  Parser parser(std::move(tokens));
  FEAT_ASSIGN_OR_RETURN(ParsedAggQuery out, parser.ParseStatement());
  if (!parser.AtEnd()) {
    return Status::InvalidArgument(
        "trailing input after the query (use ParseAggQueryScript for scripts)");
  }
  return out;
}

Result<ParsedAggQuery> ParseAggQuerySql(const std::string& sql,
                                        const Table& relevant) {
  FEAT_ASSIGN_OR_RETURN(ParsedAggQuery out, ParseAggQuerySql(sql));
  FEAT_RETURN_NOT_OK(out.query.Validate(relevant));
  // Equality literals must match the column representation: string columns
  // compare dictionary strings, everything else compares numerically.
  for (const Predicate& p : out.query.predicates) {
    if (p.kind != Predicate::Kind::kEquals) continue;
    FEAT_ASSIGN_OR_RETURN(const Column* col, relevant.GetColumn(p.attr));
    const bool want_string = col->type() == DataType::kString;
    const bool is_string = p.equals_value.tag() == Value::Tag::kString;
    if (want_string != is_string) {
      return Status::InvalidArgument(StrFormat(
          "equality literal type mismatch on %s: column is %s", p.attr.c_str(),
          DataTypeToString(col->type())));
    }
  }
  return out;
}

Result<std::vector<ParsedAggQuery>> ParseAggQueryScript(const std::string& sql) {
  FEAT_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lexer(sql).Run());
  Parser parser(std::move(tokens));
  std::vector<ParsedAggQuery> out;
  parser.SkipSemicolons();
  while (!parser.AtEnd()) {
    FEAT_ASSIGN_OR_RETURN(ParsedAggQuery q, parser.ParseStatement());
    out.push_back(std::move(q));
    parser.SkipSemicolons();
  }
  return out;
}

}  // namespace featlib
