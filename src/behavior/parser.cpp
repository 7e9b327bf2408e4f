#include "behavior/parser.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "behavior/lexer.h"

namespace eblocks::behavior {

ParseError::ParseError(const std::string& what, int line, int column)
    : std::runtime_error("parse error at " + std::to_string(line) + ":" +
                         std::to_string(column) + ": " + what),
      line_(line),
      column_(column) {}

namespace {

// Nesting bound (see kMaxNestingDepth).  Statement levels are known top
// down and kept in stmtDepth_; an expression's levels are only known once
// it is parsed, so every expression production reports its height, and
// whether it is an operator, in last_.  Parentheses that directly wrap an
// operator belong to that operator's level.  Parser recursion (statements,
// unary operators, parentheses) is capped separately at twice the bound,
// which only a program already deeper than the bound can reach: each
// recursion level is a counted level or a free parenthesis around one.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Program parseProgram() {
    while (!at(TokenKind::kEnd)) out_.top.push_back(parseStmt(true));
    return std::move(out_);
  }

  Program parseSingleExpression() {
    parseExpr();
    expect(TokenKind::kEnd, "end of expression");
    return std::move(out_);
  }

 private:
  const Token& cur() const { return tokens_[pos_]; }
  bool at(TokenKind k) const { return cur().kind == k; }

  Token take() { return tokens_[pos_++]; }

  Token expect(TokenKind k, const char* what) {
    if (!at(k))
      throw ParseError(std::string("expected ") + what + ", found " +
                           toString(cur().kind),
                       cur().line, cur().column);
    return take();
  }

  bool accept(TokenKind k) {
    if (!at(k)) return false;
    ++pos_;
    return true;
  }

  struct Extent {
    int height = 0;   // levels from this expression down to its deepest leaf
    bool op = false;  // an unparenthesized unary or binary operator
  };

  [[noreturn]] void tooDeep() const {
    throw ParseError("nesting deeper than " +
                         std::to_string(kMaxNestingDepth) + " levels",
                     cur().line, cur().column);
  }

  /// Records the just-parsed expression's extent and enforces the bound.
  void reach(int height, bool op) {
    if (stmtDepth_ + height > kMaxNestingDepth) tooDeep();
    last_ = Extent{height, op};
  }

  /// One level of parser recursion; see the class comment.
  class Recursion {
   public:
    explicit Recursion(Parser& p) : p_(p) {
      if (++p_.recursion_ > 2 * kMaxNestingDepth) p_.tooDeep();
    }
    ~Recursion() { --p_.recursion_; }
    Recursion(const Recursion&) = delete;
    Recursion& operator=(const Recursion&) = delete;

   private:
    Parser& p_;
  };

  /// A statement level: the statement node and everything below it.
  class StmtLevel {
   public:
    explicit StmtLevel(Parser& p) : p_(p), recursion_(p) {
      if (++p_.stmtDepth_ + 1 > kMaxNestingDepth) p_.tooDeep();
    }
    ~StmtLevel() { --p_.stmtDepth_; }
    StmtLevel(const StmtLevel&) = delete;
    StmtLevel& operator=(const StmtLevel&) = delete;

   private:
    Parser& p_;
    Recursion recursion_;
  };

  /// The slot of `name`, added on first sight.
  Index slot(const std::string& name) {
    const auto [it, fresh] =
        slots_.try_emplace(name, static_cast<Index>(out_.names.size()));
    if (fresh) out_.addName(name);
    return it->second;
  }

  Index binary(BinaryOp op, Index lhs, const Extent& lhsExtent, Index rhs) {
    reach(1 + std::max(lhsExtent.height, last_.height), true);
    return out_.add({.kind = NodeKind::kBinary, .bop = op, .lhs = lhs,
                     .rhs = rhs});
  }

  Index parseStmt(bool allowDecl) {
    const StmtLevel level(*this);
    if (at(TokenKind::kKwVar)) {
      if (!allowDecl)
        throw ParseError(
            "'var' declarations are only allowed at the top level "
            "(state initialization has reset semantics)",
            cur().line, cur().column);
      take();
      const Index target =
          slot(expect(TokenKind::kIdent, "variable name").text);
      expect(TokenKind::kAssign, "'=' after variable name");
      const Index init = parseExpr();
      expect(TokenKind::kSemicolon, "';' after declaration");
      return out_.add(
          {.kind = NodeKind::kVarDecl, .slot = target, .lhs = init});
    }
    if (at(TokenKind::kKwIf)) return parseIf();
    if (at(TokenKind::kIdent)) {
      const Index target = slot(take().text);
      expect(TokenKind::kAssign, "'=' in assignment");
      const Index value = parseExpr();
      expect(TokenKind::kSemicolon, "';' after assignment");
      return out_.add(
          {.kind = NodeKind::kAssign, .slot = target, .lhs = value});
    }
    throw ParseError("expected statement, found " +
                         std::string(toString(cur().kind)),
                     cur().line, cur().column);
  }

  Index parseIf() {
    expect(TokenKind::kKwIf, "'if'");
    expect(TokenKind::kLParen, "'(' after 'if'");
    const Index cond = parseExpr();
    expect(TokenKind::kRParen, "')' after condition");
    const Index then = parseBlock();
    Index orElse = kNone;
    if (accept(TokenKind::kKwElse))  // a block, or an else-if chain
      orElse = at(TokenKind::kKwIf) ? parseStmt(false) : parseBlock();
    return out_.add(
        {.kind = NodeKind::kIf, .lhs = cond, .then = then, .orElse = orElse});
  }

  /// Parses `{ stmt* }`; returns its first statement (kNone when empty),
  /// the others chained behind it through Node::next.
  Index parseBlock() {
    expect(TokenKind::kLBrace, "'{'");
    Index first = kNone, last = kNone;
    while (!at(TokenKind::kRBrace)) {
      if (at(TokenKind::kEnd))
        throw ParseError("unterminated block", cur().line, cur().column);
      const Index s = parseStmt(false);
      if (last == kNone)
        first = s;
      else
        out_.nodes[static_cast<std::size_t>(last)].next = s;
      last = s;
    }
    take();  // consume '}'
    return first;
  }

  Index parseExpr() { return parseOr(); }

  Index parseOr() {
    Index lhs = parseAnd();
    while (accept(TokenKind::kOrOr)) {
      const Extent l = last_;
      lhs = binary(BinaryOp::kOr, lhs, l, parseAnd());
    }
    return lhs;
  }

  Index parseAnd() {
    Index lhs = parseEquality();
    while (accept(TokenKind::kAndAnd)) {
      const Extent l = last_;
      lhs = binary(BinaryOp::kAnd, lhs, l, parseEquality());
    }
    return lhs;
  }

  Index parseEquality() {
    Index lhs = parseRel();
    for (;;) {
      const Extent l = last_;
      if (accept(TokenKind::kEq))
        lhs = binary(BinaryOp::kEq, lhs, l, parseRel());
      else if (accept(TokenKind::kNe))
        lhs = binary(BinaryOp::kNe, lhs, l, parseRel());
      else
        return lhs;
    }
  }

  Index parseRel() {
    Index lhs = parseAdd();
    for (;;) {
      const Extent l = last_;
      if (accept(TokenKind::kLt))
        lhs = binary(BinaryOp::kLt, lhs, l, parseAdd());
      else if (accept(TokenKind::kLe))
        lhs = binary(BinaryOp::kLe, lhs, l, parseAdd());
      else if (accept(TokenKind::kGt))
        lhs = binary(BinaryOp::kGt, lhs, l, parseAdd());
      else if (accept(TokenKind::kGe))
        lhs = binary(BinaryOp::kGe, lhs, l, parseAdd());
      else
        return lhs;
    }
  }

  Index parseAdd() {
    Index lhs = parseMul();
    for (;;) {
      const Extent l = last_;
      if (accept(TokenKind::kPlus))
        lhs = binary(BinaryOp::kAdd, lhs, l, parseMul());
      else if (accept(TokenKind::kMinus))
        lhs = binary(BinaryOp::kSub, lhs, l, parseMul());
      else
        return lhs;
    }
  }

  Index parseMul() {
    Index lhs = parseUnary();
    for (;;) {
      const Extent l = last_;
      if (accept(TokenKind::kStar))
        lhs = binary(BinaryOp::kMul, lhs, l, parseUnary());
      else if (accept(TokenKind::kSlash))
        lhs = binary(BinaryOp::kDiv, lhs, l, parseUnary());
      else if (accept(TokenKind::kPercent))
        lhs = binary(BinaryOp::kMod, lhs, l, parseUnary());
      else
        return lhs;
    }
  }

  Index parseUnary() {
    const bool bang = at(TokenKind::kBang);
    if (!bang && !at(TokenKind::kMinus)) return parsePrimary();
    ++pos_;
    const Recursion recursion(*this);
    const Index operand = parseUnary();
    reach(last_.height + 1, true);
    return out_.add({.kind = NodeKind::kUnary,
                     .uop = bang ? UnaryOp::kNot : UnaryOp::kNeg,
                     .lhs = operand});
  }

  Index parsePrimary() {
    if (at(TokenKind::kIntLit)) return literal(take().intValue);
    if (accept(TokenKind::kKwTrue)) return literal(1);
    if (accept(TokenKind::kKwFalse)) return literal(0);
    if (at(TokenKind::kIdent)) {
      const Index name = slot(take().text);
      reach(1, false);
      return out_.add({.kind = NodeKind::kVarRef, .slot = name});
    }
    if (accept(TokenKind::kLParen)) {
      const Recursion recursion(*this);
      const Index e = parseExpr();
      expect(TokenKind::kRParen, "')'");
      reach(last_.height + (last_.op ? 0 : 1), false);
      return e;
    }
    throw ParseError("expected expression, found " +
                         std::string(toString(cur().kind)),
                     cur().line, cur().column);
  }

  Index literal(std::int64_t v) {
    reach(1, false);
    return out_.add({.kind = NodeKind::kIntLit, .value = v});
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  int stmtDepth_ = 0;  // statement levels enclosing the current position
  int recursion_ = 0;  // live Recursion guards
  Extent last_;        // the expression production that returned last
  Program out_;
  std::unordered_map<std::string, Index> slots_;  // name -> slot of out_
};

}  // namespace

Program parse(std::string_view source) {
  return Parser(lex(source)).parseProgram();
}

Program parseExpression(std::string_view source) {
  return Parser(lex(source)).parseSingleExpression();
}

}  // namespace eblocks::behavior
