#include "behavior/parser.h"

#include <algorithm>
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
    Program p;
    while (!at(TokenKind::kEnd)) p.statements.push_back(parseStmt(true));
    return p;
  }

  ExprPtr parseSingleExpression() {
    ExprPtr e = parseExpr();
    expect(TokenKind::kEnd, "end of expression");
    return e;
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

  ExprPtr binary(BinaryOp op, ExprPtr lhs, const Extent& lhsExtent,
                 ExprPtr rhs) {
    reach(1 + std::max(lhsExtent.height, last_.height), true);
    return makeBinary(op, std::move(lhs), std::move(rhs));
  }

  StmtPtr parseStmt(bool allowDecl) {
    const StmtLevel level(*this);
    if (at(TokenKind::kKwVar)) {
      if (!allowDecl)
        throw ParseError(
            "'var' declarations are only allowed at the top level "
            "(state initialization has reset semantics)",
            cur().line, cur().column);
      take();
      Token name = expect(TokenKind::kIdent, "variable name");
      expect(TokenKind::kAssign, "'=' after variable name");
      ExprPtr init = parseExpr();
      expect(TokenKind::kSemicolon, "';' after declaration");
      return makeVarDecl(name.text, std::move(init));
    }
    if (at(TokenKind::kKwIf)) return parseIf();
    if (at(TokenKind::kIdent)) {
      Token name = take();
      expect(TokenKind::kAssign, "'=' in assignment");
      ExprPtr rhs = parseExpr();
      expect(TokenKind::kSemicolon, "';' after assignment");
      return makeAssign(name.text, std::move(rhs));
    }
    throw ParseError("expected statement, found " +
                         std::string(toString(cur().kind)),
                     cur().line, cur().column);
  }

  StmtPtr parseIf() {
    expect(TokenKind::kKwIf, "'if'");
    expect(TokenKind::kLParen, "'(' after 'if'");
    ExprPtr cond = parseExpr();
    expect(TokenKind::kRParen, "')' after condition");
    std::vector<StmtPtr> thenBody = parseBlock();
    std::vector<StmtPtr> elseBody;
    if (accept(TokenKind::kKwElse)) {
      if (at(TokenKind::kKwIf)) {
        elseBody.push_back(parseStmt(false));  // else-if chain
      } else {
        elseBody = parseBlock();
      }
    }
    return makeIf(std::move(cond), std::move(thenBody), std::move(elseBody));
  }

  std::vector<StmtPtr> parseBlock() {
    expect(TokenKind::kLBrace, "'{'");
    std::vector<StmtPtr> body;
    while (!at(TokenKind::kRBrace)) {
      if (at(TokenKind::kEnd))
        throw ParseError("unterminated block", cur().line, cur().column);
      body.push_back(parseStmt(false));
    }
    take();  // consume '}'
    return body;
  }

  ExprPtr parseExpr() { return parseOr(); }

  ExprPtr parseOr() {
    ExprPtr lhs = parseAnd();
    while (accept(TokenKind::kOrOr)) {
      const Extent l = last_;
      lhs = binary(BinaryOp::kOr, std::move(lhs), l, parseAnd());
    }
    return lhs;
  }

  ExprPtr parseAnd() {
    ExprPtr lhs = parseEquality();
    while (accept(TokenKind::kAndAnd)) {
      const Extent l = last_;
      lhs = binary(BinaryOp::kAnd, std::move(lhs), l, parseEquality());
    }
    return lhs;
  }

  ExprPtr parseEquality() {
    ExprPtr lhs = parseRel();
    for (;;) {
      const Extent l = last_;
      if (accept(TokenKind::kEq))
        lhs = binary(BinaryOp::kEq, std::move(lhs), l, parseRel());
      else if (accept(TokenKind::kNe))
        lhs = binary(BinaryOp::kNe, std::move(lhs), l, parseRel());
      else
        return lhs;
    }
  }

  ExprPtr parseRel() {
    ExprPtr lhs = parseAdd();
    for (;;) {
      const Extent l = last_;
      if (accept(TokenKind::kLt))
        lhs = binary(BinaryOp::kLt, std::move(lhs), l, parseAdd());
      else if (accept(TokenKind::kLe))
        lhs = binary(BinaryOp::kLe, std::move(lhs), l, parseAdd());
      else if (accept(TokenKind::kGt))
        lhs = binary(BinaryOp::kGt, std::move(lhs), l, parseAdd());
      else if (accept(TokenKind::kGe))
        lhs = binary(BinaryOp::kGe, std::move(lhs), l, parseAdd());
      else
        return lhs;
    }
  }

  ExprPtr parseAdd() {
    ExprPtr lhs = parseMul();
    for (;;) {
      const Extent l = last_;
      if (accept(TokenKind::kPlus))
        lhs = binary(BinaryOp::kAdd, std::move(lhs), l, parseMul());
      else if (accept(TokenKind::kMinus))
        lhs = binary(BinaryOp::kSub, std::move(lhs), l, parseMul());
      else
        return lhs;
    }
  }

  ExprPtr parseMul() {
    ExprPtr lhs = parseUnary();
    for (;;) {
      const Extent l = last_;
      if (accept(TokenKind::kStar))
        lhs = binary(BinaryOp::kMul, std::move(lhs), l, parseUnary());
      else if (accept(TokenKind::kSlash))
        lhs = binary(BinaryOp::kDiv, std::move(lhs), l, parseUnary());
      else if (accept(TokenKind::kPercent))
        lhs = binary(BinaryOp::kMod, std::move(lhs), l, parseUnary());
      else
        return lhs;
    }
  }

  ExprPtr parseUnary() {
    const bool bang = at(TokenKind::kBang);
    if (!bang && !at(TokenKind::kMinus)) return parsePrimary();
    ++pos_;
    const Recursion recursion(*this);
    ExprPtr operand = parseUnary();
    reach(last_.height + 1, true);
    return makeUnary(bang ? UnaryOp::kNot : UnaryOp::kNeg, std::move(operand));
  }

  ExprPtr parsePrimary() {
    if (at(TokenKind::kIntLit)) return leaf(makeIntLit(take().intValue));
    if (accept(TokenKind::kKwTrue)) return leaf(makeIntLit(1));
    if (accept(TokenKind::kKwFalse)) return leaf(makeIntLit(0));
    if (at(TokenKind::kIdent)) return leaf(makeVarRef(take().text));
    if (accept(TokenKind::kLParen)) {
      const Recursion recursion(*this);
      ExprPtr e = parseExpr();
      expect(TokenKind::kRParen, "')'");
      reach(last_.height + (last_.op ? 0 : 1), false);
      return e;
    }
    throw ParseError("expected expression, found " +
                         std::string(toString(cur().kind)),
                     cur().line, cur().column);
  }

  ExprPtr leaf(ExprPtr e) {
    reach(1, false);
    return e;
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  int stmtDepth_ = 0;  // statement levels enclosing the current position
  int recursion_ = 0;  // live Recursion guards
  Extent last_;        // the expression production that returned last
};

}  // namespace

Program parse(std::string_view source) {
  return Parser(lex(source)).parseProgram();
}

ExprPtr parseExpression(std::string_view source) {
  return Parser(lex(source)).parseSingleExpression();
}

}  // namespace eblocks::behavior
