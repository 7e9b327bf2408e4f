#include "behavior/parser.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "behavior/printer.h"

namespace eblocks::behavior {
namespace {

TEST(Parser, EmptyProgram) {
  EXPECT_TRUE(parse("").statements.empty());
}

TEST(Parser, VarDecl) {
  const Program p = parse("var q = 3;");
  ASSERT_EQ(p.statements.size(), 1u);
  EXPECT_EQ(p.statements[0]->kind, StmtKind::kVarDecl);
  EXPECT_EQ(p.statements[0]->name, "q");
  EXPECT_EQ(p.statements[0]->expr->intValue, 3);
}

TEST(Parser, Assignment) {
  const Program p = parse("out = a;");
  ASSERT_EQ(p.statements.size(), 1u);
  EXPECT_EQ(p.statements[0]->kind, StmtKind::kAssign);
  EXPECT_EQ(p.statements[0]->name, "out");
  EXPECT_EQ(p.statements[0]->expr->kind, ExprKind::kVarRef);
}

TEST(Parser, IfElse) {
  const Program p = parse("if (a) { x = 1; } else { x = 0; }");
  ASSERT_EQ(p.statements.size(), 1u);
  const Stmt& s = *p.statements[0];
  EXPECT_EQ(s.kind, StmtKind::kIf);
  EXPECT_EQ(s.thenBody.size(), 1u);
  EXPECT_EQ(s.elseBody.size(), 1u);
}

TEST(Parser, ElseIfChain) {
  const Program p =
      parse("if (a) { x = 1; } else if (b) { x = 2; } else { x = 3; }");
  const Stmt& s = *p.statements[0];
  ASSERT_EQ(s.elseBody.size(), 1u);
  EXPECT_EQ(s.elseBody[0]->kind, StmtKind::kIf);
  EXPECT_EQ(s.elseBody[0]->elseBody.size(), 1u);
}

TEST(Parser, PrecedenceMulOverAdd) {
  const ExprPtr e = parseExpression("1 + 2 * 3");
  EXPECT_EQ(e->bop, BinaryOp::kAdd);
  EXPECT_EQ(e->rhs->bop, BinaryOp::kMul);
}

TEST(Parser, PrecedenceComparisonOverLogic) {
  const ExprPtr e = parseExpression("a < 2 && b >= 3");
  EXPECT_EQ(e->bop, BinaryOp::kAnd);
  EXPECT_EQ(e->lhs->bop, BinaryOp::kLt);
  EXPECT_EQ(e->rhs->bop, BinaryOp::kGe);
}

TEST(Parser, PrecedenceAndOverOr) {
  const ExprPtr e = parseExpression("a || b && c");
  EXPECT_EQ(e->bop, BinaryOp::kOr);
  EXPECT_EQ(e->rhs->bop, BinaryOp::kAnd);
}

TEST(Parser, ParenthesesOverride) {
  const ExprPtr e = parseExpression("(1 + 2) * 3");
  EXPECT_EQ(e->bop, BinaryOp::kMul);
  EXPECT_EQ(e->lhs->bop, BinaryOp::kAdd);
}

TEST(Parser, UnaryChains) {
  const ExprPtr e = parseExpression("!!a");
  EXPECT_EQ(e->kind, ExprKind::kUnary);
  EXPECT_EQ(e->lhs->kind, ExprKind::kUnary);
  EXPECT_EQ(e->lhs->lhs->name, "a");
}

TEST(Parser, NegativeLiteralIsUnaryMinus) {
  const ExprPtr e = parseExpression("-5");
  EXPECT_EQ(e->kind, ExprKind::kUnary);
  EXPECT_EQ(e->uop, UnaryOp::kNeg);
}

TEST(Parser, TrueFalseAreLiterals) {
  EXPECT_EQ(parseExpression("true")->intValue, 1);
  EXPECT_EQ(parseExpression("false")->intValue, 0);
}

TEST(Parser, LeftAssociativity) {
  const ExprPtr e = parseExpression("1 - 2 - 3");  // (1-2)-3
  EXPECT_EQ(e->bop, BinaryOp::kSub);
  EXPECT_EQ(e->lhs->bop, BinaryOp::kSub);
  EXPECT_EQ(e->rhs->intValue, 3);
}

TEST(Parser, MissingSemicolonFails) {
  EXPECT_THROW(parse("a = 1"), ParseError);
}

TEST(Parser, UnterminatedBlockFails) {
  EXPECT_THROW(parse("if (a) { x = 1;"), ParseError);
}

TEST(Parser, NestedVarDeclRejected) {
  EXPECT_THROW(parse("if (a) { var q = 1; }"), ParseError);
}

TEST(Parser, GarbageExpressionFails) {
  EXPECT_THROW(parse("x = * 2;"), ParseError);
  EXPECT_THROW(parse("x = ;"), ParseError);
}

TEST(Parser, ErrorCarriesPosition) {
  try {
    parse("x = 1;\ny = ;\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
  }
}

TEST(Parser, RoundTripThroughPrinter) {
  const char* src =
      "var q = 0;\n"
      "var prev = 0;\n"
      "if (a == 1 && prev == 0) { q = !q; }\n"
      "prev = a;\n"
      "out = q;\n";
  const Program p1 = parse(src);
  const std::string printed = toSource(p1);
  const Program p2 = parse(printed);
  EXPECT_EQ(printed, toSource(p2));  // printer is a fixed point
}

// --- nesting bound ----------------------------------------------------------

std::string repeat(std::string_view s, int n) {
  std::string out;
  for (int i = 0; i < n; ++i) out += s;
  return out;
}

// Each shape nests `n` levels on top of `out = a;` (2 levels: statement
// and operand), so n = kMaxNestingDepth - 2 is the deepest accepted.
struct Shape {
  const char* name;
  std::string (*text)(int n);
};

const Shape kShapes[] = {
    {"parentheses",
     [](int n) {
       return "out = " + repeat("(", n) + "a" + repeat(")", n) + ";";
     }},
    {"unary chain", [](int n) { return "out = " + repeat("!", n) + "a;"; }},
    {"left-associative chain",
     [](int n) { return "out = a" + repeat(" - a", n) + ";"; }},
    {"nested ifs",
     [](int n) {
       return repeat("if (a) {\n", n) + "out = a;" + repeat("}", n);
     }},
    {"else-if chain",
     [](int n) {
       return "if (a) { out = a; }" +
              repeat(" else if (a) { out = a; }", n - 1);
     }},
};

TEST(ParserDepth, TheBoundParsesAndOneMoreThrows) {
  for (const Shape& shape : kShapes) {
    SCOPED_TRACE(shape.name);
    EXPECT_NO_THROW(parse(shape.text(kMaxNestingDepth - 2)));
    try {
      parse(shape.text(kMaxNestingDepth - 1));
      ADD_FAILURE() << "expected ParseError";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("nesting deeper than 256"),
                std::string::npos)
          << e.what();
      EXPECT_GE(e.line(), 1);
      EXPECT_GT(e.column(), 0);
    }
  }
}

TEST(ParserDepth, ErrorPointsAtTheFirstTooDeepToken) {
  // 255 nested ifs, one per line: the statement inside the last one is
  // level 256, and its operand one too many.
  try {
    parse(kShapes[3].text(kMaxNestingDepth - 1));
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), kMaxNestingDepth);
    EXPECT_EQ(e.column(), 1);
  }
}

TEST(ParserDepth, ParenthesesAroundAnOperatorShareItsLevel) {
  // Redundant parentheses around an operator add no level, so what the
  // printer emits is never deeper than what it was given.
  const int n = kMaxNestingDepth - 2;
  std::string chain = "a";
  for (int i = 0; i < n; ++i) chain = "(" + chain + " - a)";
  EXPECT_NO_THROW(parse("out = " + chain + ";"));
  EXPECT_THROW(parse("out = (" + chain + ");"), ParseError);  // a group
}

TEST(ParserDepth, ProgramsAtTheBoundRoundTripThroughThePrinter) {
  for (const Shape& shape : kShapes) {
    SCOPED_TRACE(shape.name);
    const std::string printed =
        toSource(parse(shape.text(kMaxNestingDepth - 2)));
    EXPECT_EQ(toSource(parse(printed)), printed);
  }
}

TEST(ParserDepth, HostileNestingIsAnErrorNotACrash) {
  // The shapes of two 20 KB / 400 KB network frames that used to overflow
  // the stack: parentheses 10,000 deep and a 100,000-term sum.
  EXPECT_THROW(parse(kShapes[0].text(10'000)), ParseError);
  EXPECT_THROW(parse("out = a" + repeat(" + a", 100'000) + ";"), ParseError);
  EXPECT_THROW(parse(kShapes[1].text(100'000)), ParseError);
  EXPECT_THROW(parse(repeat("if (a) {", 10'000)), ParseError);
  EXPECT_THROW(parseExpression(repeat("(", 100'000)), ParseError);
}

}  // namespace
}  // namespace eblocks::behavior
