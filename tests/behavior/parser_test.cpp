#include "behavior/parser.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "behavior/printer.h"

namespace eblocks::behavior {
namespace {

const Node& at(const Program& p, Index i) {
  return p.nodes[static_cast<std::size_t>(i)];
}

/// The root of a parsed expression: its last node.
const Node& root(const Program& e) { return e.nodes.back(); }

const std::string& nameOf(const Program& p, const Node& n) {
  return p.names[static_cast<std::size_t>(n.slot)];
}

TEST(Parser, EmptyProgram) {
  const Program p = parse("");
  EXPECT_TRUE(p.top.empty());
  EXPECT_TRUE(p.nodes.empty());
  EXPECT_TRUE(p.names.empty());
}

TEST(Parser, VarDecl) {
  const Program p = parse("var q = 3;");
  ASSERT_EQ(p.top.size(), 1u);
  const Node& s = at(p, p.top[0]);
  EXPECT_EQ(s.kind, NodeKind::kVarDecl);
  EXPECT_EQ(nameOf(p, s), "q");
  EXPECT_EQ(at(p, s.lhs).value, 3);
}

TEST(Parser, Assignment) {
  const Program p = parse("out = a;");
  ASSERT_EQ(p.top.size(), 1u);
  const Node& s = at(p, p.top[0]);
  EXPECT_EQ(s.kind, NodeKind::kAssign);
  EXPECT_EQ(nameOf(p, s), "out");
  EXPECT_EQ(at(p, s.lhs).kind, NodeKind::kVarRef);
  EXPECT_EQ(nameOf(p, at(p, s.lhs)), "a");
}

TEST(Parser, IfElse) {
  const Program p = parse("if (a) { x = 1; } else { x = 0; }");
  ASSERT_EQ(p.top.size(), 1u);
  const Node& s = at(p, p.top[0]);
  EXPECT_EQ(s.kind, NodeKind::kIf);
  ASSERT_NE(s.then, kNone);
  EXPECT_EQ(at(p, s.then).next, kNone);  // one statement in each body
  ASSERT_NE(s.orElse, kNone);
  EXPECT_EQ(at(p, s.orElse).next, kNone);
  // Both bodies write the one slot of `x`.
  EXPECT_EQ(at(p, s.then).slot, at(p, s.orElse).slot);
  EXPECT_EQ(p.names, (std::vector<std::string>{"a", "x"}));
}

TEST(Parser, ElseIfChain) {
  const Program p =
      parse("if (a) { x = 1; } else if (b) { x = 2; } else { x = 3; }");
  const Node& s = at(p, p.top[0]);
  ASSERT_NE(s.orElse, kNone);
  const Node& elseIf = at(p, s.orElse);
  EXPECT_EQ(elseIf.next, kNone);
  EXPECT_EQ(elseIf.kind, NodeKind::kIf);
  ASSERT_NE(elseIf.orElse, kNone);
  EXPECT_EQ(at(p, elseIf.orElse).next, kNone);
}

TEST(Parser, PrecedenceMulOverAdd) {
  const Program e = parseExpression("1 + 2 * 3");
  EXPECT_EQ(root(e).bop, BinaryOp::kAdd);
  EXPECT_EQ(at(e, root(e).rhs).bop, BinaryOp::kMul);
}

TEST(Parser, PrecedenceComparisonOverLogic) {
  const Program e = parseExpression("a < 2 && b >= 3");
  EXPECT_EQ(root(e).bop, BinaryOp::kAnd);
  EXPECT_EQ(at(e, root(e).lhs).bop, BinaryOp::kLt);
  EXPECT_EQ(at(e, root(e).rhs).bop, BinaryOp::kGe);
}

TEST(Parser, PrecedenceAndOverOr) {
  const Program e = parseExpression("a || b && c");
  EXPECT_EQ(root(e).bop, BinaryOp::kOr);
  EXPECT_EQ(at(e, root(e).rhs).bop, BinaryOp::kAnd);
}

TEST(Parser, ParenthesesOverride) {
  const Program e = parseExpression("(1 + 2) * 3");
  EXPECT_EQ(root(e).bop, BinaryOp::kMul);
  EXPECT_EQ(at(e, root(e).lhs).bop, BinaryOp::kAdd);
}

TEST(Parser, UnaryChains) {
  const Program e = parseExpression("!!a");
  EXPECT_EQ(root(e).kind, NodeKind::kUnary);
  const Node& inner = at(e, root(e).lhs);
  EXPECT_EQ(inner.kind, NodeKind::kUnary);
  EXPECT_EQ(nameOf(e, at(e, inner.lhs)), "a");
}

TEST(Parser, NegativeLiteralIsUnaryMinus) {
  const Program e = parseExpression("-5");
  EXPECT_EQ(root(e).kind, NodeKind::kUnary);
  EXPECT_EQ(root(e).uop, UnaryOp::kNeg);
}

TEST(Parser, TrueFalseAreLiterals) {
  EXPECT_EQ(root(parseExpression("true")).value, 1);
  EXPECT_EQ(root(parseExpression("false")).value, 0);
}

TEST(Parser, LeftAssociativity) {
  const Program e = parseExpression("1 - 2 - 3");  // (1-2)-3
  EXPECT_EQ(root(e).bop, BinaryOp::kSub);
  EXPECT_EQ(at(e, root(e).lhs).bop, BinaryOp::kSub);
  EXPECT_EQ(at(e, root(e).rhs).value, 3);
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
