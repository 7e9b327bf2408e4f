#include "behavior/interpreter.h"

#include <gtest/gtest.h>

#include "behavior/parser.h"

namespace eblocks::behavior {
namespace {

std::int64_t evalExpr(const std::string& src, Environment env = {}) {
  const Program e = parseExpression(src);
  return evaluate(e, static_cast<Index>(e.nodes.size()) - 1, env);
}

TEST(Interpreter, Arithmetic) {
  EXPECT_EQ(evalExpr("1 + 2 * 3"), 7);
  EXPECT_EQ(evalExpr("(1 + 2) * 3"), 9);
  EXPECT_EQ(evalExpr("7 / 2"), 3);
  EXPECT_EQ(evalExpr("7 % 2"), 1);
  EXPECT_EQ(evalExpr("-4 + 1"), -3);
}

TEST(Interpreter, Comparisons) {
  EXPECT_EQ(evalExpr("1 < 2"), 1);
  EXPECT_EQ(evalExpr("2 <= 2"), 1);
  EXPECT_EQ(evalExpr("3 > 4"), 0);
  EXPECT_EQ(evalExpr("3 >= 4"), 0);
  EXPECT_EQ(evalExpr("5 == 5"), 1);
  EXPECT_EQ(evalExpr("5 != 5"), 0);
}

TEST(Interpreter, LogicNormalizesToBool) {
  EXPECT_EQ(evalExpr("2 && 3"), 1);
  EXPECT_EQ(evalExpr("0 || 7"), 1);
  EXPECT_EQ(evalExpr("!5"), 0);
  EXPECT_EQ(evalExpr("!0"), 1);
}

TEST(Interpreter, ShortCircuitPreventsDivByZero) {
  EXPECT_EQ(evalExpr("0 && (1 / 0)"), 0);
  EXPECT_EQ(evalExpr("1 || (1 / 0)"), 1);
}

TEST(Interpreter, DivisionByZeroThrows) {
  EXPECT_THROW(evalExpr("1 / 0"), EvalError);
  EXPECT_THROW(evalExpr("1 % 0"), EvalError);
}

TEST(Interpreter, UnboundVariableThrows) {
  EXPECT_THROW(evalExpr("nope"), EvalError);
}

TEST(Interpreter, VariableLookup) {
  Environment env;
  env.set("a", 5);
  EXPECT_EQ(evalExpr("a * a", env), 25);
}

TEST(Interpreter, ExecuteAssignsAndBranches) {
  Environment env;
  env.set("a", 1);
  const Program p = parse("if (a) { x = 10; } else { x = 20; }");
  execute(p, env);
  EXPECT_EQ(env.get("x"), 10);
  env.set("a", 0);
  execute(p, env);
  EXPECT_EQ(env.get("x"), 20);
}

TEST(Interpreter, InitializeStateRunsOnlyDecls) {
  Environment env;
  const Program p = parse("var q = 7;\nout = q + 1;");
  initializeState(p, env);
  EXPECT_EQ(env.get("q"), 7);
  EXPECT_FALSE(env.has("out"));
}

TEST(Interpreter, ExecuteSkipsDecls) {
  Environment env;
  const Program p = parse("var q = 7;\nq = q + 1;");
  initializeState(p, env);
  execute(p, env);
  execute(p, env);
  EXPECT_EQ(env.get("q"), 9);  // 7 + 1 + 1; decl did not reset it
}

TEST(Interpreter, ToggleBehaviorOverActivations) {
  Environment env;
  const Program p = parse(
      "var q = 0;\nvar prev = 0;\n"
      "if (a == 1 && prev == 0) { q = !q; }\nprev = a;\nout = q;\n");
  initializeState(p, env);
  auto activate = [&](std::int64_t a) {
    env.set("a", a);
    execute(p, env);
    return env.get("out");
  };
  EXPECT_EQ(activate(0), 0);
  EXPECT_EQ(activate(1), 1);  // rising edge
  EXPECT_EQ(activate(1), 1);  // held: no new edge
  EXPECT_EQ(activate(0), 1);
  EXPECT_EQ(activate(1), 0);  // second rising edge
}

TEST(Interpreter, DeclInitializersSeeEarlierDecls) {
  Environment env;
  const Program p = parse("var a = 2;\nvar b = a * 3;");
  initializeState(p, env);
  EXPECT_EQ(env.get("b"), 6);
}

TEST(Interpreter, NestedIfExecution) {
  Environment env;
  env.set("a", 1);
  env.set("b", 0);
  const Program p = parse(
      "if (a) { if (b) { r = 1; } else { r = 2; } } else { r = 3; }");
  execute(p, env);
  EXPECT_EQ(env.get("r"), 2);
}

}  // namespace
}  // namespace eblocks::behavior
