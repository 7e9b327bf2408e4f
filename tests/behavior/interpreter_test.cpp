#include "behavior/interpreter.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "behavior/parser.h"

namespace eblocks::behavior {
namespace {

/// Evaluates `src` with every name it reads set to `value` (0 if unset).
std::int64_t evalExpr(const std::string& src, std::int64_t value = 0) {
  const Program e = parseExpression(src);
  const std::vector<std::int64_t> vars(e.names.size(), value);
  return evaluate(e, static_cast<Index>(e.nodes.size()) - 1, vars);
}

/// One value per slot of a program, all 0, written and read by name.
class Vars {
 public:
  explicit Vars(const Program& p) : p_(&p), values_(p.names.size(), 0) {}
  std::int64_t& operator[](std::string_view name) {
    const Index s = findSlot(*p_, name);
    EXPECT_NE(s, kNone) << name;
    return values_.at(static_cast<std::size_t>(s));
  }
  std::span<std::int64_t> all() { return values_; }

 private:
  const Program* p_;
  std::vector<std::int64_t> values_;
};

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

TEST(Interpreter, DivisionOverflowThrows) {
  // INT64_MIN / -1 is the one quotient an int64 cannot hold; the batch
  // simulator faults it as "division overflow" too.
  const std::int64_t min = std::numeric_limits<std::int64_t>::min();
  const struct {
    const char* src;
    std::int64_t byOne;  // the same operation with d = 1
  } cases[] = {{"n / d", min}, {"n % d", 0}};
  for (const auto& [src, byOne] : cases) {
    const Program p = parseExpression(src);
    std::vector<std::int64_t> vars(p.names.size());
    vars[static_cast<std::size_t>(findSlot(p, "n"))] = min;
    vars[static_cast<std::size_t>(findSlot(p, "d"))] = -1;
    const Index root = static_cast<Index>(p.nodes.size()) - 1;
    try {
      evaluate(p, root, vars);
      ADD_FAILURE() << src << ": expected EvalError";
    } catch (const EvalError& e) {
      EXPECT_STREQ(e.what(), "division overflow") << src;
    }
    vars[static_cast<std::size_t>(findSlot(p, "d"))] = 1;
    EXPECT_EQ(evaluate(p, root, vars), byOne) << src;
  }
}

TEST(Interpreter, VariableLookup) {
  EXPECT_EQ(evalExpr("a * a", 5), 25);
}

TEST(Interpreter, UnwrittenNamesReadZero) {
  // Every slot starts at 0, so a name read before any write reads 0.
  EXPECT_EQ(evalExpr("nope + 1"), 1);
  const Program p = parse("x = y + 1;\ny = 5;");
  Vars vars(p);
  execute(p, vars.all());
  EXPECT_EQ(vars["x"], 1);
  execute(p, vars.all());
  EXPECT_EQ(vars["x"], 6);
}

TEST(Interpreter, FindSlot) {
  const Program p = parse("var q = 0;\nout = q + a;");
  EXPECT_EQ(findSlot(p, "q"), 0);
  EXPECT_EQ(findSlot(p, "out"), 1);
  EXPECT_EQ(findSlot(p, "a"), 2);
  EXPECT_EQ(findSlot(p, "tick"), kNone);
}

TEST(Interpreter, ExecuteAssignsAndBranches) {
  const Program p = parse("if (a) { x = 10; } else { x = 20; }");
  Vars vars(p);
  vars["a"] = 1;
  execute(p, vars.all());
  EXPECT_EQ(vars["x"], 10);
  vars["a"] = 0;
  execute(p, vars.all());
  EXPECT_EQ(vars["x"], 20);
}

TEST(Interpreter, InitializeStateRunsOnlyDecls) {
  const Program p = parse("var q = 7;\nout = q + 1;");
  Vars vars(p);
  initializeState(p, vars.all());
  EXPECT_EQ(vars["q"], 7);
  EXPECT_EQ(vars["out"], 0);  // the assignment did not run
}

TEST(Interpreter, ExecuteSkipsDecls) {
  const Program p = parse("var q = 7;\nq = q + 1;");
  Vars vars(p);
  initializeState(p, vars.all());
  execute(p, vars.all());
  execute(p, vars.all());
  EXPECT_EQ(vars["q"], 9);  // 7 + 1 + 1; decl did not reset it
}

TEST(Interpreter, ToggleBehaviorOverActivations) {
  const Program p = parse(
      "var q = 0;\nvar prev = 0;\n"
      "if (a == 1 && prev == 0) { q = !q; }\nprev = a;\nout = q;\n");
  Vars vars(p);
  initializeState(p, vars.all());
  auto activate = [&](std::int64_t a) {
    vars["a"] = a;
    execute(p, vars.all());
    return vars["out"];
  };
  EXPECT_EQ(activate(0), 0);
  EXPECT_EQ(activate(1), 1);  // rising edge
  EXPECT_EQ(activate(1), 1);  // held: no new edge
  EXPECT_EQ(activate(0), 1);
  EXPECT_EQ(activate(1), 0);  // second rising edge
}

TEST(Interpreter, DeclInitializersSeeEarlierDecls) {
  const Program p = parse("var a = 2;\nvar b = a * 3;");
  Vars vars(p);
  initializeState(p, vars.all());
  EXPECT_EQ(vars["b"], 6);
}

TEST(Interpreter, NestedIfExecution) {
  const Program p = parse(
      "if (a) { if (b) { r = 1; } else { r = 2; } } else { r = 3; }");
  Vars vars(p);
  vars["a"] = 1;
  vars["b"] = 0;
  execute(p, vars.all());
  EXPECT_EQ(vars["r"], 2);
}

}  // namespace
}  // namespace eblocks::behavior
