#include <gtest/gtest.h>

#include <map>

#include "behavior/interpreter.h"
#include "behavior/merge.h"
#include "behavior/parser.h"
#include "behavior/printer.h"
#include "behavior/rename.h"

namespace eblocks::behavior {
namespace {

/// renamedCopy driven by an explicit old -> new map.
Program renamed(const Program& p,
                const std::map<std::string, std::string>& renames) {
  return renamedCopy(p, [&](const std::string& n) {
    const auto it = renames.find(n);
    return it == renames.end() ? n : it->second;
  });
}

TEST(Rename, RenamesRefsAssignsAndDecls) {
  const Program p = renamed(parse("var q = 0;\nq = q + in;\nout = q;"),
                            {{"q", "b3_q"}, {"in", "w1_0"}, {"out", "w2_0"}});
  const std::string src = toSource(p);
  EXPECT_EQ(src,
            "var b3_q = 0;\n"
            "b3_q = b3_q + w1_0;\n"
            "w2_0 = b3_q;\n");
}

TEST(Rename, UntouchedNamesSurvive) {
  const Program p = renamed(parse("out = a && tick;"), {{"a", "x"}});
  EXPECT_EQ(toSource(p), "out = x && tick;\n");
}

TEST(Rename, RenameInsideNestedIf) {
  const Program p =
      renamed(parse("if (a) { if (b) { c = a; } }"), {{"a", "A"}, {"c", "C"}});
  EXPECT_EQ(toSource(p), "if (A) {\n  if (b) {\n    C = A;\n  }\n}\n");
}

TEST(Rename, NoChainedRenaming) {
  // a->b and b->c applied simultaneously must not turn a into c.
  const Program p = renamed(parse("x = a + b;"), {{"a", "b"}, {"b", "c"}});
  EXPECT_EQ(toSource(p), "x = b + c;\n");
}

TEST(Merge, HoistsDeclsKeepsBodyOrder) {
  std::vector<Program> parts;
  parts.push_back(parse("var p1 = 1;\nx = p1;"));
  parts.push_back(parse("var p2 = 2;\ny = x + p2;"));
  const Program merged = mergePrograms(std::move(parts));
  EXPECT_EQ(toSource(merged),
            "var p1 = 1;\n"
            "var p2 = 2;\n"
            "x = p1;\n"
            "y = x + p2;\n");
}

TEST(Merge, DuplicateDeclThrows) {
  std::vector<Program> parts;
  parts.push_back(parse("var q = 1;"));
  parts.push_back(parse("var q = 2;"));
  EXPECT_THROW(mergePrograms(std::move(parts)), std::invalid_argument);
}

TEST(Merge, MergedProgramExecutesLikeSequence) {
  // Two toggle blocks chained: t1 feeds t2 through wire w.  After renaming
  // and merging, driving `a` must update both in one activation.
  const Program toggle = parse(
      "var q = 0;\nvar prev = 0;\n"
      "if (a == 1 && prev == 0) { q = !q; }\nprev = a;\nout = q;\n");
  std::vector<Program> parts;
  parts.push_back(
      renamed(toggle, {{"q", "t1_q"}, {"prev", "t1_prev"}, {"out", "w"}}));
  parts.push_back(renamed(toggle, {{"q", "t2_q"}, {"prev", "t2_prev"},
                                   {"a", "w"}, {"out", "out"}}));
  const Program merged = mergePrograms(std::move(parts));

  Environment env;
  env.set("a", 0);
  env.set("w", 0);
  initializeState(merged, env);
  auto pulse = [&] {
    env.set("a", 1);
    execute(merged, env);
    env.set("a", 0);
    execute(merged, env);
    return env.get("out");
  };
  // t1 toggles on every press; t2 toggles on every rising edge of t1's
  // output, i.e. every second press.
  EXPECT_EQ(pulse(), 1);
  EXPECT_EQ(pulse(), 1);
  EXPECT_EQ(pulse(), 0);  // wait: t1 1->0->1; t2 saw edges at presses 1,3
  EXPECT_EQ(pulse(), 0);
  EXPECT_EQ(pulse(), 1);
}

TEST(Clone, DeepCopyIsIndependent) {
  const Program p = parse("var q = 1;\nout = q;");
  const Program copy = renamed(p, {{"q", "z"}});
  EXPECT_EQ(toSource(p), "var q = 1;\nout = q;\n");
  EXPECT_EQ(toSource(copy), "var z = 1;\nout = z;\n");
}

TEST(Collect, DeclaredReferencedAssigned) {
  const Program p = parse("var q = 0;\nq = q + a;\nif (b) { out = q; }");
  EXPECT_EQ(declaredVars(p), (std::vector<std::string>{"q"}));
  const auto refs = referencedNames(p);
  EXPECT_TRUE(refs.contains("a"));
  EXPECT_TRUE(refs.contains("b"));
  EXPECT_TRUE(refs.contains("q"));
  EXPECT_FALSE(refs.contains("out"));
  const auto assigns = assignedNames(p);
  EXPECT_TRUE(assigns.contains("q"));
  EXPECT_TRUE(assigns.contains("out"));
  EXPECT_FALSE(assigns.contains("a"));
}

}  // namespace
}  // namespace eblocks::behavior
