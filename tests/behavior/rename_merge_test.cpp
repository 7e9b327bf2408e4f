// Variable renaming and program merging (Section 3.3).  Both are one pass
// now: codegen::mergePartitionProgram copies each member's nodes and maps
// every member slot to a merged one.  These tests drive it on small
// partitions and check the printed and executed result; Clone and Collect
// check the slot-form primitives it is built from.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "behavior/interpreter.h"
#include "behavior/parser.h"
#include "behavior/printer.h"
#include "blocks/catalog.h"
#include "codegen/merge_program.h"
#include "core/levels.h"

namespace eblocks::behavior {
namespace {

BlockTypePtr computeType(std::vector<std::string> inputs,
                         std::vector<std::string> outputs,
                         std::string behavior) {
  return std::make_shared<const BlockType>("t", BlockClass::kCompute,
                                           std::move(inputs),
                                           std::move(outputs),
                                           std::move(behavior));
}

/// Sensors feed every input of `types[0]`; types[k] feeds types[k + 1]
/// through input 0; the last type's output 0 drives an LED.  All the typed
/// blocks form one partition, merged in edge-counting mode.  Sensors get
/// the lowest block ids, so the typed blocks are numbered from
/// `types[0]->inputCount()` on.
codegen::MergedProgram mergeChain(const std::vector<BlockTypePtr>& types) {
  const auto& cat = blocks::defaultCatalog();
  Network net;  // empty instance names: addBlock numbers them
  std::vector<BlockId> sensors, chain;
  for (int p = 0; p < types.front()->inputCount(); ++p)
    sensors.push_back(net.addBlock("", cat.button()));
  for (const BlockTypePtr& type : types)
    chain.push_back(net.addBlock("", type));
  for (std::size_t p = 0; p < sensors.size(); ++p)
    net.connect(sensors[p], 0, chain.front(), static_cast<int>(p));
  for (std::size_t k = 0; k + 1 < chain.size(); ++k)
    net.connect(chain[k], 0, chain[k + 1], 0);
  net.connect(chain.back(), 0, net.addBlock("", cat.led()), 0);
  BitSet partition = net.emptySet();
  for (const BlockId b : chain) partition.set(b);
  return codegen::mergePartitionProgram(net, partition, computeLevels(net),
                                        CountingMode::kEdges);
}

TEST(Rename, RenamesRefsAssignsAndDecls) {
  const codegen::MergedProgram m = mergeChain(
      {computeType({"in"}, {"out"}, "var q = 0;\nq = q + in;\nout = q;")});
  EXPECT_EQ(toSource(m.program),
            "var w1_0 = 0;\n"
            "var ws1_0 = 0;\n"
            "var b1_q = 0;\n"
            "b1_q = b1_q + in0;\n"
            "w1_0 = b1_q;\n"
            "if (tick == 0) {\n"
            "  ws1_0 = w1_0;\n"
            "}\n"
            "out0 = w1_0;\n");
}

TEST(Rename, UntouchedNamesSurvive) {
  // `tick` is shared, not renamed: the merged program has one `tick` slot.
  const codegen::MergedProgram m =
      mergeChain({computeType({"a"}, {"out"}, "out = a && tick;")});
  EXPECT_NE(toSource(m.program).find("w1_0 = in0 && tick;\n"),
            std::string::npos);
  EXPECT_EQ(std::ranges::count(m.program.names, "tick"), 1);
}

TEST(Rename, RenameInsideNestedIf) {
  const codegen::MergedProgram m = mergeChain(
      {computeType({"a", "b"}, {"c"}, "if (a) { if (b) { c = a; } }")});
  EXPECT_NE(toSource(m.program).find("if (in0) {\n"
                                     "  if (in1) {\n"
                                     "    w2_0 = in0;\n"
                                     "  }\n"
                                     "}\n"),
            std::string::npos)
      << toSource(m.program);
}

TEST(Rename, NoChainedRenaming) {
  // The input `x` becomes in0 and the local `in0` becomes b1_in0; neither
  // is renamed a second time.
  const codegen::MergedProgram m = mergeChain(
      {computeType({"x"}, {"y"}, "var in0 = 1;\ny = x + in0;")});
  const std::string src = toSource(m.program);
  EXPECT_NE(src.find("var b1_in0 = 1;\n"), std::string::npos) << src;
  EXPECT_NE(src.find("w1_0 = in0 + b1_in0;\n"), std::string::npos) << src;
}

TEST(Merge, HoistsDeclsKeepsBodyOrder) {
  const codegen::MergedProgram m =
      mergeChain({computeType({"a"}, {"x"}, "var p1 = 1;\nx = a + p1;"),
                  computeType({"x"}, {"y"}, "var p2 = 2;\ny = x + p2;")});
  EXPECT_EQ(toSource(m.program),
            "var w1_0 = 0;\n"
            "var ws1_0 = 0;\n"
            "var w2_0 = 0;\n"
            "var ws2_0 = 0;\n"
            "var b1_p1 = 1;\n"
            "var b2_p2 = 2;\n"
            "w1_0 = in0 + b1_p1;\n"
            "if (tick == 0) {\n"
            "  ws1_0 = w1_0;\n"
            "}\n"
            "w2_0 = ws1_0 + b2_p2;\n"
            "if (tick == 0) {\n"
            "  ws2_0 = w2_0;\n"
            "}\n"
            "out0 = w2_0;\n");
}

TEST(Merge, DuplicateDeclThrows) {
  // Declared twice by one member, or declared where the merge already
  // declares the member's output wire: one merged variable either way.
  EXPECT_THROW(mergeChain({computeType({"a"}, {"out"},
                                       "var q = 1;\nvar q = 2;\nout = a;")}),
               std::invalid_argument);
  EXPECT_THROW(
      mergeChain({computeType({"a"}, {"out"}, "var out = 0;\nout = a;")}),
      std::invalid_argument);
}

TEST(Merge, MergedProgramExecutesLikeSequence) {
  // Two toggle blocks chained: t1 feeds t2 through a wire.  After the
  // merge, driving in0 must update both in one activation.
  const auto& cat = blocks::defaultCatalog();
  const codegen::MergedProgram m = mergeChain({cat.toggle(), cat.toggle()});
  std::vector<std::int64_t> vars(m.program.names.size(), 0);
  const auto var = [&](const char* name) -> std::int64_t& {
    return vars.at(static_cast<std::size_t>(findSlot(m.program, name)));
  };
  initializeState(m.program, vars);
  auto pulse = [&] {
    var("in0") = 1;
    execute(m.program, vars);
    var("in0") = 0;
    execute(m.program, vars);
    return var("out0");
  };
  // t1 toggles on every press; t2 toggles on every rising edge of t1's
  // output, i.e. every second press.
  EXPECT_EQ(pulse(), 1);
  EXPECT_EQ(pulse(), 1);
  EXPECT_EQ(pulse(), 0);
  EXPECT_EQ(pulse(), 0);
  EXPECT_EQ(pulse(), 1);
}

TEST(Clone, DeepCopyIsIndependent) {
  const Program p = parse("var q = 1;\nout = q;");
  ASSERT_EQ(p.names, (std::vector<std::string>{"q", "out"}));
  Program copy;
  copy.addName("w");
  copy.addName("z");
  const std::vector<Index> slotMap = {1, 0};  // q -> z, out -> w
  const Index base = appendCopy(copy, p, slotMap);
  for (const Index s : p.top) copy.top.push_back(s + base);
  EXPECT_EQ(toSource(p), "var q = 1;\nout = q;\n");
  EXPECT_EQ(toSource(copy), "var z = 1;\nw = z;\n");
}

TEST(Collect, DeclaredReferencedAssigned) {
  // One slot per distinct name, bound to what it denotes for the ports.
  const Program p = parse("var q = 0;\nq = q + a;\nif (b) { out = q; }");
  ASSERT_EQ(p.names, (std::vector<std::string>{"q", "a", "b", "out"}));
  const NameTable bound = bindNames(p, {"a", "b"}, {"out"});
  ASSERT_EQ(bound.size(), 4u);
  EXPECT_EQ(bound[0].kind, NameBinding::Kind::kLocal);
  EXPECT_EQ(bound[0].stateOrdinal, 0);
  EXPECT_EQ(bound[1].kind, NameBinding::Kind::kInput);
  EXPECT_EQ(bound[1].port, 0);
  EXPECT_EQ(bound[2].kind, NameBinding::Kind::kInput);
  EXPECT_EQ(bound[2].port, 1);
  EXPECT_EQ(bound[3].kind, NameBinding::Kind::kOutput);
  EXPECT_EQ(bound[3].port, 0);
}

}  // namespace
}  // namespace eblocks::behavior
