#include "codegen/merge_program.h"

#include <gtest/gtest.h>

#include "behavior/interpreter.h"
#include "behavior/printer.h"
#include "blocks/catalog.h"
#include "core/levels.h"
#include "designs/library.h"

namespace eblocks::codegen {
namespace {

using blocks::defaultCatalog;

struct Fixture {
  Network net;
  BitSet partition;
  std::vector<int> levels;

  MergedProgram merge(CountingMode mode = CountingMode::kEdges) const {
    return mergePartitionProgram(net, partition, levels, mode);
  }
};

/// One value per slot of a merged program, all 0, used by name.
struct Vars {
  explicit Vars(const behavior::Program& p)
      : program(&p), values(p.names.size(), 0) {}
  std::int64_t& operator[](const char* name) {
    return values.at(
        static_cast<std::size_t>(behavior::findSlot(*program, name)));
  }
  const behavior::Program* program;
  std::vector<std::int64_t> values;
};

/// s -> inv -> tog -> led, partition {inv, tog}.
Fixture chainFixture() {
  const auto& cat = defaultCatalog();
  Fixture f;
  const BlockId s = f.net.addBlock("s", cat.button());
  const BlockId inv = f.net.addBlock("inv", cat.inverter());
  const BlockId tog = f.net.addBlock("tog", cat.toggle());
  const BlockId led = f.net.addBlock("led", cat.led());
  f.net.connect(s, 0, inv, 0);
  f.net.connect(inv, 0, tog, 0);
  f.net.connect(tog, 0, led, 0);
  f.partition = f.net.emptySet();
  f.partition.set(inv);
  f.partition.set(tog);
  f.levels = computeLevels(f.net);
  return f;
}

TEST(MergeProgram, ChainPortShapes) {
  const Fixture f = chainFixture();
  const MergedProgram m = f.merge();
  EXPECT_EQ(m.inputCount(), 1);
  EXPECT_EQ(m.outputCount(), 1);
  ASSERT_EQ(m.members.size(), 2u);
  EXPECT_EQ(f.net.block(m.members[0]).name, "inv");  // level 1 before 2
  EXPECT_EQ(f.net.block(m.members[1]).name, "tog");
}

TEST(MergeProgram, ChainBehavesLikeOriginal) {
  const Fixture f = chainFixture();
  const MergedProgram m = f.merge();
  Vars vars(m.program);
  behavior::initializeState(m.program, vars.values);
  auto activate = [&](std::int64_t v) {
    vars["in0"] = v;
    behavior::execute(m.program, vars.values);
    return vars["out0"];
  };
  // Input low -> inverter high: toggle sees a rising edge at power-on once
  // the wire goes high.
  EXPECT_EQ(activate(0), 1);
  EXPECT_EQ(activate(1), 1);  // inverter low: no rising edge
  EXPECT_EQ(activate(0), 0);  // rising edge again: toggles off
}

TEST(MergeProgram, StateVariablesGetMemberPrefix) {
  const Fixture f = chainFixture();
  const MergedProgram m = f.merge();
  const std::string src = behavior::toSource(m.program);
  const BlockId tog = *f.net.findBlock("tog");
  const std::string prefix = "b" + std::to_string(tog) + "_q";
  EXPECT_NE(src.find(prefix), std::string::npos) << src;
  // No raw port names of the member blocks survive.
  EXPECT_EQ(src.find("out = "), std::string::npos) << src;
}

TEST(MergeProgram, InternalWireCarriesSignal) {
  const Fixture f = chainFixture();
  const MergedProgram m = f.merge();
  const BlockId inv = *f.net.findBlock("inv");
  const std::string wire = "w" + std::to_string(inv) + "_0";
  const std::string src = behavior::toSource(m.program);
  EXPECT_NE(src.find("var " + wire + " = 0;"), std::string::npos) << src;
}

TEST(MergeProgram, TwoStateBlocksDontCollide) {
  // Two toggles in one partition both declare `q` and `prev`.
  const auto& cat = defaultCatalog();
  Network net;
  const BlockId s = net.addBlock("s", cat.button());
  const BlockId t1 = net.addBlock("t1", cat.toggle());
  const BlockId t2 = net.addBlock("t2", cat.toggle());
  const BlockId led = net.addBlock("led", cat.led());
  net.connect(s, 0, t1, 0);
  net.connect(t1, 0, t2, 0);
  net.connect(t2, 0, led, 0);
  BitSet p = net.emptySet();
  p.set(t1);
  p.set(t2);
  const MergedProgram m =
      mergePartitionProgram(net, p, computeLevels(net), CountingMode::kEdges);
  Vars vars(m.program);
  behavior::initializeState(m.program, vars.values);
  auto press = [&] {
    vars["in0"] = 1;
    behavior::execute(m.program, vars.values);
    vars["in0"] = 0;
    behavior::execute(m.program, vars.values);
    return vars["out0"];
  };
  EXPECT_EQ(press(), 1);
  EXPECT_EQ(press(), 1);
  EXPECT_EQ(press(), 0);
  EXPECT_EQ(press(), 0);
}

TEST(MergeProgram, EdgesModeGivesEachCrossingEdgeAPort) {
  // Figure 5 partition {2,3,4,5}: inputs are the edges 1->2 and 1->5 (same
  // sensor), so edges mode uses two ports, signals mode one.
  const Network net = designs::figure5();
  BitSet p = net.emptySet();
  for (int node : {2, 3, 4, 5}) p.set(static_cast<std::size_t>(node - 1));
  const auto levels = computeLevels(net);
  const MergedProgram edges =
      mergePartitionProgram(net, p, levels, CountingMode::kEdges);
  const MergedProgram signals =
      mergePartitionProgram(net, p, levels, CountingMode::kSignals);
  EXPECT_EQ(edges.inputCount(), 2);
  EXPECT_EQ(signals.inputCount(), 1);
  EXPECT_EQ(edges.outputCount(), 2);
  EXPECT_EQ(signals.outputCount(), 2);
  // In signals mode that single port serves both original connections.
  EXPECT_EQ(signals.inputEdges[0].size(), 2u);
}

TEST(MergeProgram, UndrivenMemberInputThrows) {
  const auto& cat = defaultCatalog();
  Network net;
  const BlockId g = net.addBlock("g", cat.and2());
  const BlockId s = net.addBlock("s", cat.button());
  net.connect(s, 0, g, 0);  // port 1 left undriven
  BitSet p = net.emptySet();
  p.set(g);
  // Add a second member so the partition is non-trivial.
  const BlockId inv = net.addBlock("inv", cat.inverter());
  net.connect(g, 0, inv, 0);
  p.set(inv);
  EXPECT_THROW(
      mergePartitionProgram(net, p, computeLevels(net), CountingMode::kEdges),
      CodegenError);
}

TEST(MergeProgram, UnparsableMemberBehaviorNamesTheBlock) {
  // s -> inv -> broken -> led with {inv, broken} merged: the member's
  // shared program fails to parse, and the error says which block.
  const auto& cat = defaultCatalog();
  Network net;
  const BlockId s = net.addBlock("s", cat.button());
  const BlockId inv = net.addBlock("inv", cat.inverter());
  const BlockId broken = net.addBlock(
      "broken", std::make_shared<const BlockType>(
                    "broken_type", BlockClass::kCompute,
                    std::vector<std::string>{"a"},
                    std::vector<std::string>{"out"}, "out = a +;\n"));
  const BlockId led = net.addBlock("led", cat.led());
  net.connect(s, 0, inv, 0);
  net.connect(inv, 0, broken, 0);
  net.connect(broken, 0, led, 0);
  BitSet p = net.emptySet();
  p.set(inv);
  p.set(broken);
  try {
    mergePartitionProgram(net, p, computeLevels(net), CountingMode::kEdges);
    FAIL() << "expected CodegenError";
  } catch (const CodegenError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("behavior of 'broken'"), std::string::npos) << what;
    EXPECT_NE(what.find("parse error at 1:10"), std::string::npos) << what;
  }
}

TEST(MergeProgram, TickIsSharedNotRenamed) {
  const auto& cat = defaultCatalog();
  Network net;
  const BlockId s = net.addBlock("s", cat.button());
  const BlockId d = net.addBlock("d", cat.delay(2));
  const BlockId pr = net.addBlock("pr", cat.prolonger(2));
  const BlockId led = net.addBlock("led", cat.led());
  net.connect(s, 0, d, 0);
  net.connect(d, 0, pr, 0);
  net.connect(pr, 0, led, 0);
  BitSet p = net.emptySet();
  p.set(d);
  p.set(pr);
  const MergedProgram m =
      mergePartitionProgram(net, p, computeLevels(net), CountingMode::kEdges);
  const std::string src = behavior::toSource(m.program);
  EXPECT_NE(src.find("tick == 1"), std::string::npos);
  EXPECT_EQ(src.find("_tick"), std::string::npos);
}

TEST(MergeProgram, OutputEdgeMapsCoverAllBoundaryConnections) {
  const Network net = designs::figure5();
  BitSet p = net.emptySet();
  for (int node : {6, 8, 9}) p.set(static_cast<std::size_t>(node - 1));
  const MergedProgram m = mergePartitionProgram(
      net, p, computeLevels(net), CountingMode::kEdges);
  // {6,8,9}: inputs 5->6 and 7->8; outputs 8->11 and 9->12.
  EXPECT_EQ(m.inputCount(), 2);
  EXPECT_EQ(m.outputCount(), 2);
  int boundaryOut = 0;
  for (const auto& edges : m.outputEdges)
    boundaryOut += static_cast<int>(edges.size());
  EXPECT_EQ(boundaryOut, 2);
}

}  // namespace
}  // namespace eblocks::codegen
