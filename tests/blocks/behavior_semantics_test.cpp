// Semantic tests of every catalog behavior, executed directly through the
// interpreter with a tiny activation harness (mirroring the simulator's
// contract but without packets).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "behavior/interpreter.h"
#include "blocks/catalog.h"

namespace eblocks::blocks {
namespace {

/// Interpreter harness for a single block type: runs the type's shared
/// program on one slot-value array, through the type's slots.
class BlockHarness {
 public:
  explicit BlockHarness(const BlockTypePtr& type)
      : type_(type),
        program_(type->program()),
        slots_(type->slots()),
        vars_(program_.names.size(), 0) {
    behavior::initializeState(program_, vars_);
  }

  void in(const std::string& port, std::int64_t v) { var(port) = v; }

  std::int64_t eval() { return run(0); }
  std::int64_t tick() { return run(1); }

  std::int64_t out(int port = 0) {
    return vars_.at(static_cast<std::size_t>(
        slots_.outputs.at(static_cast<std::size_t>(port))));
  }
  std::int64_t& var(const std::string& name) {
    const behavior::Index s = behavior::findSlot(program_, name);
    EXPECT_NE(s, behavior::kNone) << name;
    return vars_.at(static_cast<std::size_t>(s));
  }

 private:
  std::int64_t run(std::int64_t tick) {
    vars_[static_cast<std::size_t>(slots_.tick)] = tick;
    behavior::execute(program_, vars_);
    return type_->outputCount() > 0 ? out() : 0;
  }

  BlockTypePtr type_;
  const behavior::Program& program_;
  const BlockType::Slots& slots_;
  std::vector<std::int64_t> vars_;
};

TEST(Semantics, SensorForwardsEnv) {
  BlockHarness h(defaultCatalog().button());
  h.in("env", 1);
  EXPECT_EQ(h.eval(), 1);
  h.in("env", 0);
  EXPECT_EQ(h.eval(), 0);
}

TEST(Semantics, OutputBlockRecordsDisplay) {
  BlockHarness h(defaultCatalog().led());
  h.in("a", 1);
  h.eval();
  EXPECT_EQ(h.var("display"), 1);
}

struct Gate2Case {
  const char* name;
  int expected[4];  // f(00), f(01), f(10), f(11)
};

// gtest puts the printed parameter into each listed test name. The default
// printer dumps the bytes of `name`, a pointer that moves from run to run,
// so print the gate name to keep the test names stable.
void PrintTo(const Gate2Case& c, std::ostream* os) { *os << c.name; }

class Gate2Semantics : public ::testing::TestWithParam<Gate2Case> {};

TEST_P(Gate2Semantics, TruthTable) {
  const Gate2Case& c = GetParam();
  BlockHarness h(defaultCatalog().get(c.name));
  int idx = 0;
  for (int a = 0; a <= 1; ++a)
    for (int b = 0; b <= 1; ++b) {
      h.in("a", a);
      h.in("b", b);
      EXPECT_EQ(h.eval(), c.expected[idx]) << c.name << "(" << a << "," << b
                                           << ")";
      ++idx;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, Gate2Semantics,
    ::testing::Values(Gate2Case{"and2", {0, 0, 0, 1}},
                      Gate2Case{"or2", {0, 1, 1, 1}},
                      Gate2Case{"xor2", {0, 1, 1, 0}},
                      Gate2Case{"nand2", {1, 1, 1, 0}},
                      Gate2Case{"nor2", {1, 0, 0, 0}}),
    [](const auto& paramInfo) { return paramInfo.param.name; });

TEST(Semantics, Logic2ArbitraryTable) {
  // tt = 0b1001 (XNOR): f(0,0)=1, f(0,1)=0, f(1,0)=0, f(1,1)=1.
  BlockHarness h(defaultCatalog().logic2(0b1001));
  const int want[2][2] = {{1, 0}, {0, 1}};
  for (int a = 0; a <= 1; ++a)
    for (int b = 0; b <= 1; ++b) {
      h.in("a", a);
      h.in("b", b);
      EXPECT_EQ(h.eval(), want[a][b]);
    }
}

TEST(Semantics, Logic3AllTablesSpotCheck) {
  // majority3: out = 1 iff at least two inputs are 1.
  BlockHarness h(defaultCatalog().majority3());
  for (int a = 0; a <= 1; ++a)
    for (int b = 0; b <= 1; ++b)
      for (int c = 0; c <= 1; ++c) {
        h.in("a", a);
        h.in("b", b);
        h.in("c", c);
        EXPECT_EQ(h.eval(), (a + b + c >= 2) ? 1 : 0);
      }
}

TEST(Semantics, NotAndYes) {
  BlockHarness inv(defaultCatalog().inverter());
  inv.in("a", 0);
  EXPECT_EQ(inv.eval(), 1);
  inv.in("a", 1);
  EXPECT_EQ(inv.eval(), 0);
  BlockHarness buf(defaultCatalog().buffer());
  buf.in("a", 1);
  EXPECT_EQ(buf.eval(), 1);
}

TEST(Semantics, ToggleFlipsOnRisingEdgeOnly) {
  BlockHarness h(defaultCatalog().toggle());
  h.in("a", 1);
  EXPECT_EQ(h.eval(), 1);
  EXPECT_EQ(h.eval(), 1);  // still high: no new edge
  h.in("a", 0);
  EXPECT_EQ(h.eval(), 1);
  h.in("a", 1);
  EXPECT_EQ(h.eval(), 0);
}

TEST(Semantics, TripLatchesForever) {
  BlockHarness h(defaultCatalog().trip());
  EXPECT_EQ(h.eval(), 0);
  h.in("a", 1);
  EXPECT_EQ(h.eval(), 1);
  h.in("a", 0);
  EXPECT_EQ(h.eval(), 1);  // latched
}

TEST(Semantics, TripResetClears) {
  BlockHarness h(defaultCatalog().tripReset());
  h.in("a", 1);
  EXPECT_EQ(h.eval(), 1);
  h.in("a", 0);
  h.in("r", 1);
  EXPECT_EQ(h.eval(), 0);
  h.in("r", 0);
  EXPECT_EQ(h.eval(), 0);
}

TEST(Semantics, PulseGeneratorShape) {
  BlockHarness h(defaultCatalog().pulseGen(3));
  h.in("a", 1);
  EXPECT_EQ(h.eval(), 1);  // pulse starts on rising edge
  h.in("a", 0);
  EXPECT_EQ(h.eval(), 1);
  EXPECT_EQ(h.tick(), 1);  // count 3 -> 2
  EXPECT_EQ(h.tick(), 1);  // 2 -> 1
  EXPECT_EQ(h.tick(), 0);  // 1 -> 0: pulse ends
  EXPECT_EQ(h.tick(), 0);
}

TEST(Semantics, PulseRetriggersOnNewEdge) {
  BlockHarness h(defaultCatalog().pulseGen(2));
  h.in("a", 1);
  h.eval();
  h.tick();
  h.in("a", 0);
  h.eval();
  h.in("a", 1);
  EXPECT_EQ(h.eval(), 1);  // restarted
  EXPECT_EQ(h.tick(), 1);
  EXPECT_EQ(h.tick(), 0);
}

TEST(Semantics, DelayFollowsAfterStablePeriod) {
  BlockHarness h(defaultCatalog().delay(3));
  h.in("a", 1);
  EXPECT_EQ(h.eval(), 0);  // change noticed; countdown starts
  EXPECT_EQ(h.tick(), 0);  // 2 left
  EXPECT_EQ(h.tick(), 0);  // 1 left
  EXPECT_EQ(h.tick(), 1);  // stable for 3 ticks: output follows
  h.in("a", 0);
  EXPECT_EQ(h.eval(), 1);
  EXPECT_EQ(h.tick(), 1);
  EXPECT_EQ(h.tick(), 1);
  EXPECT_EQ(h.tick(), 0);
}

TEST(Semantics, DelayRestartsOnFlap) {
  BlockHarness h(defaultCatalog().delay(2));
  h.in("a", 1);
  h.eval();
  h.tick();           // 1 left
  h.in("a", 0);
  h.eval();           // flap: countdown restarts targeting 0
  h.in("a", 1);
  h.eval();           // restart again targeting 1
  EXPECT_EQ(h.out(), 0);
  h.tick();
  EXPECT_EQ(h.tick(), 1);
}

TEST(Semantics, ZeroDelayActsCombinational) {
  BlockHarness h(defaultCatalog().delay(0));
  h.in("a", 1);
  EXPECT_EQ(h.eval(), 1);
  h.in("a", 0);
  EXPECT_EQ(h.eval(), 0);
}

TEST(Semantics, ProlongerHoldsAfterFall) {
  BlockHarness h(defaultCatalog().prolonger(2));
  h.in("a", 1);
  EXPECT_EQ(h.eval(), 1);
  h.in("a", 0);
  EXPECT_EQ(h.eval(), 1);  // held
  EXPECT_EQ(h.tick(), 1);  // 1 left
  EXPECT_EQ(h.tick(), 0);  // expired
}

TEST(Semantics, ProlongerRearmsWhileHigh) {
  BlockHarness h(defaultCatalog().prolonger(2));
  h.in("a", 1);
  h.eval();
  h.in("a", 0);
  h.tick();
  h.in("a", 1);
  h.eval();  // recharges the hold counter
  h.in("a", 0);
  EXPECT_EQ(h.eval(), 1);
  EXPECT_EQ(h.tick(), 1);
  EXPECT_EQ(h.tick(), 0);
}

TEST(Semantics, SplitterCopiesToAllPorts) {
  BlockHarness h(defaultCatalog().splitter(3));
  h.in("a", 1);
  h.eval();
  EXPECT_EQ(h.out(0), 1);
  EXPECT_EQ(h.out(1), 1);
  EXPECT_EQ(h.out(2), 1);
}

TEST(Semantics, CommunicationBlockIsIdentity) {
  BlockHarness h(defaultCatalog().rfLink());
  h.in("a", 1);
  EXPECT_EQ(h.eval(), 1);
  h.in("a", 0);
  EXPECT_EQ(h.eval(), 0);
}

}  // namespace
}  // namespace eblocks::blocks
