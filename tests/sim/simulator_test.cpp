#include "sim/simulator.h"

#include <gtest/gtest.h>

#include "blocks/catalog.h"
#include "designs/library.h"

namespace eblocks::sim {
namespace {

using blocks::defaultCatalog;

TEST(Simulator, GarageOpenAtNightScenario) {
  const Network net = designs::garageOpenAtNight();
  Simulator simulator(net);
  // Initially: door closed, daylight 0 -> is_dark = 1, but door = 0.
  EXPECT_EQ(simulator.outputValue("bedroom_led"), 0);
  simulator.apply("garage_door", 1);  // door opens at night
  EXPECT_EQ(simulator.outputValue("bedroom_led"), 1);
  simulator.apply("daylight", 1);     // sun rises
  EXPECT_EQ(simulator.outputValue("bedroom_led"), 0);
  simulator.apply("daylight", 0);     // night again, door still open
  EXPECT_EQ(simulator.outputValue("bedroom_led"), 1);
  simulator.apply("garage_door", 0);
  EXPECT_EQ(simulator.outputValue("bedroom_led"), 0);
}

TEST(Simulator, PowerUpWavePropagatesConstants) {
  // s -> not -> led: after reset the inverter already shows 1.
  const auto& cat = defaultCatalog();
  Network net;
  const BlockId s = net.addBlock("s", cat.button());
  const BlockId inv = net.addBlock("inv", cat.inverter());
  const BlockId led = net.addBlock("led", cat.led());
  net.connect(s, 0, inv, 0);
  net.connect(inv, 0, led, 0);
  Simulator simulator(net);
  EXPECT_EQ(simulator.outputValue("led"), 1);
}

TEST(Simulator, SetSensorRequiresSensor) {
  const auto& cat = defaultCatalog();
  Network net;
  net.addBlock("s", cat.button());
  net.addBlock("inv", cat.inverter());
  Simulator simulator(net);
  EXPECT_THROW(simulator.setSensor("inv", 1), SimError);
  EXPECT_THROW(simulator.setSensor("ghost", 1), SimError);
}

TEST(Simulator, OutputValueRequiresOutputBlock) {
  const auto& cat = defaultCatalog();
  Network net;
  net.addBlock("s", cat.button());
  Simulator simulator(net);
  EXPECT_THROW(simulator.outputValue("s"), SimError);
}

TEST(Simulator, TraceRecordsDisplayChanges) {
  const Network net = designs::garageOpenAtNight();
  Simulator simulator(net);
  simulator.apply("garage_door", 1);
  simulator.apply("garage_door", 0);
  const auto& trace = simulator.trace();
  ASSERT_GE(trace.size(), 2u);
  EXPECT_EQ(trace[trace.size() - 2].value, 1);
  EXPECT_EQ(trace[trace.size() - 1].value, 0);
  EXPECT_LT(trace[trace.size() - 2].time, trace[trace.size() - 1].time);
}

TEST(Simulator, ResetRestoresInitialState) {
  const Network net = designs::garageOpenAtNight();
  Simulator simulator(net);
  simulator.apply("garage_door", 1);
  EXPECT_EQ(simulator.outputValue("bedroom_led"), 1);
  simulator.reset();
  EXPECT_EQ(simulator.outputValue("bedroom_led"), 0);
  EXPECT_LE(simulator.now(), 2u);  // reset wave settles within ~2 hops
}

TEST(Simulator, TickDrivesSequentialBlocks) {
  const auto& cat = defaultCatalog();
  Network net;
  const BlockId s = net.addBlock("s", cat.button());
  const BlockId dly = net.addBlock("dly", cat.delay(2));
  const BlockId led = net.addBlock("led", cat.led());
  net.connect(s, 0, dly, 0);
  net.connect(dly, 0, led, 0);
  Simulator simulator(net);
  simulator.apply("s", 1);
  EXPECT_EQ(simulator.outputValue("led"), 0);
  simulator.tick();
  EXPECT_EQ(simulator.outputValue("led"), 0);
  simulator.tick();
  EXPECT_EQ(simulator.outputValue("led"), 1);
}

TEST(Simulator, ToggleChainDividesByTwo) {
  const auto& cat = defaultCatalog();
  Network net;
  const BlockId s = net.addBlock("s", cat.button());
  const BlockId t1 = net.addBlock("t1", cat.toggle());
  const BlockId t2 = net.addBlock("t2", cat.toggle());
  const BlockId led = net.addBlock("led", cat.led());
  net.connect(s, 0, t1, 0);
  net.connect(t1, 0, t2, 0);
  net.connect(t2, 0, led, 0);
  Simulator simulator(net);
  auto press = [&] {
    simulator.apply("s", 1);
    simulator.apply("s", 0);
    return simulator.outputValue("led");
  };
  EXPECT_EQ(press(), 1);
  EXPECT_EQ(press(), 1);
  EXPECT_EQ(press(), 0);
  EXPECT_EQ(press(), 0);
  EXPECT_EQ(press(), 1);
}

TEST(Simulator, EmitOnChangeOnlyDeliversDeltas) {
  const auto& cat = defaultCatalog();
  Network net;
  const BlockId s = net.addBlock("s", cat.button());
  const BlockId buf = net.addBlock("buf", cat.buffer());
  const BlockId led = net.addBlock("led", cat.led());
  net.connect(s, 0, buf, 0);
  net.connect(buf, 0, led, 0);
  Simulator simulator(net);
  const auto before = simulator.packetsDelivered();
  simulator.apply("s", 0);  // no change: sensor output stays 0
  EXPECT_EQ(simulator.packetsDelivered(), before);
  simulator.apply("s", 1);
  EXPECT_GT(simulator.packetsDelivered(), before);
}

TEST(Simulator, HopLatencyAccumulates) {
  const auto& cat = defaultCatalog();
  Network net;
  const BlockId s = net.addBlock("s", cat.button());
  BlockId prev = s;
  for (int i = 0; i < 5; ++i) {
    const BlockId buf = net.addBlock("buf" + std::to_string(i), cat.buffer());
    net.connect(prev, 0, buf, 0);
    prev = buf;
  }
  const BlockId led = net.addBlock("led", cat.led());
  net.connect(prev, 0, led, 0);
  SimOptions opts;
  opts.hopLatency = 10;
  Simulator simulator(net, opts);
  const auto t0 = simulator.now();
  simulator.apply("s", 1);
  // 6 hops from sensor to led at 10 time units each.
  EXPECT_EQ(simulator.now() - t0, 60u);
}

TEST(Simulator, EventBudgetGuardsOscillation) {
  // A cyclic network that oscillates forever: not -> not -> back.
  // (Built by hand: inner cycle of two inverters with no sensor.)
  const auto& cat = defaultCatalog();
  Network net;
  const BlockId a = net.addBlock("a", cat.inverter());
  const BlockId b = net.addBlock("b", cat.buffer());
  net.connect(a, 0, b, 0);
  net.connect(b, 0, a, 0);
  SimOptions opts;
  opts.maxEventsPerSettle = 1000;
  EXPECT_THROW(Simulator(net, opts), SimError);
}

TEST(Simulator, BenignBlockLevelCycleSettles) {
  // Two buffers in a cycle hold their value: stable, not oscillating.
  const auto& cat = defaultCatalog();
  Network net;
  const BlockId a = net.addBlock("a", cat.buffer());
  const BlockId b = net.addBlock("b", cat.buffer());
  net.connect(a, 0, b, 0);
  net.connect(b, 0, a, 0);
  Simulator simulator(net);  // settles immediately: all zeros
  EXPECT_EQ(simulator.probe(a, "out"), 0);
}

TEST(Simulator, ProbeUnboundVariableReadsZero) {
  const auto& cat = defaultCatalog();
  Network net;
  net.addBlock("s", cat.button());
  Simulator simulator(net);
  EXPECT_EQ(simulator.probe(0, "no_such_var"), 0);
}

TEST(Simulator, InvalidBehaviorReportsBlockName) {
  Network net;
  auto bad = std::make_shared<const BlockType>(
      "bad_type", BlockClass::kCompute, std::vector<std::string>{"a"},
      std::vector<std::string>{"out"}, "out = ;");
  net.addBlock("broken", bad);
  try {
    Simulator simulator(net);
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("broken"), std::string::npos);
  }
}

TEST(Simulator, OpenBehaviorReportsBlockName) {
  // A program that reads a name nothing binds fails at construction, not
  // at the first activation that reads it.
  const auto& cat = defaultCatalog();
  auto open = std::make_shared<const BlockType>(
      "open_type", BlockClass::kCompute, std::vector<std::string>{"a"},
      std::vector<std::string>{"out"}, "if (a) { out = mystery; }");
  Network net;
  const BlockId s = net.addBlock("s", cat.button());
  const BlockId g = net.addBlock("unbound", open);
  net.connect(s, 0, g, 0);
  try {
    Simulator simulator(net);
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'unbound'"), std::string::npos) << what;
    EXPECT_NE(what.find("'mystery'"), std::string::npos) << what;
  }
}

TEST(Simulator, UnwrittenNameReadsZero) {
  // `late` is assigned after it is read: the first activation reads 0.
  const auto& cat = defaultCatalog();
  auto late = std::make_shared<const BlockType>(
      "late", BlockClass::kCompute, std::vector<std::string>{"a"},
      std::vector<std::string>{"out"}, "out = late + a;\nlate = 10;");
  Network net;
  const BlockId s = net.addBlock("s", cat.button());
  const BlockId g = net.addBlock("g", late);
  const BlockId o = net.addBlock("o", cat.led());
  net.connect(s, 0, g, 0);
  net.connect(g, 0, o, 0);
  Simulator simulator(net);  // power-up activation: out = 0 + 0
  EXPECT_EQ(simulator.probe(g, "late"), 10);
  simulator.apply("s", 1);
  EXPECT_EQ(simulator.outputValue(o), 11);
}

TEST(Simulator, Figure5PodiumTimerRuns) {
  const Network net = designs::figure5();
  Simulator simulator(net);
  simulator.apply("start_button", 1);
  simulator.apply("start_button", 0);
  for (int i = 0; i < 12; ++i) simulator.tick();
  // After the warn and limit delays expire, the trip latch holds yellow on.
  EXPECT_EQ(simulator.outputValue("green_led"), 1);
}

}  // namespace
}  // namespace eblocks::sim
