#include "sim/batch_simulator.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "blocks/catalog.h"
#include "designs/library.h"
#include "randgen/generator.h"
#include "sim/simulator.h"

namespace eblocks::sim {
namespace {

using blocks::defaultCatalog;

/// Advances `net` through `scripts` in the batch simulator and through one
/// scalar simulator per script, asserting identical output values at every
/// step boundary in every lane (idle lanes included: once a short script
/// ends, its lane must hold its final values).
void expectLockstep(const Network& net, const std::vector<Stimulus>& scripts) {
  BatchSimulator batch(net);
  const BatchScript packed = packStimuli(net, scripts);
  batch.reset(packed.allLanes());

  std::vector<Simulator> scalars;
  scalars.reserve(scripts.size());
  for (std::size_t i = 0; i < scripts.size(); ++i) scalars.emplace_back(net);

  std::vector<BlockId> outputs;
  for (BlockId b = 0; b < net.blockCount(); ++b)
    if (net.isOutput(b)) outputs.push_back(b);

  for (std::size_t i = 0; i < packed.steps.size(); ++i) {
    batch.apply(packed.steps[i]);
    for (int lane = 0; lane < packed.laneCount; ++lane) {
      const auto& steps = scripts[static_cast<std::size_t>(lane)].steps();
      if (i < steps.size()) {
        const StimulusStep& s = steps[i];
        Simulator& sim = scalars[static_cast<std::size_t>(lane)];
        if (s.kind == StimulusStep::Kind::kSetSensor) {
          sim.setSensor(s.sensor, s.value);
          sim.settle();
        } else {
          sim.tick();
        }
      }
      for (const BlockId o : outputs)
        ASSERT_EQ(batch.outputValue(o, lane),
                  scalars[static_cast<std::size_t>(lane)].outputValue(o))
            << "step " << i << " lane " << lane << " output '"
            << net.block(o).name << "' of " << net.name();
    }
  }
  EXPECT_EQ(batch.faultedLanes(), 0u);
}

TEST(BatchSimulator, Figure5Lockstep) {
  const Network net = designs::figure5();
  expectLockstep(net, randomStimulusCorpus(net, kLanes, 30, 77));
}

TEST(BatchSimulator, GarageLockstep) {
  const Network net = designs::garageOpenAtNight();
  expectLockstep(net, randomStimulusCorpus(net, kLanes, 30, 78));
}

TEST(BatchSimulator, Table1DesignsLockstep) {
  for (const designs::DesignEntry& entry : designs::designLibrary()) {
    const Network& net = entry.network;
    expectLockstep(net, randomStimulusCorpus(net, 16, 20, 500));
  }
}

// Satellite: 25 randgen designs, batch vs scalar, every lane and every
// step boundary.
TEST(BatchSimulator, RandomDesignsLockstep) {
  randgen::GeneratorOptions options;
  options.innerBlocks = 8;
  options.seed = 7;
  const std::vector<Network> corpus = randgen::randomNetworkCorpus(25, options);
  ASSERT_EQ(corpus.size(), 25u);
  std::uint32_t seed = 1000;
  for (const Network& net : corpus)
    expectLockstep(net, randomStimulusCorpus(net, kLanes, 20, seed++));
}

TEST(BatchSimulator, UnevenScriptLengthsIdleCleanly) {
  const Network net = designs::figure5();
  std::vector<Stimulus> scripts;
  scripts.push_back(Stimulus{}.set("start_button", 1).tick(4).set("start_button", 0));
  scripts.push_back(Stimulus{}.set("start_button", 1));
  scripts.push_back(Stimulus{});  // never does anything
  expectLockstep(net, scripts);
}

TEST(BatchSimulator, SetSensorRejectsNonSensors) {
  const Network net = designs::figure5();
  BatchSimulator batch(net);
  const auto led = net.findBlock("green_led");
  ASSERT_TRUE(led.has_value());
  EXPECT_THROW(batch.setSensor(*led, kAllLanes, LaneVector::splat(1)),
               SimError);
  EXPECT_THROW(batch.setSensor("nonexistent", kAllLanes, 1), SimError);
}

TEST(BatchSimulator, OutputValueRejectsNonOutputs) {
  const Network net = designs::figure5();
  BatchSimulator batch(net);
  const auto motion = net.findBlock("start_button");
  ASSERT_TRUE(motion.has_value());
  EXPECT_THROW(batch.outputValue(*motion, 0), SimError);
}

TEST(BatchSimulator, DivisionFaultsAreQuarantinedPerLane) {
  // if (arm) { out = 2 / div; }  -- faults only in lanes where arm=1 while
  // div=0; other lanes keep running.
  const auto& cat = defaultCatalog();
  const auto divider = std::make_shared<BlockType>(
      "divider", BlockClass::kCompute,
      std::vector<std::string>{"arm", "div"}, std::vector<std::string>{"out"},
      "var s = 0;\nif (arm) { s = 2 / div; }\nout = s;");
  Network net;
  const BlockId arm = net.addBlock("arm", cat.button());
  const BlockId div = net.addBlock("div", cat.button());
  const BlockId d = net.addBlock("d", divider);
  const BlockId o = net.addBlock("o", cat.led());
  net.connect(arm, 0, d, 0);
  net.connect(div, 0, d, 1);
  net.connect(d, 0, o, 0);

  BatchSimulator batch(net);
  batch.reset(firstLanes(3));
  // lane 0: div=1 then arm=1 -> 2/1, fine.  lane 1: arm=1 with div=0 ->
  // fault.  lane 2: idle, fine.
  batch.setSensor(div, LaneMask{1} << 0, LaneVector::splat(1));
  batch.settle();
  EXPECT_EQ(batch.faultedLanes(), 0u);
  batch.setSensor(arm, firstLanes(2), LaneVector::splat(1));
  batch.settle();
  EXPECT_EQ(batch.faultedLanes(), LaneMask{1} << 1);
  EXPECT_NE(batch.faultMessage().find("division"), std::string::npos);
  // The healthy lane's result is still exact.
  EXPECT_EQ(batch.outputValue(o, 0), 2);
  EXPECT_EQ(batch.outputValue(o, 2), 0);

  // The scalar simulator throws on the faulting script -- which is why
  // batch_equivalence replays flagged lanes rather than trusting them.
  Simulator scalar(net);
  scalar.setSensor(arm, 1);
  EXPECT_THROW(scalar.settle(), SimError);
}

TEST(BatchSimulator, RejectsOpenPrograms) {
  // Reads a name that is never a port, builtin, or assigned variable:
  // BlockType::program() rejects it, so both simulators throw at
  // construction, naming the block.
  const auto& cat = defaultCatalog();
  const auto open = std::make_shared<BlockType>(
      "open", BlockClass::kCompute, std::vector<std::string>{"a"},
      std::vector<std::string>{"out"}, "out = mystery;");
  Network net;
  const BlockId s = net.addBlock("s", cat.button());
  const BlockId g = net.addBlock("g", open);
  const BlockId o = net.addBlock("o", cat.led());
  net.connect(s, 0, g, 0);
  net.connect(g, 0, o, 0);
  try {
    BatchSimulator batch(net);
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("block 'g'"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(Simulator{net}, SimError);
}

TEST(BatchSimulator, PackStimuliValidates) {
  const Network net = designs::figure5();
  std::vector<Stimulus> tooMany(static_cast<std::size_t>(kLanes) + 1);
  EXPECT_THROW(packStimuli(net, tooMany), std::invalid_argument);
  std::vector<Stimulus> unknown;
  unknown.push_back(Stimulus{}.set("no_such_sensor", 1));
  EXPECT_THROW(packStimuli(net, unknown), std::invalid_argument);
}

TEST(BatchSimulator, PackStimuliGroupsWritesPerSensor) {
  const Network net = designs::figure5();
  std::vector<Stimulus> scripts;
  scripts.push_back(Stimulus{}.set("start_button", 1));
  scripts.push_back(Stimulus{}.set("start_button", 0));
  scripts.push_back(Stimulus{}.tick());
  const BatchScript packed = packStimuli(net, scripts);
  ASSERT_EQ(packed.steps.size(), 1u);
  ASSERT_EQ(packed.steps[0].writes.size(), 1u);
  EXPECT_EQ(packed.steps[0].writes[0].lanes, 0b011u);
  EXPECT_EQ(packed.steps[0].tickLanes, 0b100u);
  EXPECT_EQ(packed.activeAtStep[0], 0b111u);
  EXPECT_EQ(packed.allLanes(), 0b111u);
}

}  // namespace
}  // namespace eblocks::sim
