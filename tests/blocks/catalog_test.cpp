#include "blocks/catalog.h"

#include <gtest/gtest.h>

#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "behavior/parser.h"

namespace eblocks::blocks {
namespace {

TEST(Catalog, SensorsHaveNoInputsOneOutput) {
  const Catalog& cat = defaultCatalog();
  for (const char* name :
       {"button", "contact_switch", "light_sensor", "motion_sensor",
        "sound_sensor", "magnetic_sensor", "temperature_sensor"}) {
    const BlockTypePtr t = cat.get(name);
    EXPECT_EQ(t->blockClass(), BlockClass::kSensor) << name;
    EXPECT_EQ(t->inputCount(), 0) << name;
    EXPECT_EQ(t->outputCount(), 1) << name;
  }
}

TEST(Catalog, OutputsHaveOneInputNoOutputs) {
  const Catalog& cat = defaultCatalog();
  for (const char* name : {"led", "beeper", "relay"}) {
    const BlockTypePtr t = cat.get(name);
    EXPECT_EQ(t->blockClass(), BlockClass::kOutput) << name;
    EXPECT_EQ(t->inputCount(), 1) << name;
    EXPECT_EQ(t->outputCount(), 0) << name;
  }
}

TEST(Catalog, CombinationalGatesAreNotSequential) {
  const Catalog& cat = defaultCatalog();
  for (const char* name : {"and2", "or2", "xor2", "nand2", "nor2", "not",
                           "yes", "and3", "or3", "majority3"}) {
    EXPECT_FALSE(cat.get(name)->sequential()) << name;
    EXPECT_EQ(cat.get(name)->blockClass(), BlockClass::kCompute) << name;
  }
}

TEST(Catalog, SequentialBlocksAreMarked) {
  const Catalog& cat = defaultCatalog();
  for (const char* name : {"toggle", "trip", "trip_reset"})
    EXPECT_TRUE(cat.get(name)->sequential()) << name;
  EXPECT_TRUE(cat.delay(5)->sequential());
  EXPECT_TRUE(cat.pulseGen(3)->sequential());
  EXPECT_TRUE(cat.prolonger(4)->sequential());
}

TEST(Catalog, AllBehaviorsParse) {
  const Catalog& cat = defaultCatalog();
  for (const std::string& name : cat.names())
    EXPECT_NO_THROW(behavior::parse(cat.get(name)->behaviorSource())) << name;
}

TEST(Catalog, ParameterizedTypesAreCachedByName) {
  const Catalog& cat = defaultCatalog();
  EXPECT_EQ(cat.delay(5).get(), cat.delay(5).get());
  EXPECT_NE(cat.delay(5).get(), cat.delay(6).get());
  EXPECT_EQ(cat.delay(5)->name(), "delay_5");
}

TEST(Catalog, GetResolvesParameterizedNames) {
  const Catalog& cat = defaultCatalog();
  EXPECT_EQ(cat.get("delay_7").get(), cat.delay(7).get());
  EXPECT_EQ(cat.get("pulse_3").get(), cat.pulseGen(3).get());
  EXPECT_EQ(cat.get("prolong_2").get(), cat.prolonger(2).get());
  EXPECT_EQ(cat.get("logic2_6").get(), cat.logic2(6).get());
  EXPECT_EQ(cat.get("logic3_128").get(), cat.logic3(128).get());
  EXPECT_EQ(cat.get("prog_2x2").get(), cat.programmable(2, 2).get());
}

TEST(Catalog, UnknownNameThrows) {
  EXPECT_THROW(defaultCatalog().get("warp_core"), std::out_of_range);
  EXPECT_THROW(defaultCatalog().get("delay_x"), std::out_of_range);
}

TEST(Catalog, TruthTableBoundsChecked) {
  EXPECT_THROW(defaultCatalog().logic2(16), std::invalid_argument);
  EXPECT_THROW(defaultCatalog().logic3(256), std::invalid_argument);
}

TEST(Catalog, ParameterValidation) {
  EXPECT_THROW(defaultCatalog().delay(-1), std::invalid_argument);
  EXPECT_THROW(defaultCatalog().pulseGen(0), std::invalid_argument);
  EXPECT_THROW(defaultCatalog().prolonger(0), std::invalid_argument);
  EXPECT_THROW(defaultCatalog().splitter(4), std::invalid_argument);
  EXPECT_THROW(defaultCatalog().programmable(0, 1), std::invalid_argument);
}

TEST(Catalog, ConcurrentFirstLookupsShareOneType) {
  // Eight threads race the first get() of every name on a fresh catalog:
  // each name must materialize once, so every thread sees one pointer.
  const Catalog cat;
  std::vector<std::string> names;
  for (int tt = 0; tt < 256; ++tt)
    names.push_back("logic3_" + std::to_string(tt));
  for (int n = 1; n <= 16; ++n) {
    names.push_back("delay_" + std::to_string(n));
    names.push_back("pulse_" + std::to_string(n));
    names.push_back("prolong_" + std::to_string(n));
  }
  for (int i = 1; i <= 4; ++i)
    for (int o = 1; o <= 4; ++o)
      names.push_back("prog_" + std::to_string(i) + "x" + std::to_string(o));
  constexpr int kThreads = 8;
  std::vector<std::vector<const BlockType*>> seen(
      kThreads, std::vector<const BlockType*>(names.size()));
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (std::size_t i = 0; i < names.size(); ++i)
        seen[t][i] = cat.get(names[i]).get();
    });
  for (std::thread& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]) << t;
  for (std::size_t i = 0; i < names.size(); ++i)
    EXPECT_EQ(seen[0][i]->name(), names[i]);
}

TEST(Catalog, MalformedFamilyNamesMaterializeNothing) {
  // A family name resolves only in its canonical form, and a hostile
  // shape is rejected before any type is built.
  const Catalog cat;
  const std::vector<std::string> before = cat.names();
  EXPECT_THROW(cat.get("prog_2x2_p0"), std::out_of_range);
  EXPECT_THROW(cat.get("prog_100000000x1"), std::invalid_argument);
  EXPECT_THROW(cat.get("prog_2x"), std::out_of_range);
  EXPECT_THROW(cat.get("delay_05"), std::out_of_range);
  EXPECT_THROW(cat.get("delay_-1"), std::out_of_range);
  EXPECT_THROW(cat.get("delay_99999999999"), std::out_of_range);
  EXPECT_THROW(cat.get("logic3_7x"), std::out_of_range);
  EXPECT_EQ(cat.find("prog_2x2_p0"), nullptr);
  EXPECT_EQ(cat.find("prog_100000000x1"), nullptr);
  EXPECT_EQ(cat.find("logic2_16"), nullptr);
  EXPECT_EQ(cat.find("warp_core"), nullptr);
  EXPECT_EQ(cat.names(), before);
  EXPECT_THROW(cat.programmable(Catalog::kMaxProgrammablePorts + 1, 1),
               std::invalid_argument);
  EXPECT_EQ(cat.find("prog_64x64"),
            cat.programmable(Catalog::kMaxProgrammablePorts,
                             Catalog::kMaxProgrammablePorts));
}

TEST(Catalog, ProgrammableBlockShape) {
  const BlockTypePtr p = defaultCatalog().programmable(2, 2);
  EXPECT_TRUE(p->programmable());
  EXPECT_EQ(p->inputCount(), 2);
  EXPECT_EQ(p->outputCount(), 2);
  EXPECT_EQ(p->inputName(0), "in0");
  EXPECT_EQ(p->outputName(1), "out1");
  EXPECT_TRUE(p->behaviorSource().empty());
}

TEST(Catalog, SplitterShapes) {
  const BlockTypePtr s2 = defaultCatalog().splitter(2);
  EXPECT_EQ(s2->inputCount(), 1);
  EXPECT_EQ(s2->outputCount(), 2);
  const BlockTypePtr s3 = defaultCatalog().splitter(3);
  EXPECT_EQ(s3->outputCount(), 3);
}

TEST(Catalog, CommunicationBlocksAreWires) {
  const Catalog& cat = defaultCatalog();
  for (const char* name : {"rf_link", "x10_link"}) {
    const BlockTypePtr t = cat.get(name);
    EXPECT_EQ(t->blockClass(), BlockClass::kCommunication) << name;
    EXPECT_EQ(t->inputCount(), 1) << name;
    EXPECT_EQ(t->outputCount(), 1) << name;
  }
}

TEST(BlockType, ClassInvariantsEnforced) {
  EXPECT_THROW(BlockType("bad", BlockClass::kSensor, {"a"}, {"out"}, ""),
               std::invalid_argument);
  EXPECT_THROW(BlockType("bad", BlockClass::kOutput, {"a"}, {"out"}, ""),
               std::invalid_argument);
  EXPECT_THROW(BlockType("bad", BlockClass::kSensor, {}, {"out"}, "", false,
                         /*programmable=*/true),
               std::invalid_argument);
}

}  // namespace
}  // namespace eblocks::blocks
