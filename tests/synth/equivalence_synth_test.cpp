// The crucial end-to-end property: synthesis preserves behavior.  Every
// library design and a population of random designs are synthesized and
// co-simulated against their originals under scripted and fuzzed stimuli.
#include <gtest/gtest.h>

#include "designs/library.h"
#include "randgen/generator.h"
#include "sim/equivalence.h"
#include "synth/synthesizer.h"

namespace eblocks::synth {
namespace {

TEST(SynthEquivalence, GarageScripted) {
  const Network original = designs::garageOpenAtNight();
  const SynthResult r = synthesize(original);
  sim::Stimulus st;
  st.set("garage_door", 1)
      .set("daylight", 1)
      .set("daylight", 0)
      .set("garage_door", 0)
      .tick(3)
      .set("garage_door", 1);
  const auto mismatch = sim::checkEquivalence(original, r.network, st);
  EXPECT_FALSE(mismatch.has_value()) << mismatch->describe();
}

TEST(SynthEquivalence, Figure5Scripted) {
  const Network original = designs::figure5();
  const SynthResult r = synthesize(original);
  sim::Stimulus st;
  st.set("start_button", 1).tick(4).set("start_button", 0).tick(10);
  st.set("start_button", 1).tick(2).set("start_button", 0).tick(12);
  const auto mismatch = sim::checkEquivalence(original, r.network, st);
  EXPECT_FALSE(mismatch.has_value()) << mismatch->describe();
}

class LibraryEquivalence
    : public ::testing::TestWithParam<std::string> {};

TEST_P(LibraryEquivalence, FuzzedStimuli) {
  const Network original = designs::byName(GetParam());
  for (const char* algorithm : {"paredown", "aggregation"}) {
    SynthOptions options;
    options.algorithm = algorithm;
    const SynthResult r = synthesize(original, options);
    const auto mismatch =
        sim::fuzzEquivalence(original, r.network, 3, 60, 0xE81);
    EXPECT_FALSE(mismatch.has_value())
        << GetParam() << " [" << algorithm << "]: " << mismatch->describe();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDesigns, LibraryEquivalence,
    ::testing::Values("Ignition Illuminator", "Night Lamp Controller",
                      "Entry Gate Detector", "Carpool Alert",
                      "Cafeteria Food Alert", "Podium Timer 2",
                      "Any Window Open Alarm", "Two Button Light",
                      "Doorbell Extender 1", "Doorbell Extender 2",
                      "Podium Timer 3", "Noise At Night Detector",
                      "Two-Zone Security", "Motion on Property Alert",
                      "Timed Passage"),
    [](const auto& paramInfo) {
      std::string n = paramInfo.param;
      for (char& c : n)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return n;
    });

struct RandomCase {
  int innerBlocks;
  std::uint32_t seed;
};

class RandomEquivalence : public ::testing::TestWithParam<RandomCase> {};

TEST_P(RandomEquivalence, SynthesisPreservesBehavior) {
  const Network original = randgen::randomNetwork(randgen::GeneratorOptions{
      .innerBlocks = GetParam().innerBlocks, .seed = GetParam().seed});
  const SynthResult r = synthesize(original);
  const auto mismatch =
      sim::fuzzEquivalence(original, r.network, 2, 50, GetParam().seed);
  EXPECT_FALSE(mismatch.has_value()) << mismatch->describe();
}

INSTANTIATE_TEST_SUITE_P(
    RandomDesigns, RandomEquivalence,
    ::testing::Values(RandomCase{4, 101}, RandomCase{6, 102},
                      RandomCase{8, 103}, RandomCase{10, 104},
                      RandomCase{14, 105}, RandomCase{18, 106},
                      RandomCase{25, 107}, RandomCase{32, 108}),
    [](const auto& paramInfo) {
      return std::string("n")
          .append(std::to_string(paramInfo.param.innerBlocks))
          .append("_s")
          .append(std::to_string(paramInfo.param.seed));
    });

TEST(SynthEquivalence, SignalsModeAlsoPreservesBehavior) {
  SynthOptions options;
  options.spec.mode = CountingMode::kSignals;
  const Network original = designs::figure5();
  const SynthResult r = synthesize(original, options);
  const auto mismatch = sim::fuzzEquivalence(original, r.network, 3, 60, 7);
  EXPECT_FALSE(mismatch.has_value()) << mismatch->describe();
}

}  // namespace
}  // namespace eblocks::synth
