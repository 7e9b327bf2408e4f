#include "sim/batch_equivalence.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "blocks/catalog.h"
#include "designs/library.h"
#include "randgen/generator.h"

namespace eblocks::sim {
namespace {

using blocks::defaultCatalog;

Network tripNet() {
  const auto& cat = defaultCatalog();
  Network net;
  const BlockId s = net.addBlock("s", cat.button());
  const BlockId g = net.addBlock("g", cat.trip());
  const BlockId o = net.addBlock("o", cat.led());
  net.connect(s, 0, g, 0);
  net.connect(g, 0, o, 0);
  return net;
}

Network toggleNet() {
  const auto& cat = defaultCatalog();
  Network net;
  const BlockId s = net.addBlock("s", cat.button());
  const BlockId g = net.addBlock("g", cat.toggle());
  const BlockId o = net.addBlock("o", cat.led());
  net.connect(s, 0, g, 0);
  net.connect(g, 0, o, 0);
  return net;
}

void expectSameVerdict(const std::optional<Mismatch>& batch,
                       const std::optional<Mismatch>& scalar) {
  ASSERT_EQ(batch.has_value(), scalar.has_value());
  if (!batch) return;
  EXPECT_EQ(batch->stepIndex, scalar->stepIndex);
  EXPECT_EQ(batch->output, scalar->output);
  EXPECT_EQ(batch->expected, scalar->expected);
  EXPECT_EQ(batch->actual, scalar->actual);
}

TEST(BatchEquivalence, CloneCorporaAgreeOnTable1Designs) {
  for (const designs::DesignEntry& entry : designs::designLibrary()) {
    const std::vector<Stimulus> scripts =
        randomStimulusCorpus(entry.network, 32, 15, 900);
    EXPECT_FALSE(
        batchCheckEquivalence(entry.network, entry.network, scripts)
            .has_value())
        << entry.name;
  }
}

// Acceptance: batch verdicts bit-identical to per-stimulus
// checkEquivalence on 25 random designs (clones, plus a mutated candidate
// below for the mismatch side).
TEST(BatchEquivalence, CloneCorporaAgreeOnRandomDesigns) {
  randgen::GeneratorOptions options;
  options.innerBlocks = 6;
  options.seed = 31;
  std::uint32_t seed = 4000;
  for (const Network& net : randgen::randomNetworkCorpus(25, options)) {
    const std::vector<Stimulus> scripts =
        randomStimulusCorpus(net, kLanes, 12, seed++);
    std::optional<Mismatch> scalar;
    for (const Stimulus& s : scripts)
      if ((scalar = checkEquivalence(net, net, s))) break;
    expectSameVerdict(batchCheckEquivalence(net, net, scripts), scalar);
  }
}

TEST(BatchEquivalence, MismatchFieldsMatchScalarChecker) {
  const Network a = tripNet();
  const Network b = toggleNet();
  // trip vs toggle diverge on the second press.
  std::vector<Stimulus> scripts;
  scripts.push_back(Stimulus{}.press("s"));  // both end up on: no mismatch
  scripts.push_back(Stimulus{}.press("s").press("s"));
  std::optional<Mismatch> scalar;
  for (const Stimulus& s : scripts)
    if ((scalar = checkEquivalence(a, b, s))) break;
  ASSERT_TRUE(scalar.has_value());
  expectSameVerdict(batchCheckEquivalence(a, b, scripts), scalar);
}

TEST(BatchEquivalence, ChunksBeyondKLanesKeepScriptOrder) {
  const Network a = tripNet();
  const Network b = toggleNet();
  std::vector<Stimulus> scripts;
  for (int i = 0; i < kLanes + 3; ++i)
    scripts.push_back(Stimulus{}.press("s"));  // benign in every lane
  scripts.push_back(Stimulus{}.press("s").press("s"));  // lane 3, chunk 2
  scripts.push_back(Stimulus{}.press("s").press("s"));  // later: must lose
  const auto batch = batchCheckEquivalence(a, b, scripts);
  const auto scalar =
      checkEquivalence(a, b, scripts[static_cast<std::size_t>(kLanes) + 3]);
  expectSameVerdict(batch, scalar);
}

TEST(BatchEquivalence, FuzzMatchesScalarFuzzRoundForRound) {
  const Network a = tripNet();
  const Network b = toggleNet();
  const auto scalar = fuzzEquivalence(a, b, 5, 30, 1234);
  ASSERT_TRUE(scalar.has_value());
  expectSameVerdict(batchFuzzEquivalence(a, b, 5, 30, 1234), scalar);
}

TEST(BatchEquivalence, DetailedFailureReproducesFromArtifact) {
  const Network a = tripNet();
  const Network b = toggleNet();
  const auto batch = batchFuzzEquivalenceDetailed(a, b, 5, 30, 1234);
  const auto scalar = fuzzEquivalenceDetailed(a, b, 5, 30, 1234);
  ASSERT_TRUE(batch.has_value());
  ASSERT_TRUE(scalar.has_value());
  EXPECT_EQ(batch->round, scalar->round);
  EXPECT_EQ(batch->roundSeed, fuzzRoundSeed(1234, batch->round));
  EXPECT_EQ(batch->script, scalar->script);
  expectSameVerdict(batch->mismatch, scalar->mismatch);
  // The artifact alone reproduces the failure: parse it back and replay.
  const Stimulus replay = Stimulus::fromText(batch->artifact());
  expectSameVerdict(checkEquivalence(a, b, replay), batch->mismatch);
  EXPECT_NE(batch->describe().find("round"), std::string::npos);
}

TEST(BatchEquivalence, CorpusVerdictsPerPair) {
  const Network a = tripNet();
  const Network b = toggleNet();
  std::vector<Stimulus> scripts;
  scripts.push_back(Stimulus{}.press("s").press("s"));
  const std::vector<EquivalencePair> pairs = {
      {&a, &a, "clone"},
      {&a, &b, "trip-vs-toggle"},
  };
  const auto verdicts = batchCheckCorpus(pairs, scripts);
  ASSERT_EQ(verdicts.size(), 2u);
  EXPECT_EQ(verdicts[0].label, "clone");
  EXPECT_FALSE(verdicts[0].mismatch.has_value());
  EXPECT_EQ(verdicts[1].label, "trip-vs-toggle");
  EXPECT_TRUE(verdicts[1].mismatch.has_value());
}

TEST(BatchEquivalence, NameSetMismatchesThrowLikeScalar) {
  const auto& cat = defaultCatalog();
  Network a;
  a.addBlock("s1", cat.button());
  Network b;
  b.addBlock("s2", cat.button());
  const std::vector<Stimulus> scripts(1);
  EXPECT_THROW(batchCheckEquivalence(a, b, scripts), std::invalid_argument);
}

TEST(BatchEquivalence, BehaviorFaultsPropagateLikeScalar) {
  // A division fault in some lane must surface as the scalar SimError, via
  // the scalar replay of the flagged lane.
  const auto& cat = defaultCatalog();
  const auto divider = std::make_shared<BlockType>(
      "divider", BlockClass::kCompute,
      std::vector<std::string>{"arm", "div"}, std::vector<std::string>{"out"},
      "var s = 0;\nif (arm) { s = 2 / div; }\nout = s;");
  auto build = [&] {
    Network net;
    const BlockId arm = net.addBlock("arm", cat.button());
    const BlockId div = net.addBlock("div", cat.button());
    const BlockId d = net.addBlock("d", divider);
    const BlockId o = net.addBlock("o", cat.led());
    net.connect(arm, 0, d, 0);
    net.connect(div, 0, d, 1);
    net.connect(d, 0, o, 0);
    return net;
  };
  const Network a = build();
  const Network b = build();
  std::vector<Stimulus> scripts;
  scripts.push_back(Stimulus{}.set("div", 1).set("arm", 1));  // clean lane
  scripts.push_back(Stimulus{}.set("arm", 1));                // faults
  EXPECT_THROW(checkEquivalence(a, b, scripts[1]), SimError);
  EXPECT_THROW(batchCheckEquivalence(a, b, scripts), SimError);
}

TEST(BatchEquivalence, FallsBackToScalarOnOpenPrograms) {
  // BlockType rejects non-closed programs, so both simulators throw at
  // construction; the batch checker falls back to the scalar loop, which
  // throws the same SimError -- the verdict of a sequential scalar loop.
  const auto& cat = defaultCatalog();
  const auto open = std::make_shared<BlockType>(
      "open", BlockClass::kCompute, std::vector<std::string>{"a"},
      std::vector<std::string>{"out"}, "out = mystery;");
  auto build = [&] {
    Network net;
    const BlockId s = net.addBlock("s", cat.button());
    const BlockId g = net.addBlock("g", open);
    const BlockId o = net.addBlock("o", cat.led());
    net.connect(s, 0, g, 0);
    net.connect(g, 0, o, 0);
    return net;
  };
  const Network a = build();
  const Network b = build();
  std::vector<Stimulus> scripts;
  scripts.push_back(Stimulus{}.set("s", 1));
  EXPECT_THROW(checkEquivalence(a, b, scripts[0]), SimError);
  EXPECT_THROW(batchCheckEquivalence(a, b, scripts), SimError);
}

TEST(BatchEquivalence, DivisionOverflowThrowsLikeScalar) {
  // INT64_MIN / -1 faults the batch lane as "division overflow"; its
  // scalar replay must throw the same way rather than trap.
  const auto& cat = defaultCatalog();
  const auto divider = std::make_shared<BlockType>(
      "divider", BlockClass::kCompute,
      std::vector<std::string>{"num", "den"}, std::vector<std::string>{"out"},
      "var s = 0;\nif (den != 0) { s = num / den; }\nout = s;");
  auto build = [&] {
    Network net;
    const BlockId n = net.addBlock("n", cat.button());
    const BlockId d = net.addBlock("d", cat.button());
    const BlockId g = net.addBlock("g", divider);
    const BlockId o = net.addBlock("o", cat.led());
    net.connect(n, 0, g, 0);
    net.connect(d, 0, g, 1);
    net.connect(g, 0, o, 0);
    return net;
  };
  const Network a = build();
  const Network b = build();
  std::vector<Stimulus> scripts;
  scripts.push_back(Stimulus{}.set("d", 2).set("n", 9));  // clean lane
  scripts.push_back(Stimulus{}.set("d", -1).set(
      "n", std::numeric_limits<std::int64_t>::min()));
  EXPECT_FALSE(checkEquivalence(a, b, scripts[0]).has_value());
  try {
    checkEquivalence(a, b, scripts[1]);
    ADD_FAILURE() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("division overflow"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(batchCheckEquivalence(a, b, scripts), SimError);
}

}  // namespace
}  // namespace eblocks::sim
