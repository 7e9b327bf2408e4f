#include "partition/exhaustive.h"

#include <limits>

#include <gtest/gtest.h>

#include "blocks/catalog.h"
#include "designs/library.h"
#include "partition/paredown.h"
#include "partition/verify.h"
#include "randgen/generator.h"

namespace eblocks::partition {
namespace {

using blocks::defaultCatalog;

TEST(Exhaustive, ChainOptimal) {
  const auto& cat = defaultCatalog();
  Network net;
  const BlockId s = net.addBlock("s", cat.button());
  const BlockId a = net.addBlock("a", cat.inverter());
  const BlockId b = net.addBlock("b", cat.toggle());
  const BlockId o = net.addBlock("o", cat.led());
  net.connect(s, 0, a, 0);
  net.connect(a, 0, b, 0);
  net.connect(b, 0, o, 0);
  const PartitionProblem problem(net, ProgBlockSpec{});
  const PartitionRun run = exhaustiveSearch(problem);
  EXPECT_TRUE(run.optimal);
  EXPECT_EQ(run.result.totalAfter(2), 1);
}

TEST(Exhaustive, Figure5OptimalCostIsThree) {
  const Network net = designs::figure5();
  const PartitionProblem problem(net, ProgBlockSpec{});
  const PartitionRun run = exhaustiveSearch(problem);
  EXPECT_TRUE(run.optimal);
  EXPECT_EQ(run.result.totalAfter(8), 3);  // Table 1: exhaustive total 3
  EXPECT_TRUE(verifyPartitioning(problem, run.result).empty());
}

TEST(Exhaustive, OrChainProvesNothingFits) {
  const Network net = designs::byName("Any Window Open Alarm");
  const PartitionProblem problem(net, ProgBlockSpec{});
  const PartitionRun run = exhaustiveSearch(problem);
  EXPECT_TRUE(run.optimal);
  EXPECT_TRUE(run.result.partitions.empty());
  EXPECT_EQ(run.result.totalAfter(3), 3);
}

TEST(Exhaustive, NeverWorseThanPareDown) {
  for (std::uint32_t seed = 1; seed <= 8; ++seed) {
    const randgen::GeneratorOptions gen{.innerBlocks = 9, .seed = seed};
    const Network net = randgen::randomNetwork(gen);
    const PartitionProblem problem(net, ProgBlockSpec{});
    const PartitionRun heuristic = pareDown(problem);
    const PartitionRun exact = exhaustiveSearch(problem);
    ASSERT_TRUE(exact.optimal) << "seed " << seed;
    EXPECT_LE(exact.result.totalAfter(9), heuristic.result.totalAfter(9))
        << "seed " << seed;
    EXPECT_TRUE(verifyPartitioning(problem, exact.result).empty());
  }
}

TEST(Exhaustive, SeedDoesNotChangeOptimum) {
  const randgen::GeneratorOptions gen{.innerBlocks = 9, .seed = 42};
  const Network net = randgen::randomNetwork(gen);
  const PartitionProblem problem(net, ProgBlockSpec{});
  // Serial runs: the explored-node comparison below is only deterministic
  // without worker scheduling in play.
  ExhaustiveOptions unseeded;
  unseeded.threads = 1;
  ExhaustiveOptions seeded;
  seeded.threads = 1;
  seeded.seed = pareDown(problem).result;
  const PartitionRun a = exhaustiveSearch(problem, unseeded);
  const PartitionRun b = exhaustiveSearch(problem, seeded);
  EXPECT_EQ(a.result.totalAfter(9), b.result.totalAfter(9));
  // Seeding may only shrink the explored node count.
  EXPECT_LE(b.explored, a.explored);
}

TEST(Exhaustive, TimeLimitReturnsBestSoFar) {
  const randgen::GeneratorOptions gen{.innerBlocks = 26, .seed = 3};
  const Network net = randgen::randomNetwork(gen);
  const PartitionProblem problem(net, ProgBlockSpec{});
  ExhaustiveOptions options;
  options.timeLimitSeconds = 0.02;
  const PartitionRun run = exhaustiveSearch(problem, options);
  EXPECT_TRUE(run.timedOut);
  EXPECT_FALSE(run.optimal);
  // Whatever it returns must still verify.
  EXPECT_TRUE(verifyPartitioning(problem, run.result).empty());
}

TEST(Exhaustive, LimitsTooLongForTheClockMeanNoLimit) {
  // A limit past what steady_clock can hold (about 292 years), +inf, or
  // NaN sets no deadline, like 0: the search is not cut short at its
  // first 4096-node check.
  const Network net = randgen::randomNetwork(
      randgen::GeneratorOptions::largeNetwork(16, 3));
  const PartitionProblem problem(net, ProgBlockSpec{});
  ExhaustiveOptions options;
  options.threads = 1;
  const PartitionRun unlimited = exhaustiveSearch(problem, options);
  ASSERT_TRUE(unlimited.optimal);
  ASSERT_GT(unlimited.explored, 4096u);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (const double limit : {1e10, 1e300, kInf, kNaN}) {
    options.timeLimitSeconds = limit;
    const PartitionRun run = exhaustiveSearch(problem, options);
    EXPECT_TRUE(run.optimal) << limit;
    EXPECT_FALSE(run.timedOut) << limit;
    EXPECT_EQ(run.explored, unlimited.explored) << limit;
    EXPECT_EQ(run.result.partitions, unlimited.result.partitions) << limit;
  }
}

TEST(Exhaustive, InvalidSeedIsIgnored) {
  const Network net = designs::figure5();
  const PartitionProblem problem(net, ProgBlockSpec{});
  // A bogus seed: one partition with a single block.
  Partitioning bogus;
  BitSet single = net.emptySet();
  single.set(1);
  bogus.partitions.push_back(single);
  ExhaustiveOptions options;
  options.seed = bogus;
  const PartitionRun run = exhaustiveSearch(problem, options);
  EXPECT_EQ(run.result.totalAfter(8), 3);
  EXPECT_TRUE(verifyPartitioning(problem, run.result).empty());
}

TEST(Exhaustive, ExploredCounterGrowsWithProblemSize) {
  std::uint64_t prev = 0;
  for (int n : {4, 6, 8}) {
    const randgen::GeneratorOptions gen{.innerBlocks = n, .seed = 5};
    const Network net = randgen::randomNetwork(gen);
    const PartitionProblem problem(net, ProgBlockSpec{});
    ExhaustiveOptions serial;
    serial.threads = 1;  // deterministic node counts
    const PartitionRun run = exhaustiveSearch(problem, serial);
    EXPECT_GT(run.explored, prev);
    prev = run.explored;
  }
}

}  // namespace
}  // namespace eblocks::partition
