// The parallel branch-and-bound must return the *identical* result to the
// serial search -- same optimum cost and bit-identical partitions -- at
// every thread count, on the paper's Table-1 designs and on a population
// of fixed-seed random networks.
#include <gtest/gtest.h>

#include "designs/library.h"
#include "partition/exhaustive.h"
#include "partition/multitype.h"
#include "partition/paredown.h"
#include "partition/verify.h"
#include "randgen/generator.h"

namespace eblocks::partition {
namespace {

void expectIdenticalRuns(const PartitionRun& serial,
                         const PartitionRun& parallel,
                         int innerCount, const std::string& label) {
  EXPECT_EQ(serial.result.totalAfter(innerCount),
            parallel.result.totalAfter(innerCount))
      << label;
  ASSERT_EQ(serial.result.partitions.size(),
            parallel.result.partitions.size())
      << label;
  for (std::size_t i = 0; i < serial.result.partitions.size(); ++i)
    EXPECT_EQ(serial.result.partitions[i].toVector(),
              parallel.result.partitions[i].toVector())
        << label << " partition #" << i;
}

TEST(ParallelExhaustive, Table1DesignsMatchSerialBitForBit) {
  for (const auto& entry : designs::designLibrary()) {
    // The largest Table-1 reconstructions are exactly where the paper's
    // serial search blew up; bound them so the suite stays fast.  Every
    // run below completes optimally well inside the limit.
    if (entry.innerBlocks > 13) continue;
    const PartitionProblem problem(entry.network, ProgBlockSpec{});
    ExhaustiveOptions serialOptions;
    serialOptions.threads = 1;
    serialOptions.seed = pareDown(problem).result;
    const PartitionRun serial = exhaustiveSearch(problem, serialOptions);
    ASSERT_TRUE(serial.optimal) << entry.name;
    for (int threads : {2, 4, 8}) {
      ExhaustiveOptions parallelOptions = serialOptions;
      parallelOptions.threads = threads;
      const PartitionRun parallel =
          exhaustiveSearch(problem, parallelOptions);
      ASSERT_TRUE(parallel.optimal) << entry.name;
      expectIdenticalRuns(serial, parallel, entry.innerBlocks,
                          entry.name + " @" + std::to_string(threads) +
                              " threads");
      EXPECT_TRUE(verifyPartitioning(problem, parallel.result).empty())
          << entry.name;
    }
  }
}

TEST(ParallelExhaustive, RandomNetworksMatchSerialBitForBit) {
  // 25 fixed-seed networks; sizes cycle through 8..10 inner blocks.
  for (std::uint32_t seed = 1; seed <= 25; ++seed) {
    const int inner = 8 + static_cast<int>(seed % 3);
    const Network net =
        randgen::randomNetwork({.innerBlocks = inner, .seed = seed});
    const PartitionProblem problem(net, ProgBlockSpec{});
    ExhaustiveOptions serialOptions;
    serialOptions.threads = 1;
    serialOptions.seed = pareDown(problem).result;
    const PartitionRun serial = exhaustiveSearch(problem, serialOptions);
    ASSERT_TRUE(serial.optimal) << "seed " << seed;
    for (int threads : {2, 4, 8}) {
      ExhaustiveOptions parallelOptions = serialOptions;
      parallelOptions.threads = threads;
      const PartitionRun parallel =
          exhaustiveSearch(problem, parallelOptions);
      ASSERT_TRUE(parallel.optimal) << "seed " << seed;
      expectIdenticalRuns(serial, parallel, inner,
                          "seed " + std::to_string(seed) + " @" +
                              std::to_string(threads) + " threads");
    }
  }
}

TEST(ParallelExhaustive, UnseededSearchAlsoMatches) {
  // Without the PareDown seed the initial bound is the weak "replace
  // nothing" incumbent, so the tie-break machinery does real work.
  const Network net = randgen::randomNetwork({.innerBlocks = 9, .seed = 99});
  const PartitionProblem problem(net, ProgBlockSpec{});
  ExhaustiveOptions serialOptions;
  serialOptions.threads = 1;
  const PartitionRun serial = exhaustiveSearch(problem, serialOptions);
  for (int threads : {2, 4, 8}) {
    ExhaustiveOptions parallelOptions;
    parallelOptions.threads = threads;
    const PartitionRun parallel = exhaustiveSearch(problem, parallelOptions);
    expectIdenticalRuns(serial, parallel, 9,
                        "unseeded @" + std::to_string(threads));
  }
}

TEST(ParallelExhaustive, SignalsModeMatches) {
  const Network net = randgen::randomNetwork({.innerBlocks = 9, .seed = 4});
  const PartitionProblem problem(
      net, ProgBlockSpec{.inputs = 2, .outputs = 2,
                         .mode = CountingMode::kSignals});
  ExhaustiveOptions serialOptions;
  serialOptions.threads = 1;
  const PartitionRun serial = exhaustiveSearch(problem, serialOptions);
  ExhaustiveOptions parallelOptions;
  parallelOptions.threads = 4;
  const PartitionRun parallel = exhaustiveSearch(problem, parallelOptions);
  expectIdenticalRuns(serial, parallel, 9, "signals mode");
}

TEST(ParallelExhaustive, TightTimeLimitStillReturnsVerifiedResult) {
  // The timeout path: workers must stop promptly, and whatever the
  // reduction assembles from the partial subtree results must verify.
  const Network net = randgen::randomNetwork({.innerBlocks = 26, .seed = 3});
  const PartitionProblem problem(net, ProgBlockSpec{});
  for (int threads : {2, 4, 8}) {
    ExhaustiveOptions options;
    options.threads = threads;
    options.timeLimitSeconds = 0.02;
    options.seed = pareDown(problem).result;
    const PartitionRun run = exhaustiveSearch(problem, options);
    EXPECT_TRUE(run.timedOut) << threads;
    EXPECT_FALSE(run.optimal) << threads;
    EXPECT_TRUE(verifyPartitioning(problem, run.result).empty()) << threads;
    // With a feasible seed the timeout result is never worse than it.
    EXPECT_LE(run.result.totalAfter(26), options.seed->totalAfter(26))
        << threads;
  }
}

TEST(ParallelExhaustive, DefaultThreadCountIsHardwareConcurrency) {
  EXPECT_GE(resolveSearchThreads(0), 1);
  EXPECT_EQ(resolveSearchThreads(1), 1);
  EXPECT_EQ(resolveSearchThreads(6), 6);
  // Default options (threads = 0) must produce the serial optimum too.
  const Network net = designs::figure5();
  const PartitionProblem problem(net, ProgBlockSpec{});
  const PartitionRun run = exhaustiveSearch(problem);
  EXPECT_TRUE(run.optimal);
  EXPECT_EQ(run.result.totalAfter(8), 3);
}

TEST(ParallelExhaustive, WorkStealingIsRepeatable) {
  // Which worker steals which subtree is racy; the result must not be.
  const Network net = randgen::randomNetwork({.innerBlocks = 10, .seed = 8});
  const PartitionProblem problem(net, ProgBlockSpec{});
  ExhaustiveOptions options;
  options.threads = 4;
  const PartitionRun first = exhaustiveSearch(problem, options);
  ASSERT_TRUE(first.optimal);
  for (int rep = 0; rep < 3; ++rep) {
    const PartitionRun again = exhaustiveSearch(problem, options);
    ASSERT_TRUE(again.optimal);
    expectIdenticalRuns(first, again, 10,
                        "repeat " + std::to_string(rep));
  }
}

TEST(ParallelMultiType, MatchesSerialAcrossThreadCounts) {
  ProgCostModel model;
  model.preDefinedBlockCost = 1.0;
  model.options = {ProgBlockOption{"prog_2x2", 2, 2, 1.5},
                   ProgBlockOption{"prog_2x3", 2, 3, 2.0}};
  for (std::uint32_t seed = 1; seed <= 6; ++seed) {
    const Network net =
        randgen::randomNetwork({.innerBlocks = 8, .seed = seed});
    const PartitionProblem problem(net, ProgBlockSpec{});
    const int n = static_cast<int>(net.innerBlocks().size());
    const MilliCostModel milli = toMilliCosts(model, n);
    ExhaustiveOptions serialOptions;
    serialOptions.threads = 1;
    const PartitionRun serial =
        multiTypeExhaustive(problem, model, serialOptions);
    ASSERT_TRUE(serial.optimal) << "seed " << seed;
    for (int threads : {2, 4, 8}) {
      ExhaustiveOptions parallelOptions;
      parallelOptions.threads = threads;
      const PartitionRun parallel =
          multiTypeExhaustive(problem, model, parallelOptions);
      ASSERT_TRUE(parallel.optimal) << "seed " << seed;
      EXPECT_EQ(milli.totalCost(serial.result, n),
                milli.totalCost(parallel.result, n))
          << "seed " << seed << " @" << threads;
      ASSERT_EQ(serial.result.partitions.size(),
                parallel.result.partitions.size())
          << "seed " << seed << " @" << threads;
      for (std::size_t i = 0; i < serial.result.partitions.size(); ++i) {
        EXPECT_EQ(serial.result.partitions[i].toVector(),
                  parallel.result.partitions[i].toVector());
        EXPECT_EQ(serial.result.optionIndex[i],
                  parallel.result.optionIndex[i]);
      }
      EXPECT_TRUE(
          verifyPartitioning(problem, model, parallel.result).empty());
    }
  }
}

}  // namespace
}  // namespace eblocks::partition
