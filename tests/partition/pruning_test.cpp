// The admissible lower-bound layer (ExhaustiveOptions::pruningBound) is
// a pure accelerator: with it on, the search must return results
// *bit-identical* to the unpruned search -- on the Table-1 designs and a
// population of random networks, at 1/2/4/8 threads, in both counting
// modes -- while never exploring more
// nodes.  The unpruned serial search is the reference; every pruned
// configuration is compared against it.
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "designs/library.h"
#include "partition/engine.h"
#include "partition/exhaustive.h"
#include "partition/multitype.h"
#include "partition/paredown.h"
#include "partition/verify.h"
#include "randgen/generator.h"

namespace eblocks::partition {
namespace {

constexpr CountingMode kBothModes[] = {CountingMode::kEdges,
                                       CountingMode::kSignals};
constexpr int kThreadCounts[] = {1, 2, 4, 8};

void expectIdentical(const PartitionRun& reference, const PartitionRun& run,
                     int innerCount, const std::string& label) {
  EXPECT_EQ(reference.result.totalAfter(innerCount),
            run.result.totalAfter(innerCount))
      << label;
  ASSERT_EQ(reference.result.partitions.size(),
            run.result.partitions.size())
      << label;
  for (std::size_t i = 0; i < reference.result.partitions.size(); ++i)
    EXPECT_EQ(reference.result.partitions[i].toVector(),
              run.result.partitions[i].toVector())
        << label << " partition #" << i;
}

/// Runs the unpruned serial reference, then every pruned configuration,
/// asserting bit-identity and that pruning never explores more nodes
/// than the unpruned search at the same thread count = 1.
void checkAllConfigurations(const PartitionProblem& problem, int innerCount,
                            const std::string& label) {
  ExhaustiveOptions reference;
  reference.threads = 1;
  reference.pruningBound = false;
  reference.seed = pareDown(problem).result;
  const PartitionRun unpruned = exhaustiveSearch(problem, reference);
  ASSERT_TRUE(unpruned.optimal) << label;
  EXPECT_EQ(unpruned.pruned, 0u) << label;

  for (int threads : kThreadCounts) {
    ExhaustiveOptions options = reference;
    options.pruningBound = true;
    options.threads = threads;
    const PartitionRun pruned = exhaustiveSearch(problem, options);
    ASSERT_TRUE(pruned.optimal) << label;
    expectIdentical(unpruned, pruned, innerCount,
                    label + " @" + std::to_string(threads) + " threads");
    EXPECT_TRUE(verifyPartitioning(problem, pruned.result).empty())
        << label;
    if (threads == 1) {
      EXPECT_LE(pruned.explored, unpruned.explored) << label;
    }
  }
}

TEST(PruningBound, Table1DesignsBitIdenticalBothModes) {
  for (const auto& entry : designs::designLibrary()) {
    // Cap like the parallel-equivalence suite: the matrix below runs
    // 2 modes x 4 thread counts per design, and the
    // *unpruned* reference is the expensive leg on the big designs.
    if (entry.innerBlocks > 13) continue;
    for (CountingMode mode : kBothModes) {
      const PartitionProblem problem(
          entry.network,
          ProgBlockSpec{.inputs = 2, .outputs = 2, .mode = mode});
      checkAllConfigurations(problem, entry.innerBlocks,
                             entry.name + " [" + toString(mode) + "]");
    }
  }
}

TEST(PruningBound, RandomDesignsBitIdenticalBothModes) {
  // 25 fixed-seed networks, sizes cycling 8..10 inner blocks, the same
  // population the parallel-equivalence suite uses.
  for (std::uint32_t seed = 1; seed <= 25; ++seed) {
    const int inner = 8 + static_cast<int>(seed % 3);
    const Network net =
        randgen::randomNetwork({.innerBlocks = inner, .seed = seed});
    for (CountingMode mode : kBothModes) {
      const PartitionProblem problem(
          net, ProgBlockSpec{.inputs = 2, .outputs = 2, .mode = mode});
      checkAllConfigurations(problem, inner,
                             "seed " + std::to_string(seed) + " [" +
                                 toString(mode) + "]");
    }
  }
}

TEST(PruningBound, UnseededSearchBitIdentical) {
  // Without the PareDown seed the initial incumbent is weak, pruning
  // decisions happen against bounds discovered mid-search, and the
  // pruned/unpruned node-count gap is at its widest.
  const Network net = randgen::randomNetwork({.innerBlocks = 10, .seed = 77});
  for (CountingMode mode : kBothModes) {
    const PartitionProblem problem(
        net, ProgBlockSpec{.inputs = 2, .outputs = 2, .mode = mode});
    ExhaustiveOptions reference;
    reference.threads = 1;
    reference.pruningBound = false;
    const PartitionRun unpruned = exhaustiveSearch(problem, reference);
    for (int threads : kThreadCounts) {
      ExhaustiveOptions options;
      options.threads = threads;
      const PartitionRun pruned = exhaustiveSearch(problem, options);
      expectIdentical(unpruned, pruned, 10,
                      std::string("unseeded [") + toString(mode) + "] @" +
                          std::to_string(threads));
    }
  }
}

TEST(PruningBound, ReducesExploredNodesAndReportsPrunedSubtrees) {
  // The layer must actually bite: on an unseeded random design the
  // pruned search explores strictly fewer nodes and accounts for the
  // difference in `pruned`.
  const Network net = randgen::randomNetwork({.innerBlocks = 11, .seed = 3});
  const PartitionProblem problem(net, ProgBlockSpec{});
  ExhaustiveOptions off;
  off.threads = 1;
  off.pruningBound = false;
  const PartitionRun unpruned = exhaustiveSearch(problem, off);
  ExhaustiveOptions on = off;
  on.pruningBound = true;
  const PartitionRun pruned = exhaustiveSearch(problem, on);
  EXPECT_LT(pruned.explored, unpruned.explored);
  EXPECT_GT(pruned.pruned, 0u);
  EXPECT_EQ(unpruned.pruned, 0u);
}

TEST(PruningBound, WorkerCountersParallelToWorkerExplored) {
  const Network net = randgen::randomNetwork({.innerBlocks = 10, .seed = 12});
  const PartitionProblem problem(net, ProgBlockSpec{});
  ExhaustiveOptions options;
  options.threads = 4;
  const PartitionRun run = exhaustiveSearch(problem, options);
  ASSERT_TRUE(run.optimal);
  EXPECT_EQ(run.workerPruned.size(), run.workerExplored.size());
  std::uint64_t sum = 0;
  for (const std::uint64_t p : run.workerPruned) sum += p;
  EXPECT_EQ(sum, run.pruned);
}

TEST(PruningBound, MultiTypeBitIdenticalAcrossThreadsAndSchedulers) {
  ProgCostModel model;
  model.preDefinedBlockCost = 1.0;
  model.options = {ProgBlockOption{"prog_2x2", 2, 2, 1.5},
                   ProgBlockOption{"prog_2x3", 2, 3, 2.0}};
  for (std::uint32_t seed = 1; seed <= 6; ++seed) {
    const Network net =
        randgen::randomNetwork({.innerBlocks = 9, .seed = seed});
    const PartitionProblem problem(net, ProgBlockSpec{});
    const int n = static_cast<int>(net.innerBlocks().size());
    const MilliCostModel milli = toMilliCosts(model, n);
    ExhaustiveOptions reference;
    reference.threads = 1;
    reference.pruningBound = false;
    const PartitionRun unpruned =
        multiTypeExhaustive(problem, model, reference);
    ASSERT_TRUE(unpruned.optimal) << "seed " << seed;
    EXPECT_EQ(unpruned.pruned, 0u);
    for (int threads : kThreadCounts) {
      ExhaustiveOptions options;
      options.threads = threads;
      const PartitionRun pruned =
          multiTypeExhaustive(problem, model, options);
      ASSERT_TRUE(pruned.optimal) << "seed " << seed;
      const std::string label =
          "seed " + std::to_string(seed) + " @" + std::to_string(threads);
      EXPECT_EQ(milli.totalCost(unpruned.result, n),
                milli.totalCost(pruned.result, n))
          << label;
      ASSERT_EQ(unpruned.result.partitions.size(),
                pruned.result.partitions.size())
          << label;
      for (std::size_t i = 0; i < unpruned.result.partitions.size(); ++i) {
        EXPECT_EQ(unpruned.result.partitions[i].toVector(),
                  pruned.result.partitions[i].toVector())
            << label;
        EXPECT_EQ(unpruned.result.optionIndex[i],
                  pruned.result.optionIndex[i])
            << label;
      }
      EXPECT_TRUE(verifyPartitioning(problem, model, pruned.result).empty())
          << label;
      if (threads == 1) {
        EXPECT_LE(pruned.explored, unpruned.explored) << label;
      }
    }
  }
}

TEST(PruningBound, MultiTypeSignalsModeBitIdentical) {
  ProgCostModel model;
  model.preDefinedBlockCost = 1.0;
  model.options = {ProgBlockOption{"prog_2x2", 2, 2, 1.5}};
  const Network net = randgen::randomNetwork({.innerBlocks = 10, .seed = 9});
  const PartitionProblem problem(
      net, ProgBlockSpec{.mode = CountingMode::kSignals});
  const int n = static_cast<int>(net.innerBlocks().size());
  const MilliCostModel milli = toMilliCosts(model, n);
  ExhaustiveOptions reference;
  reference.threads = 1;
  reference.pruningBound = false;
  const PartitionRun unpruned =
      multiTypeExhaustive(problem, model, reference);
  ExhaustiveOptions options;
  options.threads = 4;
  const PartitionRun pruned = multiTypeExhaustive(problem, model, options);
  EXPECT_EQ(milli.totalCost(unpruned.result, n),
            milli.totalCost(pruned.result, n));
  ASSERT_EQ(unpruned.result.partitions.size(),
            pruned.result.partitions.size());
  for (std::size_t i = 0; i < unpruned.result.partitions.size(); ++i)
    EXPECT_EQ(unpruned.result.partitions[i].toVector(),
              pruned.result.partitions[i].toVector());
  EXPECT_LE(pruned.explored, unpruned.explored);
}

TEST(PruningBound, EnginePlumbsThePruningFlag) {
  // runPartitioner must forward EngineOptions::pruningBound; both
  // settings reach the identical optimum and the disabled run reports
  // zero pruned subtrees.
  const Network net = designs::figure5();
  const PartitionProblem problem(net, ProgBlockSpec{});
  EngineOptions on;
  on.threads = 1;
  const PartitionRun prunedRun = runPartitioner("exhaustive", problem, on);
  EngineOptions off = on;
  off.pruningBound = false;
  const PartitionRun unprunedRun = runPartitioner("exhaustive", problem, off);
  EXPECT_EQ(unprunedRun.pruned, 0u);
  expectIdentical(unprunedRun, prunedRun, 8, "engine plumbing");
  EXPECT_LE(prunedRun.explored, unprunedRun.explored);
}

TEST(PruningBound, TimeLimitedRunStillReturnsVerifiedResult) {
  // The pruning layer must not disturb the timeout path: the best-so-far
  // result still verifies and is never worse than the seed.
  const Network net = randgen::randomNetwork({.innerBlocks = 26, .seed = 3});
  const PartitionProblem problem(net, ProgBlockSpec{});
  ExhaustiveOptions options;
  options.threads = 4;
  options.timeLimitSeconds = 0.02;
  options.seed = pareDown(problem).result;
  const PartitionRun run = exhaustiveSearch(problem, options);
  EXPECT_TRUE(run.timedOut);
  EXPECT_TRUE(verifyPartitioning(problem, run.result).empty());
  EXPECT_LE(run.result.totalAfter(26), options.seed->totalAfter(26));
}

}  // namespace
}  // namespace eblocks::partition
