// Warm-start coupling: a heuristic incumbent seeds the exact searches'
// shared atomic incumbent.  Contract: the returned optimum is
// bit-identical to the unseeded search's at every thread count, and the
// seeded search explores fewer (or equal) nodes -- the heuristic as a
// pruning accelerator.  Also pins the plain exact search and every typed
// result by digest, and covers ExhaustiveOptions::nodeBudget, the LNS
// repair oracle's leash.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "designs/library.h"
#include "partition/engine.h"
#include "partition/exhaustive.h"
#include "partition/fm_refine.h"
#include "partition/greedy_seed.h"
#include "partition/multitype.h"
#include "partition/paredown.h"
#include "partition/verify.h"
#include "randgen/generator.h"

namespace eblocks::partition {
namespace {

Partitioning fmSolution(const PartitionProblem& problem) {
  return fmRefine(problem, greedySeed(problem).result).result;
}

void expectSamePartitions(const Partitioning& a, const Partitioning& b) {
  ASSERT_EQ(a.partitions.size(), b.partitions.size());
  for (std::size_t i = 0; i < a.partitions.size(); ++i)
    EXPECT_EQ(a.partitions[i].toVector(), b.partitions[i].toVector());
}

void expectSameTyped(const Partitioning& a, const Partitioning& b,
                     const std::string& label) {
  ASSERT_EQ(a.partitions.size(), b.partitions.size()) << label;
  for (std::size_t i = 0; i < a.partitions.size(); ++i)
    EXPECT_EQ(a.partitions[i].toVector(), b.partitions[i].toVector())
        << label << " partition #" << i;
  EXPECT_EQ(a.optionIndex, b.optionIndex) << label;
}

Partitioning typedFmSolution(const PartitionProblem& problem,
                             const ProgCostModel& model) {
  return multiTypeFmRefine(problem, model,
                           multiTypePareDown(problem, model).result)
      .result;
}

TEST(WarmStart, BitIdenticalOptimumAcrossThreadCounts) {
  int tested = 0;
  for (const auto& entry : designs::designLibrary()) {
    if (entry.innerBlocks < 8 || entry.innerBlocks > 16) continue;
    const PartitionProblem problem(entry.network, ProgBlockSpec{});

    ExhaustiveOptions cold;
    cold.threads = 1;
    const PartitionRun baseline = exhaustiveSearch(problem, cold);
    ASSERT_TRUE(baseline.optimal) << entry.name;

    EngineOptions warm;
    warm.seedFromPareDown = false;
    warm.initialIncumbent = fmSolution(problem);
    for (const int threads : {1, 2, 4}) {
      warm.threads = threads;
      const PartitionRun run =
          runPartitioner("exhaustive", problem, warm);
      EXPECT_TRUE(run.optimal) << entry.name << " threads=" << threads;
      expectSamePartitions(run.result, baseline.result);
    }
    if (++tested == 2) break;  // two Table-1 rows keep the test quick
  }
  EXPECT_EQ(tested, 2);
}

TEST(WarmStart, ExploresFewerOrEqualNodesSerially) {
  // Contract half: on every tractable Table-1 row the seeded search is
  // bit-identical and never explores more.  (On these sparse rows the
  // DFS's join-first child order reaches the optimum on its very first
  // dive, so the counts are typically *equal* -- the seed cannot beat an
  // incumbent that is already optimal after one descent.)
  for (const auto& entry : designs::designLibrary()) {
    if (entry.innerBlocks > 16) continue;
    const PartitionProblem problem(entry.network, ProgBlockSpec{});

    ExhaustiveOptions cold;
    cold.threads = 1;
    const PartitionRun unseeded = exhaustiveSearch(problem, cold);

    ExhaustiveOptions warm = cold;
    warm.seed = fmSolution(problem);
    const PartitionRun seeded = exhaustiveSearch(problem, warm);

    expectSamePartitions(seeded.result, unseeded.result);
    EXPECT_LE(seeded.explored, unseeded.explored) << entry.name;
  }

  // Measured half: on dense random designs the first dive is not
  // optimal, the unseeded incumbent converges gradually, and the warm
  // bound prunes nodes the cold search pays for.
  int strictlyFewer = 0;
  for (const int inner : {12, 14, 16}) {
    for (const std::uint32_t seed : {1u, 2u, 3u}) {
      const Network net = randgen::randomNetwork(
          randgen::GeneratorOptions::largeNetwork(inner, seed));
      const PartitionProblem problem(net, ProgBlockSpec{});

      ExhaustiveOptions cold;
      cold.threads = 1;
      const PartitionRun unseeded = exhaustiveSearch(problem, cold);

      ExhaustiveOptions warm = cold;
      warm.seed = fmSolution(problem);
      const PartitionRun seeded = exhaustiveSearch(problem, warm);

      expectSamePartitions(seeded.result, unseeded.result);
      EXPECT_LE(seeded.explored, unseeded.explored)
          << "inner=" << inner << " seed=" << seed;
      if (seeded.explored < unseeded.explored) ++strictlyFewer;
    }
  }
  // The acceptance bar: a measured reduction on at least two designs.
  EXPECT_GE(strictlyFewer, 2);
}

TEST(WarmStart, EngineSeedsWithTheCheaperOfPareDownAndIncumbent) {
  const Network net = designs::byName("Noise At Night Detector");
  const PartitionProblem problem(net, ProgBlockSpec{});

  // A deliberately lousy incumbent (one pair) must not displace the
  // PareDown seed: explored counts match the PareDown-seeded search.
  EngineOptions engine;
  engine.threads = 1;
  const PartitionRun pareDownSeeded =
      runPartitioner("exhaustive", problem, engine);

  Partitioning lousy;
  const PartitionRun greedy = greedySeed(problem);
  lousy.partitions.push_back(greedy.result.partitions.front());
  EngineOptions withLousy = engine;
  withLousy.initialIncumbent = lousy;
  const PartitionRun run =
      runPartitioner("exhaustive", problem, withLousy);
  EXPECT_EQ(run.explored, pareDownSeeded.explored);
  expectSamePartitions(run.result, pareDownSeeded.result);
}

// Regression: a seed whose partitions overlap double-counts
// coveredBlocks(), so its totalAfter() understates the true cost; a
// trusted overlapping seed would over-tighten the bound, prune the real
// optimum, and be returned as "optimal".  The verify block must reject
// it outright -- the search then matches the unseeded baseline exactly.
TEST(WarmStart, OverlappingSeedIsRejected) {
  const Network net = designs::byName("Noise At Night Detector");
  const PartitionProblem problem(net, ProgBlockSpec{});

  ExhaustiveOptions cold;
  cold.threads = 1;
  const PartitionRun baseline = exhaustiveSearch(problem, cold);

  // Copies of one valid partition: each passes verifyPartitioning on
  // its own, together they cover the same blocks repeatedly.  Stack enough
  // that the double-counted cost undercuts the true optimum -- a trusted
  // seed would then prune every real solution and be returned verbatim.
  const PartitionRun greedy = greedySeed(problem);
  ASSERT_FALSE(greedy.result.partitions.empty());
  const int n = problem.innerCount();
  Partitioning overlapping;
  do {
    overlapping.partitions.push_back(greedy.result.partitions.front());
  } while (overlapping.totalAfter(n) >= baseline.result.totalAfter(n));

  ExhaustiveOptions warm = cold;
  warm.seed = overlapping;
  const PartitionRun run = exhaustiveSearch(problem, warm);
  EXPECT_TRUE(verifyPartitioning(problem, run.result).empty());
  EXPECT_TRUE(run.optimal);
  EXPECT_EQ(run.explored, baseline.explored);
  expectSamePartitions(run.result, baseline.result);
}

TEST(WarmStart, TypedIncumbentKeepsOptimumAndPrunes) {
  const ProgCostModel model = ProgCostModel::paperDefault();
  const Network net = designs::byName("Noise At Night Detector");
  const PartitionProblem problem(net, ProgBlockSpec{});
  const int n = static_cast<int>(net.innerBlocks().size());
  const MilliCostModel milli = toMilliCosts(model, n);

  EngineOptions cold;
  cold.threads = 1;
  cold.seedFromPareDown = false;
  const PartitionRun baseline =
      runPartitioner("exhaustive", problem, model, cold);
  ASSERT_TRUE(baseline.optimal);

  EngineOptions warm = cold;
  warm.initialIncumbent = typedFmSolution(problem, model);
  const PartitionRun seeded =
      runPartitioner("exhaustive", problem, model, warm);
  EXPECT_TRUE(seeded.optimal);
  EXPECT_EQ(milli.totalCost(seeded.result, n),
            milli.totalCost(baseline.result, n));
  expectSameTyped(seeded.result, baseline.result, "fm-seeded");
  EXPECT_LE(seeded.explored, baseline.explored);
}

/// The typed sweep: the Table-1 rows with <= 13 inner blocks under the
/// paper's cost model, plus 25 random designs under a two-option model
/// and the same 25 under a three-option model in kSignals mode.
struct TypedDesign {
  std::string label;
  Network net;
  ProgCostModel model;
  CountingMode mode = CountingMode::kEdges;

  PartitionProblem problem() const {
    return PartitionProblem(net, ProgBlockSpec{.mode = mode});
  }
};

std::vector<TypedDesign> typedSweep() {
  std::vector<TypedDesign> sweep;
  for (const auto& entry : designs::designLibrary())
    if (entry.innerBlocks <= 13)
      sweep.push_back({entry.name, entry.network,
                       ProgCostModel::paperDefault()});
  ProgCostModel twoOptions;
  twoOptions.options = {ProgBlockOption{"prog_2x2", 2, 2, 1.5},
                        ProgBlockOption{"prog_2x3", 2, 3, 2.0}};
  ProgCostModel threeSignals;
  threeSignals.options = {ProgBlockOption{"prog_2x2", 2, 2, 1.5},
                          ProgBlockOption{"prog_3x2", 3, 2, 1.8},
                          ProgBlockOption{"prog_4x4", 4, 4, 2.6}};
  for (const ProgCostModel* model : {&twoOptions, &threeSignals})
    for (std::uint32_t seed = 1; seed <= 25; ++seed)
      sweep.push_back({"seed " + std::to_string(seed) +
                           (model == &threeSignals ? " (3, signals)" : ""),
                       randgen::randomNetwork(
                           {.innerBlocks = 8 + static_cast<int>(seed % 3),
                            .seed = seed}),
                       *model,
                       model == &threeSignals ? CountingMode::kSignals
                                              : CountingMode::kEdges});
  return sweep;
}

TEST(WarmStart, TypedSeedsReturnTheColdPartitioningOnTheSweep) {
  // The plain search's warm-start contract, held for the typed search on
  // the whole sweep.  Seeded from PareDown or from an fm incumbent, the
  // serial search must return the cold search's partitions and options,
  // bit for bit.
  const std::vector<TypedDesign> sweep = typedSweep();
  ASSERT_EQ(sweep.size(), 62u);

  for (const TypedDesign& d : sweep) {
    const PartitionProblem problem = d.problem();
    EngineOptions cold;
    cold.threads = 1;
    cold.seedFromPareDown = false;
    const PartitionRun baseline =
        runPartitioner("exhaustive", problem, d.model, cold);
    ASSERT_TRUE(baseline.optimal) << d.label;

    EngineOptions pareDownSeeded = cold;
    pareDownSeeded.seedFromPareDown = true;
    const PartitionRun fromPareDown =
        runPartitioner("exhaustive", problem, d.model, pareDownSeeded);
    EXPECT_TRUE(fromPareDown.optimal) << d.label;
    expectSameTyped(fromPareDown.result, baseline.result,
                    d.label + " (PareDown seed)");
    EXPECT_LE(fromPareDown.explored, baseline.explored) << d.label;

    EngineOptions fmSeeded = cold;
    fmSeeded.initialIncumbent = typedFmSolution(problem, d.model);
    const PartitionRun fromFm =
        runPartitioner("exhaustive", problem, d.model, fmSeeded);
    EXPECT_TRUE(fromFm.optimal) << d.label;
    expectSameTyped(fromFm.result, baseline.result, d.label + " (fm seed)");
    EXPECT_LE(fromFm.explored, baseline.explored) << d.label;
  }
}

/// FNV-1a-64 over a run's partitions, options, and effort counters.
struct Fnv1a64 {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  void add(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (value >> (8 * i)) & 0xff;
      hash *= 0x100000001b3ull;
    }
  }
  void add(const PartitionRun& run) {
    add(run.explored);
    add(run.pruned);
    add(run.result.partitions.size());
    for (const BitSet& p : run.result.partitions) {
      const auto members = p.toVector();
      add(members.size());
      for (const auto b : members) add(static_cast<std::uint64_t>(b));
    }
    add(run.result.optionIndex.size());
    for (const int option : run.result.optionIndex)
      add(static_cast<std::uint64_t>(option));
  }
};

TEST(WarmStart, TypedResultsMatchTheRecordedDigests) {
  // Pins every typed result on the sweep -- partitions, options, explored
  // and pruned -- for PareDown, fm, and the serial cold exact search.
  // Any change to these digests is a change in typed behavior.
  Fnv1a64 pareDown, fm, exact;
  for (const TypedDesign& d : typedSweep()) {
    const PartitionProblem problem = d.problem();
    pareDown.add(runPartitioner("paredown", problem, d.model));
    fm.add(runPartitioner("fm", problem, d.model));
    EngineOptions cold;
    cold.threads = 1;
    cold.seedFromPareDown = false;
    exact.add(runPartitioner("exhaustive", problem, d.model, cold));
  }
  EXPECT_EQ(pareDown.hash, 0x9e731863f3e403e2ull)
      << std::hex << pareDown.hash;
  EXPECT_EQ(fm.hash, 0x058b207ad74b03afull)
      << std::hex << fm.hash;
  EXPECT_EQ(exact.hash, 0x2de8e5f00d4b22e0ull)
      << std::hex << exact.hash;
}

TEST(WarmStart, PlainExactResultsMatchTheRecordedDigests) {
  // Pins the serial plain search -- partitions, explored and pruned --
  // in both counting modes, in three legs: cold with the bound on,
  // PareDown-seeded with the bound on, and PareDown-seeded unpruned.
  // The sweep is the Table-1 rows with <= 13 inner blocks, the pruning
  // suite's 25 random designs and largeNetwork(14, 1..5); the unpruned
  // leg skips the 14-inner designs (~6.6e9 nodes).  Any change to these
  // digests is a change in which nodes the search visits.
  std::vector<Network> sweep;
  for (const auto& entry : designs::designLibrary())
    if (entry.innerBlocks <= 13) sweep.push_back(entry.network);
  for (std::uint32_t seed = 1; seed <= 25; ++seed)
    sweep.push_back(randgen::randomNetwork(
        {.innerBlocks = 8 + static_cast<int>(seed % 3), .seed = seed}));
  for (std::uint32_t seed = 1; seed <= 5; ++seed)
    sweep.push_back(randgen::randomNetwork(
        randgen::GeneratorOptions::largeNetwork(14, seed)));
  ASSERT_EQ(sweep.size(), 42u);

  Fnv1a64 cold, seeded, unpruned;
  for (const Network& net : sweep) {
    for (const CountingMode mode :
         {CountingMode::kEdges, CountingMode::kSignals}) {
      const PartitionProblem problem(
          net, ProgBlockSpec{.inputs = 2, .outputs = 2, .mode = mode});
      ExhaustiveOptions options;
      options.threads = 1;
      cold.add(exhaustiveSearch(problem, options));
      options.seed = pareDown(problem).result;
      seeded.add(exhaustiveSearch(problem, options));
      if (problem.innerCount() >= 14) continue;
      options.pruningBound = false;
      unpruned.add(exhaustiveSearch(problem, options));
    }
  }
  EXPECT_EQ(cold.hash, 0x3306a08615aa7789ull) << std::hex << cold.hash;
  EXPECT_EQ(seeded.hash, 0x2a41f4cab59d14ecull)
      << std::hex << seeded.hash;
  EXPECT_EQ(unpruned.hash, 0xae277c3df0e6f540ull)
      << std::hex << unpruned.hash;
}

TEST(NodeBudget, ClipsTheSearchDeterministically) {
  const Network net = randgen::randomNetwork(
      randgen::GeneratorOptions::largeNetwork(40, 11));
  const PartitionProblem problem(net, ProgBlockSpec{});

  ExhaustiveOptions clipped;
  clipped.threads = 1;
  clipped.nodeBudget = 20000;
  const PartitionRun a = exhaustiveSearch(problem, clipped);
  EXPECT_TRUE(a.timedOut);
  EXPECT_FALSE(a.optimal);
  // The budget is checked every 4096 nodes, so the overshoot is bounded
  // by one granule.
  EXPECT_LE(a.explored, clipped.nodeBudget + 0x1000);
  EXPECT_TRUE(verifyPartitioning(problem, a.result).empty());

  // Serial runs abort at a machine-independent node: bit-repeatable.
  const PartitionRun b = exhaustiveSearch(problem, clipped);
  EXPECT_EQ(a.explored, b.explored);
  expectSamePartitions(a.result, b.result);
}

TEST(NodeBudget, ZeroMeansUnlimited) {
  const Network net = designs::figure5();
  const PartitionProblem problem(net, ProgBlockSpec{});
  ExhaustiveOptions options;
  options.threads = 1;
  options.nodeBudget = 0;
  const PartitionRun run = exhaustiveSearch(problem, options);
  EXPECT_TRUE(run.optimal);
  EXPECT_FALSE(run.timedOut);
}

}  // namespace
}  // namespace eblocks::partition
