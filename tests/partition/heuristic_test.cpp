// The heuristic partitioner family: greedy seed, FM refinement, LNS.
// Validity in both counting modes, determinism, monotone improvement
// along the greedy -> fm -> lns chain, optimality gap against the exact
// branch-and-bound, and tractability on networks the exact search
// cannot touch.
#include <gtest/gtest.h>

#include "designs/library.h"
#include "partition/engine.h"
#include "partition/exhaustive.h"
#include "partition/fm_refine.h"
#include "partition/greedy_seed.h"
#include "partition/lns.h"
#include "partition/multitype.h"
#include "partition/verify.h"
#include "randgen/generator.h"

namespace eblocks::partition {
namespace {

ProgBlockSpec specFor(CountingMode mode) {
  ProgBlockSpec spec;
  spec.mode = mode;
  return spec;
}

/// Exact optimum (serial, so cheap designs stay cheap to verify).
int exactTotalAfter(const PartitionProblem& problem) {
  ExhaustiveOptions options;
  options.threads = 1;
  const PartitionRun run = exhaustiveSearch(problem, options);
  EXPECT_TRUE(run.optimal);
  return run.result.totalAfter(problem.innerCount());
}

TEST(Heuristics, GreedySeedValidOnLibraryBothModes) {
  for (const auto& entry : designs::designLibrary()) {
    for (const CountingMode mode :
         {CountingMode::kEdges, CountingMode::kSignals}) {
      const PartitionProblem problem(entry.network, specFor(mode));
      const PartitionRun run = greedySeed(problem);
      EXPECT_EQ(run.algorithm, "greedy");
      EXPECT_TRUE(verifyPartitioning(problem, run.result).empty())
          << entry.name << " mode=" << static_cast<int>(mode);
    }
  }
}

TEST(Heuristics, FmValidAndNeverWorseThanSeed) {
  for (const auto& entry : designs::designLibrary()) {
    for (const CountingMode mode :
         {CountingMode::kEdges, CountingMode::kSignals}) {
      const PartitionProblem problem(entry.network, specFor(mode));
      const PartitionRun seed = greedySeed(problem);
      const PartitionRun fm = fmRefine(problem, seed.result);
      EXPECT_TRUE(verifyPartitioning(problem, fm.result).empty())
          << entry.name;
      EXPECT_LE(fm.result.totalAfter(problem.innerCount()),
                seed.result.totalAfter(problem.innerCount()))
          << entry.name;
    }
  }
}

TEST(Heuristics, FmIsDeterministic) {
  const Network net = designs::byName("Timed Passage");
  const PartitionProblem problem(net, ProgBlockSpec{});
  const EngineOptions options;
  const PartitionRun a = runPartitioner("fm", problem, options);
  const PartitionRun b = runPartitioner("fm", problem, options);
  EXPECT_EQ(a.explored, b.explored);
  ASSERT_EQ(a.result.partitions.size(), b.result.partitions.size());
  for (std::size_t i = 0; i < a.result.partitions.size(); ++i)
    EXPECT_EQ(a.result.partitions[i].toVector(),
              b.result.partitions[i].toVector());
}

// The pinned optimality gap: on every Table-1 design small enough to
// solve exactly in a blink, fm lands within one programmable block of
// the optimum, and lns with a full-design pocket (one round = a seeded
// exact search) matches it bit-for-cost.
TEST(Heuristics, OptimalityGapOnTable1) {
  for (const auto& entry : designs::designLibrary()) {
    if (entry.innerBlocks > 14) continue;  // exact stays sub-second
    const PartitionProblem problem(entry.network, ProgBlockSpec{});
    const int optimum = exactTotalAfter(problem);

    const PartitionRun seed = greedySeed(problem);
    const PartitionRun fm = fmRefine(problem, seed.result);
    EXPECT_LE(fm.result.totalAfter(problem.innerCount()), optimum + 1)
        << entry.name;

    LnsOptions lns;
    lns.pocketSize = problem.innerCount();
    lns.maxRounds = 4;
    lns.repairNodeBudget = 0;  // generous: uncapped repair
    lns.timeLimitSeconds = 0;
    const PartitionRun anytime = lnsSearch(problem, fm.result, lns);
    EXPECT_TRUE(verifyPartitioning(problem, anytime.result).empty())
        << entry.name;
    EXPECT_TRUE(anytime.optimal) << entry.name;
    EXPECT_EQ(anytime.result.totalAfter(problem.innerCount()), optimum)
        << entry.name;
  }
}

// The same gap contract over 25 random small designs, in both modes.
TEST(Heuristics, OptimalityGapOnRandomDesigns) {
  for (int i = 0; i < 25; ++i) {
    randgen::GeneratorOptions gen;
    gen.innerBlocks = 6 + i % 7;  // 6..12
    gen.seed = 1000 + static_cast<std::uint32_t>(i);
    const Network net = randgen::randomNetwork(gen);
    const CountingMode mode =
        i % 2 == 0 ? CountingMode::kEdges : CountingMode::kSignals;
    const PartitionProblem problem(net, specFor(mode));
    const int optimum = exactTotalAfter(problem);

    const PartitionRun seed = greedySeed(problem);
    const PartitionRun fm = fmRefine(problem, seed.result);
    EXPECT_TRUE(verifyPartitioning(problem, fm.result).empty()) << i;
    // Random designs are adversarial for a pass-based refiner; the pin
    // is one block looser than the Table-1 rows'.
    EXPECT_LE(fm.result.totalAfter(problem.innerCount()), optimum + 2) << i;

    LnsOptions lns;
    lns.pocketSize = problem.innerCount();
    lns.maxRounds = 4;
    lns.repairNodeBudget = 0;
    lns.timeLimitSeconds = 0;
    const PartitionRun anytime = lnsSearch(problem, fm.result, lns);
    EXPECT_EQ(anytime.result.totalAfter(problem.innerCount()), optimum) << i;
  }
}

TEST(Heuristics, LnsNeverWorseThanItsInput) {
  for (const auto& entry : designs::designLibrary()) {
    const PartitionProblem problem(entry.network, ProgBlockSpec{});
    const PartitionRun seed = greedySeed(problem);
    const PartitionRun fm = fmRefine(problem, seed.result);
    LnsOptions options;
    options.maxRounds = 8;
    options.timeLimitSeconds = 0;
    options.rngSeed = 7;
    const PartitionRun lns = lnsSearch(problem, fm.result, options);
    EXPECT_TRUE(verifyPartitioning(problem, lns.result).empty())
        << entry.name;
    EXPECT_LE(lns.result.totalAfter(problem.innerCount()),
              fm.result.totalAfter(problem.innerCount()))
        << entry.name;
  }
}

// The tentpole's reason to exist: a network an order of magnitude past
// the exact search's ceiling is partitioned to a valid solution by fm in
// interactive time, and lns keeps improving it under a bounded budget.
TEST(Heuristics, LargeNetworkIsTractable) {
  const Network net =
      randgen::randomNetwork(randgen::GeneratorOptions::largeNetwork(120, 3));
  ASSERT_GE(net.innerBlocks().size(), 100u);
  for (const CountingMode mode :
       {CountingMode::kEdges, CountingMode::kSignals}) {
    const PartitionProblem problem(net, specFor(mode));
    const PartitionRun seed = greedySeed(problem);
    const PartitionRun fm = fmRefine(problem, seed.result);
    EXPECT_TRUE(verifyPartitioning(problem, fm.result).empty());
    EXPECT_LE(fm.result.totalAfter(problem.innerCount()),
              seed.result.totalAfter(problem.innerCount()));

    LnsOptions options;
    options.maxRounds = 40;
    options.timeLimitSeconds = 30;
    options.repairNodeBudget = 50000;
    const PartitionRun lns = lnsSearch(problem, fm.result, options);
    EXPECT_TRUE(verifyPartitioning(problem, lns.result).empty());
    EXPECT_LE(lns.result.totalAfter(problem.innerCount()),
              fm.result.totalAfter(problem.innerCount()));
  }
}

TEST(Heuristics, TypedFmRefinesUnderTheCostModel) {
  const ProgCostModel model = ProgCostModel::paperDefault();
  for (const auto& entry : designs::designLibrary()) {
    const PartitionProblem problem(entry.network, ProgBlockSpec{});
    const PartitionRun seed = multiTypePareDown(problem, model);
    const PartitionRun fm = multiTypeFmRefine(problem, model, seed.result);
    EXPECT_TRUE(verifyPartitioning(problem, model, fm.result).empty())
        << entry.name;
    const int n = static_cast<int>(entry.network.innerBlocks().size());
    const MilliCostModel milli = toMilliCosts(model, n);
    EXPECT_LE(milli.totalCost(fm.result, n), milli.totalCost(seed.result, n))
        << entry.name;
  }
}

// Regression: bestMove() must not cost a probed bin that failed its
// feasibility check -- under the typed model a bin no option fits has no
// cheapest option to cost (empty-optional dereference).  Dense random
// networks under the paper's single tight 2x2 option make infeasible
// probes routine, so any slip here trips the sanitizer jobs.
TEST(Heuristics, TypedFmSurvivesRoutineInfeasibleProbes) {
  const ProgCostModel model = ProgCostModel::paperDefault();
  for (const std::uint32_t seed : {21u, 22u, 23u}) {
    const Network net = randgen::randomNetwork(
        randgen::GeneratorOptions::largeNetwork(40, seed));
    const PartitionProblem problem(net, ProgBlockSpec{});
    const PartitionRun seeded = multiTypePareDown(problem, model);
    const PartitionRun fm = multiTypeFmRefine(problem, model, seeded.result);
    EXPECT_TRUE(verifyPartitioning(problem, model, fm.result).empty())
        << "seed=" << seed;
    const int n = static_cast<int>(net.innerBlocks().size());
    const MilliCostModel milli = toMilliCosts(model, n);
    EXPECT_LE(milli.totalCost(fm.result, n),
              milli.totalCost(seeded.result, n))
        << "seed=" << seed;
  }
}

// Regression: if the wall-clock deadline lapses between the round-start
// check and the repair launch, the repair must not inherit a
// non-positive time limit ("no limit") -- with an uncapped node budget
// and a full-design pocket that repair would run an unbounded exact
// search.  The tiny budget makes the lapse routine; the run must still
// come back promptly, flagged timed-out.
TEST(Heuristics, LnsHonorsDeadlineLapsingMidRound) {
  const Network net =
      randgen::randomNetwork(randgen::GeneratorOptions::largeNetwork(120, 3));
  const PartitionProblem problem(net, ProgBlockSpec{});
  const PartitionRun seed = greedySeed(problem);
  LnsOptions options;
  options.maxRounds = 0;                      // only the clock stops it
  options.stallRounds = 0;
  options.pocketSize = problem.innerCount();  // full-design pocket
  options.repairNodeBudget = 0;               // uncapped repair
  options.timeLimitSeconds = 1e-4;
  const PartitionRun run = lnsSearch(problem, seed.result, options);
  EXPECT_TRUE(run.timedOut);
  EXPECT_LE(run.seconds, 5.0);
  EXPECT_TRUE(verifyPartitioning(problem, run.result).empty());
}

TEST(Heuristics, TypedFmWithinGapOfTypedExhaustive) {
  const ProgCostModel model = ProgCostModel::paperDefault();
  for (const auto& entry : designs::designLibrary()) {
    if (entry.innerBlocks > 12) continue;
    const PartitionProblem problem(entry.network, ProgBlockSpec{});
    ExhaustiveOptions exact;
    exact.threads = 1;
    const PartitionRun optimum = multiTypeExhaustive(problem, model, exact);
    ASSERT_TRUE(optimum.optimal) << entry.name;
    const PartitionRun fm = runPartitioner("fm", problem, model);
    const int n = static_cast<int>(entry.network.innerBlocks().size());
    const MilliCostModel milli = toMilliCosts(model, n);
    // Gap pinned at one programmable-block upgrade's worth of cost.
    EXPECT_LE(milli.totalCost(fm.result, n),
              milli.totalCost(optimum.result, n) + milli.preDefinedBlockCost)
        << entry.name;
    EXPECT_GE(milli.totalCost(fm.result, n),
              milli.totalCost(optimum.result, n))
        << entry.name;
  }
}

TEST(Heuristics, EngineStrategiesChainAndReport) {
  const Network net = designs::byName("Noise At Night Detector");
  const PartitionProblem problem(net, ProgBlockSpec{});
  const PartitionRun greedy = runPartitioner("greedy", problem);
  const PartitionRun fm = runPartitioner("fm", problem);
  EngineOptions lnsOptions;
  lnsOptions.lnsRounds = 8;
  const PartitionRun lns = runPartitioner("lns", problem, lnsOptions);
  EXPECT_EQ(greedy.algorithm, "greedy");
  EXPECT_EQ(fm.algorithm, "fm");
  EXPECT_EQ(lns.algorithm, "lns");
  const int n = problem.innerCount();
  EXPECT_LE(fm.result.totalAfter(n), greedy.result.totalAfter(n));
  EXPECT_LE(lns.result.totalAfter(n), fm.result.totalAfter(n));
}

}  // namespace
}  // namespace eblocks::partition
