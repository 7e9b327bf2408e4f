// The deadline degradation ladder (partition/ladder.h): a feasible
// partitioning at ANY deadline, the correct `degradedTier` annotation
// for how far the deadline let it climb, and bit-identity with the
// exact branch-and-bound when the deadline is generous.
#include "partition/ladder.h"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>

#include "designs/library.h"
#include "partition/engine.h"
#include "partition/exhaustive.h"
#include "partition/verify.h"
#include "randgen/generator.h"

namespace eblocks::partition {
namespace {

void expectSamePartitions(const Partitioning& a, const Partitioning& b,
                          const std::string& label) {
  ASSERT_EQ(a.partitions.size(), b.partitions.size()) << label;
  for (std::size_t i = 0; i < a.partitions.size(); ++i)
    EXPECT_EQ(a.partitions[i].toVector(), b.partitions[i].toVector())
        << label;
}

TEST(Ladder, NearZeroDeadlineIsFeasibleGreedyOnTable1) {
  // A deadline of a nanosecond buys exactly the unconditional rung:
  // greedy runs, nothing else gets a slice, and the run says so.
  for (const auto& entry : designs::designLibrary()) {
    const PartitionProblem problem(entry.network, ProgBlockSpec{});
    EngineOptions options;
    options.timeLimitSeconds = 1e-9;
    const PartitionRun run = degradationLadder(problem, options);
    EXPECT_TRUE(verifyPartitioning(problem, run.result).empty())
        << entry.name;
    EXPECT_EQ(run.algorithm, "ladder") << entry.name;
    EXPECT_EQ(run.degradedTier, "greedy") << entry.name;
    EXPECT_FALSE(run.optimal) << entry.name;
    EXPECT_TRUE(run.timedOut) << entry.name;
  }
}

TEST(Ladder, NearZeroDeadlineIsFeasibleOn25RandomDesigns) {
  randgen::GeneratorOptions gen;
  for (std::uint32_t seed = 1; seed <= 25; ++seed) {
    gen.innerBlocks = 6 + static_cast<int>(seed % 12);
    gen.seed = seed;
    const Network net = randgen::randomNetwork(gen);
    const PartitionProblem problem(net, ProgBlockSpec{});
    EngineOptions options;
    options.timeLimitSeconds = 1e-9;
    const PartitionRun run = degradationLadder(problem, options);
    EXPECT_TRUE(verifyPartitioning(problem, run.result).empty())
        << "seed " << seed;
    EXPECT_EQ(run.degradedTier, "greedy") << "seed " << seed;
  }
}

TEST(Ladder, GenerousDeadlineMatchesExactOptimumBitIdentically) {
  // With room to finish, the ladder's last rung completes: optimal,
  // degradedTier unset, and the partitioning is the branch-and-bound's
  // canonical optimum -- bit-identical, not merely equal-cost (the PR 7
  // warm-start guarantee: a completed seeded search returns the same
  // canonical solution as an unseeded one).
  for (const auto& entry : designs::designLibrary()) {
    if (entry.innerBlocks > 16) continue;  // keep the exact reference cheap
    const PartitionProblem problem(entry.network, ProgBlockSpec{});
    ExhaustiveOptions exact;
    exact.threads = 1;
    const PartitionRun reference = exhaustiveSearch(problem, exact);
    ASSERT_TRUE(reference.optimal) << entry.name;

    EngineOptions options;
    options.timeLimitSeconds = 0.0;  // <= 0 = unlimited
    options.threads = 1;
    const PartitionRun run = degradationLadder(problem, options);
    EXPECT_TRUE(run.optimal) << entry.name;
    EXPECT_FALSE(run.timedOut) << entry.name;
    EXPECT_EQ(run.degradedTier, "") << entry.name;
    expectSamePartitions(run.result, reference.result, entry.name);
  }
}

TEST(Ladder, LimitsTooLongForTheClockMeanNoLimit) {
  // +inf, NaN, and limits past what steady_clock can hold set no
  // deadline, like 0: every rung runs and the exact one completes.
  const Network net = randgen::randomNetwork(
      randgen::GeneratorOptions::largeNetwork(16, 3));
  const PartitionProblem problem(net, ProgBlockSpec{});
  EngineOptions options;
  options.threads = 1;
  options.timeLimitSeconds = 0.0;
  const PartitionRun unlimited = degradationLadder(problem, options);
  ASSERT_TRUE(unlimited.optimal);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (const double limit : {1e10, kInf, kNaN}) {
    options.timeLimitSeconds = limit;
    const PartitionRun run = degradationLadder(problem, options);
    EXPECT_TRUE(run.optimal) << limit;
    EXPECT_EQ(run.degradedTier, "") << limit;
    EXPECT_EQ(run.explored, unlimited.explored) << limit;
    expectSamePartitions(run.result, unlimited.result, "ladder");
  }
}

TEST(Ladder, RegisteredInEngineAndReachableByName) {
  const Network net = designs::figure5();
  const PartitionProblem problem(net, ProgBlockSpec{});
  EngineOptions options;
  options.timeLimitSeconds = 0.0;
  options.threads = 1;
  const PartitionRun run = runPartitioner("ladder", problem, options);
  EXPECT_EQ(run.algorithm, "ladder");
  EXPECT_TRUE(run.optimal);
  EXPECT_TRUE(verifyPartitioning(problem, run.result).empty());
}

TEST(Ladder, TierNamesAreMonotoneInDeadline) {
  // The tier can only climb as the deadline grows: greedy at nothing,
  // "" (exact) at unlimited.  Intermediate deadlines may land anywhere
  // in between depending on machine speed, so only the endpoints are
  // asserted exactly; every returned tier must be a known rung.
  const Network net = designs::figure5();
  const PartitionProblem problem(net, ProgBlockSpec{});
  const auto rank = [](const std::string& tier) {
    if (tier == "greedy") return 0;
    if (tier == "fm") return 1;
    if (tier == "lns") return 2;
    if (tier == "exact-anytime") return 3;
    if (tier.empty()) return 4;
    return -1;  // unknown tier name = failure
  };
  int previous = 0;
  for (const double deadline : {1e-9, 5.0, 0.0}) {
    EngineOptions options;
    options.timeLimitSeconds = deadline;
    options.threads = 1;
    const PartitionRun run = degradationLadder(problem, options);
    const int r = rank(run.degradedTier);
    ASSERT_GE(r, 0) << "unknown tier '" << run.degradedTier << "'";
    EXPECT_GE(r, previous) << "deadline " << deadline;
    previous = r;
    EXPECT_TRUE(verifyPartitioning(problem, run.result).empty());
  }
  EXPECT_EQ(previous, 4);  // unlimited must reach the exact rung
}

TEST(Ladder, CancelReturnsFeasibleImmediately) {
  const Network net = designs::figure5();
  const PartitionProblem problem(net, ProgBlockSpec{});
  std::atomic<bool> cancel{true};  // cancelled before it starts
  EngineOptions options;
  options.timeLimitSeconds = 0.0;
  options.cancel = &cancel;
  const PartitionRun run = degradationLadder(problem, options);
  // The unconditional greedy rung still delivers a feasible answer.
  EXPECT_TRUE(verifyPartitioning(problem, run.result).empty());
  EXPECT_EQ(run.degradedTier, "greedy");
  EXPECT_FALSE(run.optimal);
}

}  // namespace
}  // namespace eblocks::partition
