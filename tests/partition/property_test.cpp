// Property-based tests over randomly generated networks: invariants that
// must hold for every algorithm on every design.
#include <gtest/gtest.h>

#include "core/subgraph.h"
#include "partition/aggregation.h"
#include "partition/exhaustive.h"
#include "partition/paredown.h"
#include "partition/verify.h"
#include "randgen/generator.h"

namespace eblocks::partition {
namespace {

struct PropertyCase {
  int innerBlocks;
  std::uint32_t seed;
};

class PartitionProperties : public ::testing::TestWithParam<PropertyCase> {
 protected:
  PartitionProperties()
      : net(randgen::randomNetwork(randgen::GeneratorOptions{
            .innerBlocks = GetParam().innerBlocks,
            .seed = GetParam().seed})),
        problem(net, ProgBlockSpec{}) {}

  Network net;
  PartitionProblem problem;
};

TEST_P(PartitionProperties, GeneratedNetworksAreWellFormed) {
  const auto problems = net.validate();
  EXPECT_TRUE(problems.empty()) << problems.front();
  EXPECT_TRUE(net.isAcyclic());
}

TEST_P(PartitionProperties, PareDownVerifies) {
  const PartitionRun run = pareDown(problem);
  const auto violations = verifyPartitioning(problem, run.result);
  EXPECT_TRUE(violations.empty()) << violations.front();
}

TEST_P(PartitionProperties, BorderRemovalPreservesConvexity) {
  // The lemma behind PareDown's first round: the full inner set is convex
  // (paths between inner blocks run through inner blocks only), and
  // removing a border block keeps a convex candidate convex.  Later rounds
  // start from punctured leftovers and may legitimately go non-convex,
  // which the packet protocol tolerates (verify.h); behavioral safety of
  // those partitions is covered by the synthesis equivalence fuzz tests.
  BitSet candidate = net.innerSet();
  if (candidate.none()) return;
  ASSERT_TRUE(isConvex(net, candidate));
  while (candidate.count() > 1) {
    const auto border = borderBlocks(net, candidate);
    ASSERT_FALSE(border.empty());
    candidate.reset(border.front());
    EXPECT_TRUE(isConvex(net, candidate));
  }
}

TEST_P(PartitionProperties, AggregationVerifies) {
  const PartitionRun run = aggregation(problem);
  const auto violations = verifyPartitioning(problem, run.result);
  EXPECT_TRUE(violations.empty()) << violations.front();
}

TEST_P(PartitionProperties, CostAccountingConsistent) {
  const PartitionRun run = pareDown(problem);
  const int n = problem.innerCount();
  int covered = 0;
  for (const BitSet& p : run.result.partitions)
    covered += static_cast<int>(p.count());
  EXPECT_EQ(run.result.coveredBlocks(), covered);
  EXPECT_EQ(run.result.totalAfter(n),
            n - covered + static_cast<int>(run.result.partitions.size()));
  EXPECT_LE(run.result.totalAfter(n), n);  // never worse than doing nothing
}

TEST_P(PartitionProperties, EveryPartitionShrinksTheNetwork) {
  // Each partition has >= 2 members, so each replacement strictly reduces
  // the inner-block count.
  const PartitionRun run = pareDown(problem);
  for (const BitSet& p : run.result.partitions) EXPECT_GE(p.count(), 2u);
}

INSTANTIATE_TEST_SUITE_P(
    RandomDesigns, PartitionProperties,
    ::testing::Values(PropertyCase{3, 11}, PropertyCase{5, 12},
                      PropertyCase{8, 13}, PropertyCase{12, 14},
                      PropertyCase{17, 15}, PropertyCase{24, 16},
                      PropertyCase{33, 17}, PropertyCase{45, 18},
                      PropertyCase{60, 19}, PropertyCase{10, 20},
                      PropertyCase{10, 21}, PropertyCase{10, 22}),
    [](const auto& paramInfo) {
      return std::string("n")
          .append(std::to_string(paramInfo.param.innerBlocks))
          .append("_s")
          .append(std::to_string(paramInfo.param.seed));
    });

class ExhaustiveProperties : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(ExhaustiveProperties, OptimalAtLeastAsGoodAsBothHeuristics) {
  const Network net = randgen::randomNetwork(randgen::GeneratorOptions{
      .innerBlocks = GetParam().innerBlocks, .seed = GetParam().seed});
  const PartitionProblem problem(net, ProgBlockSpec{});
  const int n = problem.innerCount();
  const PartitionRun exact = exhaustiveSearch(problem);
  ASSERT_TRUE(exact.optimal);
  EXPECT_LE(exact.result.totalAfter(n), pareDown(problem).result.totalAfter(n));
  EXPECT_LE(exact.result.totalAfter(n),
            aggregation(problem).result.totalAfter(n));
}

INSTANTIATE_TEST_SUITE_P(
    SmallRandomDesigns, ExhaustiveProperties,
    ::testing::Values(PropertyCase{3, 31}, PropertyCase{4, 32},
                      PropertyCase{5, 33}, PropertyCase{6, 34},
                      PropertyCase{7, 35}, PropertyCase{8, 36},
                      PropertyCase{9, 37}, PropertyCase{10, 38}),
    [](const auto& paramInfo) {
      return std::string("n")
          .append(std::to_string(paramInfo.param.innerBlocks))
          .append("_s")
          .append(std::to_string(paramInfo.param.seed));
    });

}  // namespace
}  // namespace eblocks::partition
