#include "partition/multitype.h"

#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "blocks/catalog.h"
#include "designs/library.h"
#include "partition/paredown.h"
#include "randgen/generator.h"

namespace eblocks::partition {
namespace {

using blocks::defaultCatalog;

ProgCostModel modelOf(std::initializer_list<ProgBlockOption> options,
                      double preCost = 1.0) {
  ProgCostModel m;
  m.preDefinedBlockCost = preCost;
  m.options = options;
  return m;
}

TEST(MultiType, PaperDefaultMatchesClassicPareDown) {
  // One 2x2 option with cost in (1, 2) reproduces the base problem: pairs
  // and larger are beneficial, singles are not.
  for (std::uint32_t seed = 1; seed <= 8; ++seed) {
    const Network net = randgen::randomNetwork({.innerBlocks = 12,
                                                .seed = seed});
    const PartitionProblem problem(net, ProgBlockSpec{});
    const PartitionRun typed =
        multiTypePareDown(problem, ProgCostModel::paperDefault());
    const PartitionRun classic = pareDown(problem);
    ASSERT_EQ(typed.result.partitions.size(),
              classic.result.partitions.size())
        << "seed " << seed;
    for (std::size_t i = 0; i < typed.result.partitions.size(); ++i)
      EXPECT_EQ(typed.result.partitions[i].toVector(),
                classic.result.partitions[i].toVector());
  }
}

TEST(MultiType, CheapestFittingOptionPrefersPrice) {
  const Network net = designs::figure5();
  BitSet pair = net.emptySet();
  pair.set(5);  // node 6
  pair.set(8);  // node 9
  const auto model = modelOf({{"big", 4, 4, 3.0}, {"small", 2, 2, 1.2}});
  const auto idx =
      cheapestFittingOption(countIo(net, pair, CountingMode::kEdges), model);
  ASSERT_TRUE(idx.has_value());
  EXPECT_EQ(model.options[static_cast<std::size_t>(*idx)].name, "small");
}

TEST(MultiType, NoFittingOptionReturnsNull) {
  const Network net = designs::figure5();
  const auto model = modelOf({{"tiny", 1, 1, 1.2}});
  EXPECT_FALSE(cheapestFittingOption(
                   countIo(net, net.innerSet(), CountingMode::kEdges), model)
                   .has_value());
}

TEST(MultiType, WiderOptionSwallowsFigure5Whole) {
  // A 2-in/3-out option fits all eight inner blocks of Podium Timer 3 at
  // once; with any cost below 8 the whole design becomes one block.
  const Network net = designs::figure5();
  const auto model = modelOf({{"prog_2x2", 2, 2, 1.5},
                              {"prog_2x3", 2, 3, 2.0}});
  const PartitionRun run =
      multiTypePareDown(PartitionProblem(net, ProgBlockSpec{}), model);
  ASSERT_EQ(run.result.partitions.size(), 1u);
  EXPECT_EQ(run.result.partitions[0].count(), 8u);
  EXPECT_EQ(model.options[static_cast<std::size_t>(run.result.optionIndex[0])]
                .name,
            "prog_2x3");
  EXPECT_EQ(toMilliCosts(model, 8).totalCost(run.result, 8), 2000);
}

TEST(MultiType, ExpensiveProgrammableRaisesTheBar) {
  // cost(prog) = 3.0: pairs (worth 2.0) are no longer beneficial; only
  // partitions of >= 4 blocks pay off.  s->a->b->o chains of length 2
  // stay unreplaced.
  const auto& cat = defaultCatalog();
  Network net;
  const BlockId s = net.addBlock("s", cat.button());
  const BlockId a = net.addBlock("a", cat.inverter());
  const BlockId b = net.addBlock("b", cat.toggle());
  const BlockId o = net.addBlock("o", cat.led());
  net.connect(s, 0, a, 0);
  net.connect(a, 0, b, 0);
  net.connect(b, 0, o, 0);
  const auto cheap = modelOf({{"prog", 2, 2, 1.5}});
  const auto pricey = modelOf({{"prog", 2, 2, 3.0}});
  const PartitionProblem problem(net, ProgBlockSpec{});
  EXPECT_EQ(multiTypePareDown(problem, cheap).result.partitions.size(), 1u);
  EXPECT_TRUE(multiTypePareDown(problem, pricey).result.partitions.empty());
}

TEST(MultiType, HeuristicResultsAlwaysVerify) {
  const auto model = modelOf({{"prog_2x2", 2, 2, 1.5},
                              {"prog_3x2", 3, 2, 1.9},
                              {"prog_4x4", 4, 4, 2.8}});
  for (std::uint32_t seed = 1; seed <= 10; ++seed) {
    const Network net = randgen::randomNetwork({.innerBlocks = 20,
                                                .seed = seed});
    const PartitionProblem problem(net, ProgBlockSpec{});
    const PartitionRun run = multiTypePareDown(problem, model);
    const auto violations = verifyPartitioning(problem, model, run.result);
    EXPECT_TRUE(violations.empty())
        << "seed " << seed << ": " << violations.front();
  }
}

TEST(MultiType, ExhaustiveNeverCostsMoreThanHeuristic) {
  const auto model = modelOf({{"prog_2x2", 2, 2, 1.5},
                              {"prog_2x3", 2, 3, 2.0}});
  for (std::uint32_t seed = 1; seed <= 6; ++seed) {
    const Network net = randgen::randomNetwork({.innerBlocks = 8,
                                                .seed = seed});
    const int n = static_cast<int>(net.innerBlocks().size());
    const MilliCostModel milli = toMilliCosts(model, n);
    const PartitionProblem problem(net, ProgBlockSpec{});
    const PartitionRun heuristic = multiTypePareDown(problem, model);
    const PartitionRun exact = multiTypeExhaustive(problem, model);
    ASSERT_TRUE(exact.optimal);
    EXPECT_LE(milli.totalCost(exact.result, n),
              milli.totalCost(heuristic.result, n))
        << "seed " << seed;
    EXPECT_TRUE(verifyPartitioning(problem, model, exact.result).empty());
  }
}

TEST(MultiType, ExhaustivePicksMixOfBlockSizes) {
  // Figure 5: optimal with {2x2 @1.5, 2x3 @2.0} is the single 2x3 block
  // (cost 2.0 beats any 2x2 decomposition, whose best is 1 + 2*1.5 = 4).
  const Network net = designs::figure5();
  const auto model = modelOf({{"prog_2x2", 2, 2, 1.5},
                              {"prog_2x3", 2, 3, 2.0}});
  const PartitionRun run =
      multiTypeExhaustive(PartitionProblem(net, ProgBlockSpec{}), model);
  ASSERT_TRUE(run.optimal);
  EXPECT_EQ(toMilliCosts(model, 8).totalCost(run.result, 8), 2000);
}

TEST(MultiType, TimeLimitStillVerifies) {
  const auto model = modelOf({{"prog_2x2", 2, 2, 1.5},
                              {"prog_4x4", 4, 4, 2.5}});
  // 40 inner blocks: the search is still running after 20 s at 4 threads
  // (a 24-inner design finished in 45 ms, too close to the limit).
  const Network net = randgen::randomNetwork({.innerBlocks = 40, .seed = 5});
  const PartitionProblem problem(net, ProgBlockSpec{});
  ExhaustiveOptions options;
  options.timeLimitSeconds = 0.02;
  options.seed = multiTypePareDown(problem, model).result;
  const PartitionRun run = multiTypeExhaustive(problem, model, options);
  EXPECT_TRUE(run.timedOut);
  EXPECT_TRUE(verifyPartitioning(problem, model, run.result).empty());
}

TEST(MultiType, NodeBudgetStillVerifies) {
  // Serial and node-budgeted, so the search stops at the same node on
  // every machine.  The best leaf it has found by then prices one bin at
  // a 4x4 that costs more than the blocks it holds; the returned result
  // must leave those blocks uncovered instead.
  const auto model = modelOf({{"prog_2x2", 2, 2, 1.5},
                              {"prog_4x4", 4, 4, 2.5}});
  const Network net = randgen::randomNetwork({.innerBlocks = 40, .seed = 5});
  const PartitionProblem problem(net, ProgBlockSpec{});
  ExhaustiveOptions options;
  options.threads = 1;
  options.nodeBudget = 100000;
  options.seed = multiTypePareDown(problem, model).result;
  const PartitionRun run = multiTypeExhaustive(problem, model, options);
  EXPECT_TRUE(run.timedOut);
  EXPECT_TRUE(verifyPartitioning(problem, model, run.result).empty());
}

TEST(MultiType, VerifierCatchesViolations) {
  const Network net = designs::figure5();
  const PartitionProblem problem(net, ProgBlockSpec{});
  const auto model = modelOf({{"prog_2x2", 2, 2, 1.5}});
  Partitioning bad;
  bad.partitions.push_back(net.innerSet());  // needs 3 outputs: no fit
  bad.optionIndex.push_back(0);
  EXPECT_FALSE(verifyPartitioning(problem, model, bad).empty());

  Partitioning mismatched;
  mismatched.partitions.push_back(net.innerSet());
  EXPECT_FALSE(verifyPartitioning(problem, model, mismatched).empty());

  Partitioning badIndex;
  BitSet pair = net.emptySet();
  pair.set(5);
  pair.set(8);
  badIndex.partitions.push_back(pair);
  badIndex.optionIndex.push_back(7);  // out of range
  EXPECT_FALSE(verifyPartitioning(problem, model, badIndex).empty());
}

TEST(MultiType, CostConversionIsExactOnTheMilliGrid) {
  const MilliCostModel milli = toMilliCosts(
      modelOf({{"prog_2x2", 2, 2, 1.5}, {"prog_3x2", 3, 2, 1.9}}), 8);
  EXPECT_EQ(milli.preDefinedBlockCost, 1000);
  EXPECT_EQ(milli.optionCost, (std::vector<int>{1500, 1900}));
}

TEST(MultiType, CostConversionRejectsUnrepresentableModels) {
  const Network net = designs::figure5();  // 8 inner blocks
  const PartitionProblem problem(net, ProgBlockSpec{});
  // Off the 0.001 grid: rejected by every entry point that compares costs.
  const auto offGrid = modelOf({{"odd", 2, 2, 1.2345}});
  EXPECT_THROW(toMilliCosts(offGrid, 8), std::invalid_argument);
  EXPECT_THROW(multiTypeExhaustive(problem, offGrid), std::invalid_argument);
  EXPECT_THROW(multiTypePareDown(problem, offGrid), std::invalid_argument);
  // Negative costs, on an option or on the pre-defined blocks.
  EXPECT_THROW(toMilliCosts(modelOf({{"neg", 2, 2, -1.5}}), 8),
               std::invalid_argument);
  EXPECT_THROW(toMilliCosts(modelOf({{"prog", 2, 2, 1.5}}, -1.0), 8),
               std::invalid_argument);
  // 8 blocks x 1e9 milli-units overflows the 32-bit cost key; 2 fit.
  const auto huge = modelOf({{"huge", 2, 2, 1e6}});
  EXPECT_THROW(toMilliCosts(huge, 8), std::invalid_argument);
  EXPECT_THROW(multiTypeExhaustive(problem, huge), std::invalid_argument);
  EXPECT_NO_THROW(toMilliCosts(huge, 2));
}

TEST(MultiType, CostAccounting) {
  const auto model = modelOf({{"prog_2x2", 2, 2, 1.5}});
  const Network net = designs::figure5();
  const PartitionRun run =
      multiTypePareDown(PartitionProblem(net, ProgBlockSpec{}), model);
  // Classic result: partitions {2,3,4,5} and {6,8,9}, node 7 left.
  ASSERT_EQ(run.result.partitions.size(), 2u);
  EXPECT_EQ(run.result.coveredBlocks(), 7);
  EXPECT_EQ(toMilliCosts(model, 8).totalCost(run.result, 8),
            1000 + 1500 + 1500);
}

}  // namespace
}  // namespace eblocks::partition
