// Sub-problems: a PartitionProblem whose universe is a subset of the
// network's inner blocks.  The universe must name inner blocks only,
// verification holds members to it, and the searches place nothing
// outside it.
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "designs/library.h"
#include "partition/exhaustive.h"
#include "partition/fm_refine.h"
#include "partition/multitype.h"
#include "partition/paredown.h"
#include "partition/verify.h"
#include "randgen/generator.h"

namespace eblocks::partition {
namespace {

constexpr BlockId N(int paperNode) {
  return static_cast<BlockId>(paperNode - 1);
}

BitSet setOf(const Network& net, std::initializer_list<BlockId> ids) {
  BitSet s = net.emptySet();
  for (BlockId b : ids) s.set(b);
  return s;
}

/// Every other inner block of `net`: a universe whose members border
/// blocks the search must treat as fixed.
BitSet everyOtherInnerBlock(const Network& net) {
  BitSet universe = net.emptySet();
  const std::vector<BlockId> inner = net.innerBlocks();
  for (std::size_t i = 0; i < inner.size(); i += 2) universe.set(inner[i]);
  return universe;
}

/// True when every partition of `p` lies inside `universe`.
bool within(const Partitioning& p, const BitSet& universe) {
  for (const BitSet& members : p.partitions) {
    BitSet outside = members;
    outside.andNot(universe);
    if (outside.any()) return false;
  }
  return true;
}

TEST(SubProblem, UniverseMustHoldInnerBlocksOnly) {
  const Network net = designs::figure5();
  // Figure 5's node 1 (id 0) is the sensor.
  EXPECT_THROW(PartitionProblem(net, ProgBlockSpec{}, setOf(net, {0, N(2)})),
               std::invalid_argument);
  EXPECT_THROW(PartitionProblem(net, ProgBlockSpec{}, BitSet(3)),
               std::invalid_argument);
  const PartitionProblem whole(net, ProgBlockSpec{});
  EXPECT_THROW(PartitionProblem(whole, setOf(net, {0, N(2)})),
               std::invalid_argument);

  // A valid universe is what the graph reindexes; every other block,
  // inner or not, is frozen.
  const PartitionProblem sub(net, ProgBlockSpec{}, setOf(net, {N(2), N(3)}));
  EXPECT_EQ(sub.innerCount(), 2);
  EXPECT_EQ(sub.innerBlocks(), (std::vector<BlockId>{N(2), N(3)}));
  EXPECT_EQ(sub.graph().innerIndex(N(3)), 1);
  for (BlockId b = 0; b < net.blockCount(); ++b)
    EXPECT_EQ(sub.graph().nonInnerSet().test(b), !sub.innerSet().test(b))
        << b;
}

TEST(SubProblem, VerifyRejectsAMemberOutsideTheUniverse) {
  const Network net = designs::figure5();
  const PartitionProblem whole(net, ProgBlockSpec{});
  const PartitionProblem sub(net, ProgBlockSpec{},
                             setOf(net, {N(2), N(3), N(4), N(5)}));
  // {6, 8, 9} is a valid partition of the whole design, but node 6 lies
  // outside the sub-problem's universe -- and so do 8 and 9.
  Partitioning p;
  p.partitions.push_back(setOf(net, {N(6), N(8), N(9)}));
  EXPECT_TRUE(verifyPartitioning(whole, p).empty());
  const std::vector<std::string> problems = verifyPartitioning(sub, p);
  ASSERT_EQ(problems.size(), 3u);
  EXPECT_NE(problems[0].find("is not an inner block of the problem"),
            std::string::npos)
      << problems[0];
}

TEST(SubProblem, SearchesPlaceOnlyUniverseMembers) {
  for (std::uint32_t seed = 1; seed <= 10; ++seed) {
    const Network net = randgen::randomNetwork(
        randgen::GeneratorOptions::largeNetwork(16, seed));
    for (const CountingMode mode :
         {CountingMode::kEdges, CountingMode::kSignals}) {
      const BitSet universe = everyOtherInnerBlock(net);
      const PartitionProblem whole(
          net, ProgBlockSpec{.inputs = 2, .outputs = 2, .mode = mode});
      const PartitionProblem sub(net, whole.spec(), universe);
      ExhaustiveOptions options;
      options.threads = 1;
      const PartitionRun exact = exhaustiveSearch(sub, options);
      EXPECT_TRUE(exact.optimal);
      EXPECT_TRUE(within(exact.result, universe)) << seed;
      EXPECT_TRUE(verifyPartitioning(sub, exact.result).empty()) << seed;
      const PartitionRun pared = pareDown(sub);
      EXPECT_TRUE(within(pared.result, universe)) << seed;
      EXPECT_TRUE(verifyPartitioning(sub, pared.result).empty()) << seed;
      // A sub-problem's solution is a valid partial solution of the whole.
      EXPECT_TRUE(verifyPartitioning(whole, exact.result).empty()) << seed;
      // Derived from the whole problem, the sub-problem searches alike.
      const PartitionProblem derived(whole, universe);
      const PartitionRun again = exhaustiveSearch(derived, options);
      EXPECT_EQ(again.explored, exact.explored) << seed;
      EXPECT_EQ(again.pruned, exact.pruned) << seed;
      EXPECT_EQ(again.result.partitions, exact.result.partitions) << seed;
      EXPECT_EQ(pareDown(derived).result.partitions, pared.result.partitions)
          << seed;
    }
  }
}

TEST(SubProblem, TypedVerifyRejectsAMemberOutsideTheUniverse) {
  const Network net = designs::figure5();
  const PartitionProblem whole(net, ProgBlockSpec{});
  const PartitionProblem sub(net, ProgBlockSpec{},
                             setOf(net, {N(2), N(3), N(4), N(5)}));
  const ProgCostModel model = ProgCostModel::paperDefault();
  Partitioning typed;
  typed.partitions.push_back(setOf(net, {N(6), N(8), N(9)}));
  typed.optionIndex.push_back(0);
  EXPECT_TRUE(verifyPartitioning(whole, model, typed).empty());
  // Both verifiers walk members alike, so the typed one reports the
  // plain one's three membership violations, word for word.
  Partitioning plain;
  plain.partitions = typed.partitions;
  const std::vector<std::string> problems =
      verifyPartitioning(sub, model, typed);
  ASSERT_EQ(problems.size(), 3u);
  EXPECT_EQ(problems, verifyPartitioning(sub, plain));
}

TEST(SubProblem, TypedSearchesPlaceOnlyUniverseMembers) {
  ProgCostModel model;
  model.options = {ProgBlockOption{"prog_2x2", 2, 2, 1.5},
                   ProgBlockOption{"prog_3x2", 3, 2, 1.8}};
  for (std::uint32_t seed = 1; seed <= 10; ++seed) {
    const Network net = randgen::randomNetwork(
        randgen::GeneratorOptions::largeNetwork(16, seed));
    const BitSet universe = everyOtherInnerBlock(net);
    for (const CountingMode mode :
         {CountingMode::kEdges, CountingMode::kSignals}) {
      const PartitionProblem whole(net, ProgBlockSpec{.mode = mode});
      const PartitionProblem sub(whole, universe);
      const int n = sub.innerCount();
      const MilliCostModel milli = toMilliCosts(model, n);
      const PartitionRun pared = multiTypePareDown(sub, model);
      const PartitionRun fm = multiTypeFmRefine(sub, model, pared.result);
      ExhaustiveOptions options;
      options.threads = 1;
      const PartitionRun exact = multiTypeExhaustive(sub, model, options);
      EXPECT_TRUE(exact.optimal) << seed;
      for (const PartitionRun* run : {&pared, &fm, &exact}) {
        EXPECT_TRUE(within(run->result, universe))
            << run->algorithm << " seed " << seed;
        EXPECT_TRUE(verifyPartitioning(sub, model, run->result).empty())
            << run->algorithm << " seed " << seed;
        // A sub-problem's solution is a valid partial solution of the
        // whole.
        EXPECT_TRUE(verifyPartitioning(whole, model, run->result).empty())
            << run->algorithm << " seed " << seed;
      }
      EXPECT_LE(milli.totalCost(fm.result, n),
                milli.totalCost(pared.result, n))
          << seed;
      EXPECT_LE(milli.totalCost(exact.result, n),
                milli.totalCost(fm.result, n))
          << seed;
    }
  }
}

}  // namespace
}  // namespace eblocks::partition
