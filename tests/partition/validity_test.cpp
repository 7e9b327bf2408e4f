#include "partition/validity.h"

#include <gtest/gtest.h>

#include "blocks/catalog.h"
#include "designs/library.h"
#include "partition/verify.h"

namespace eblocks::partition {
namespace {

using blocks::defaultCatalog;

constexpr BlockId N(int paperNode) {
  return static_cast<BlockId>(paperNode - 1);
}

BitSet setOf(const Network& net, std::initializer_list<BlockId> ids) {
  BitSet s = net.emptySet();
  for (BlockId b : ids) s.set(b);
  return s;
}

/// True when `members` on its own is a valid partitioning of `problem`.
bool validAlone(const PartitionProblem& problem, const BitSet& members,
                bool requireConvex = false) {
  Partitioning p;
  p.partitions.push_back(members);
  return verifyPartitioning(problem, p, {.requireConvex = requireConvex})
      .empty();
}

TEST(Validity, FitsRespectsSpecLimits) {
  const Network net = designs::figure5();
  const IoCount io = countIo(net, setOf(net, {N(2), N(3), N(4), N(5)}),
                             CountingMode::kEdges);
  EXPECT_TRUE(fits(io, ProgBlockSpec{2, 2}));
  EXPECT_FALSE(fits(io, ProgBlockSpec{1, 2}));
  EXPECT_FALSE(fits(io, ProgBlockSpec{2, 1}));
}

TEST(Validity, FullInnerSetNeedsThreeOutputs) {
  const Network net = designs::figure5();
  const IoCount io = countIo(net, net.innerSet(), CountingMode::kEdges);
  EXPECT_FALSE(fits(io, ProgBlockSpec{2, 2}));
  EXPECT_TRUE(fits(io, ProgBlockSpec{2, 3}));
}

TEST(Validity, SingleBlockPartitionRejectedByFullCheck) {
  const Network net = designs::figure5();
  const PartitionProblem problem(net, ProgBlockSpec{});
  EXPECT_FALSE(validAlone(problem, setOf(net, {N(7)})));
  EXPECT_TRUE(validAlone(problem, setOf(net, {N(6), N(8), N(9)})));
}

TEST(Validity, NonInnerMembersRejected) {
  const Network net = designs::figure5();
  const PartitionProblem problem(net, ProgBlockSpec{});
  // Include the sensor (id 0): invalid regardless of fit.
  EXPECT_FALSE(validAlone(problem, setOf(net, {0, N(2)})));
}

TEST(Validity, NonConvexRejectedUnlessRelaxed) {
  const Network net = designs::figure5();
  const PartitionProblem problem(net, ProgBlockSpec{});
  // {2,3}: path 2 -> 4 -> 3 leaves and re-enters.
  const BitSet p = setOf(net, {N(2), N(3)});
  EXPECT_FALSE(validAlone(problem, p, /*requireConvex=*/true));
  // Relaxing convexity: fit still fails or passes purely on I/O.
  const IoCount io = countIo(net, p, CountingMode::kEdges);
  const bool fits = io.inputs <= 2 && io.outputs <= 2;
  EXPECT_EQ(validAlone(problem, p, /*requireConvex=*/false), fits);
}

TEST(Validity, SignalsModeCountsSharedFanoutOnce) {
  // Build: sensor fans to two inverters; each drives its own LED.  In
  // edges mode the pair needs 2 inputs; in signals mode only 1.
  const auto& cat = defaultCatalog();
  Network net;
  const BlockId s = net.addBlock("s", cat.button());
  const BlockId i1 = net.addBlock("i1", cat.inverter());
  const BlockId i2 = net.addBlock("i2", cat.inverter());
  const BlockId o1 = net.addBlock("o1", cat.led());
  const BlockId o2 = net.addBlock("o2", cat.led());
  net.connect(s, 0, i1, 0);
  net.connect(s, 0, i2, 0);
  net.connect(i1, 0, o1, 0);
  net.connect(i2, 0, o2, 0);
  BitSet pair = net.emptySet();
  pair.set(i1);
  pair.set(i2);
  ProgBlockSpec edges{1, 2, CountingMode::kEdges};
  ProgBlockSpec signals{1, 2, CountingMode::kSignals};
  EXPECT_FALSE(fits(countIo(net, pair, edges.mode), edges));
  EXPECT_TRUE(fits(countIo(net, pair, signals.mode), signals));
}

}  // namespace
}  // namespace eblocks::partition
