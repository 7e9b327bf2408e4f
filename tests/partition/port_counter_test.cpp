// The incremental validity kernel must agree with the from-scratch
// countIo() / borderBlocks() / removalRank() references after every
// single add/remove, in both counting modes, on reproducible random
// networks -- and the incremental algorithms built on it must never fall
// back to the full-scan references on their hot paths.
#include "partition/port_counter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "blocks/catalog.h"
#include "designs/library.h"
#include "partition/multitype.h"
#include "partition/paredown.h"
#include "randgen/generator.h"

namespace eblocks::partition {
namespace {

using blocks::defaultCatalog;

void expectMatchesReference(const Network& net, const PortCounter& counter,
                            const BitSet& reference, CountingMode mode,
                            int step) {
  const IoCount expected = countIo(net, reference, mode);
  EXPECT_EQ(counter.io().inputs, expected.inputs)
      << toString(mode) << " inputs diverged at step " << step;
  EXPECT_EQ(counter.io().outputs, expected.outputs)
      << toString(mode) << " outputs diverged at step " << step;
  EXPECT_EQ(counter.members(), reference);
  EXPECT_EQ(counter.memberCount(), static_cast<int>(reference.count()));
}

class PortCounterModes : public ::testing::TestWithParam<CountingMode> {};

TEST_P(PortCounterModes, RandomizedAddRemoveMatchesFromScratchCount) {
  const CountingMode mode = GetParam();
  for (const std::uint32_t netSeed : {11u, 12u, 13u, 14u, 15u}) {
    const Network net = randgen::randomNetwork(
        {.innerBlocks = 14, .seed = netSeed});
    const std::vector<BlockId> inner = net.innerBlocks();
    const CompactGraph graph(net, net.innerSet());
    PortCounter counter(graph, mode);
    BitSet reference = net.emptySet();
    std::mt19937 rng(netSeed * 7919);
    std::uniform_int_distribution<std::size_t> pick(0, inner.size() - 1);
    for (int step = 0; step < 400; ++step) {
      const BlockId b = inner[pick(rng)];
      if (counter.contains(b)) {
        counter.remove(b);
        reference.reset(b);
      } else {
        counter.add(b);
        reference.set(b);
      }
      expectMatchesReference(net, counter, reference, mode, step);
    }
  }
}

TEST_P(PortCounterModes, AssignMatchesIncrementalBuild) {
  const CountingMode mode = GetParam();
  const Network net = randgen::randomNetwork({.innerBlocks = 18, .seed = 42});
  std::mt19937 rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    BitSet subset = net.emptySet();
    for (BlockId b : net.innerBlocks())
      if (rng() % 2) subset.set(b);
    const CompactGraph graph(net, net.innerSet());
    PortCounter counter(graph, mode);
    counter.assign(subset);
    expectMatchesReference(net, counter, subset, mode, trial);
  }
}

TEST_P(PortCounterModes, ClearResetsEverything) {
  const CountingMode mode = GetParam();
  const Network net = designs::figure5();
  const CompactGraph graph(net, net.innerSet());
  PortCounter counter(graph, mode);
  counter.assign(net.innerSet());
  counter.clear();
  EXPECT_EQ(counter.memberCount(), 0);
  EXPECT_EQ(counter.io().inputs, 0);
  EXPECT_EQ(counter.io().outputs, 0);
  EXPECT_TRUE(counter.members().none());
  // Reusable after clear().
  counter.add(1);
  expectMatchesReference(net, counter, [&] {
    BitSet s = net.emptySet();
    s.set(1);
    return s;
  }(), mode, 0);
}

TEST_P(PortCounterModes, AddThenRemoveIsIdentity) {
  const CountingMode mode = GetParam();
  const Network net = randgen::randomNetwork({.innerBlocks = 10, .seed = 7});
  const CompactGraph graph(net, net.innerSet());
  PortCounter counter(graph, mode);
  BitSet base = net.emptySet();
  const std::vector<BlockId> inner = net.innerBlocks();
  for (std::size_t i = 0; i < inner.size(); i += 2) {
    counter.add(inner[i]);
    base.set(inner[i]);
  }
  const IoCount before = counter.io();
  for (std::size_t i = 1; i < inner.size(); i += 2) {
    counter.add(inner[i]);
    counter.remove(inner[i]);
  }
  EXPECT_EQ(counter.io().inputs, before.inputs);
  EXPECT_EQ(counter.io().outputs, before.outputs);
  EXPECT_EQ(counter.members(), base);
}

// From-scratch reference for fixedIo(): the crossing I/O whose outside
// endpoint block is frozen, counted per connection (kEdges) or per
// distinct endpoint (kSignals).
IoCount referenceFixedIo(const Network& net, const BitSet& members,
                         const BitSet& frozen, CountingMode mode) {
  IoCount io;
  std::vector<std::uint64_t> inSrcs, outSrcs;
  for (const Connection& c : net.connections()) {
    const bool fromIn = members.test(c.from.block);
    const bool toIn = members.test(c.to.block);
    if (fromIn == toIn) continue;  // not crossing
    const auto key = [](const Endpoint& e) {
      return (static_cast<std::uint64_t>(e.block) << 16) | e.port;
    };
    if (toIn && frozen.test(c.from.block)) {
      if (mode == CountingMode::kEdges)
        ++io.inputs;
      else
        inSrcs.push_back(key(c.from));
    }
    if (fromIn && frozen.test(c.to.block)) {
      if (mode == CountingMode::kEdges)
        ++io.outputs;
      else
        outSrcs.push_back(key(c.from));
    }
  }
  if (mode == CountingMode::kSignals) {
    std::sort(inSrcs.begin(), inSrcs.end());
    io.inputs = static_cast<int>(
        std::unique(inSrcs.begin(), inSrcs.end()) - inSrcs.begin());
    std::sort(outSrcs.begin(), outSrcs.end());
    io.outputs = static_cast<int>(
        std::unique(outSrcs.begin(), outSrcs.end()) - outSrcs.begin());
  }
  return io;
}

// Reports that outside block `x`'s frozen bit was just set (`frozen`)
// or cleared, through the per-arc calls: one call for every arc between
// `x` and a member.
void reportFlip(PortCounter& counter, BlockId x, bool frozen) {
  const CompactGraph& graph = counter.graph();
  for (const CompactArc& a : graph.outArcs(x)) {  // x -> member: input
    if (!counter.contains(a.neighbor)) continue;
    if (frozen)
      counter.freezeInput(a);
    else
      counter.unfreezeInput(a);
  }
  for (const CompactArc& a : graph.inArcs(x)) {  // member -> x: output
    if (!counter.contains(a.neighbor)) continue;
    if (frozen)
      counter.freezeOutput(a);
    else
      counter.unfreezeOutput(a);
  }
}

TEST_P(PortCounterModes, RandomizedFixedIoMatchesFromScratchReference) {
  // Mimics the branch-and-bound's usage: non-inner blocks are frozen
  // from the start, inner blocks flip between member / frozen-outside /
  // free in random (non-LIFO) order, and after every operation fixedIo()
  // must equal the from-scratch irreducible count -- and stay
  // component-wise <= io().
  const CountingMode mode = GetParam();
  for (const std::uint32_t netSeed : {21u, 22u, 23u}) {
    const Network net =
        randgen::randomNetwork({.innerBlocks = 14, .seed = netSeed});
    const std::vector<BlockId> inner = net.innerBlocks();
    BitSet frozen(net.blockCount());
    for (BlockId b = 0; b < net.blockCount(); ++b)
      if (!net.isInner(b)) frozen.set(b);
    const CompactGraph graph(net, net.innerSet());
    PortCounter counter(graph, mode, BorderTracking::kOff, &frozen);
    BitSet reference = net.emptySet();
    std::mt19937 rng(netSeed * 104729);
    std::uniform_int_distribution<std::size_t> pick(0, inner.size() - 1);
    for (int step = 0; step < 500; ++step) {
      const BlockId b = inner[pick(rng)];
      if (counter.contains(b)) {
        counter.remove(b);
        reference.reset(b);
      } else if (frozen.test(b)) {
        reportFlip(counter, b, false);
        frozen.reset(b);
      } else if (rng() % 2) {
        counter.add(b);
        reference.set(b);
      } else {
        frozen.set(b);
        reportFlip(counter, b, true);
      }
      expectMatchesReference(net, counter, reference, mode, step);
      const IoCount expected = referenceFixedIo(net, reference, frozen, mode);
      EXPECT_EQ(counter.fixedIo().inputs, expected.inputs)
          << toString(mode) << " fixed inputs diverged at step " << step;
      EXPECT_EQ(counter.fixedIo().outputs, expected.outputs)
          << toString(mode) << " fixed outputs diverged at step " << step;
      EXPECT_LE(counter.fixedIo().inputs, counter.io().inputs);
      EXPECT_LE(counter.fixedIo().outputs, counter.io().outputs);
    }
  }
}

TEST_P(PortCounterModes, FixedIoGrowsMonotonicallyUnderAddAndFreeze) {
  // The soundness argument rests on monotonicity: growing the member set
  // or the frozen set can never shrink fixedIo().  Drive a growth-only
  // walk and assert it.
  const CountingMode mode = GetParam();
  const Network net = randgen::randomNetwork({.innerBlocks = 12, .seed = 5});
  BitSet frozen(net.blockCount());
  for (BlockId b = 0; b < net.blockCount(); ++b)
    if (!net.isInner(b)) frozen.set(b);
  const CompactGraph graph(net, net.innerSet());
  PortCounter counter(graph, mode, BorderTracking::kOff, &frozen);
  std::mt19937 rng(31337);
  IoCount last;
  for (const BlockId b : net.innerBlocks()) {
    if (rng() % 2) {
      counter.add(b);
    } else {
      frozen.set(b);
      reportFlip(counter, b, true);
    }
    EXPECT_GE(counter.fixedIo().inputs, last.inputs);
    EXPECT_GE(counter.fixedIo().outputs, last.outputs);
    last = counter.fixedIo();
  }
}

TEST_P(PortCounterModes, ClearResetsFixedTracking) {
  const CountingMode mode = GetParam();
  const Network net = designs::figure5();
  BitSet frozen(net.blockCount());
  for (BlockId b = 0; b < net.blockCount(); ++b)
    if (!net.isInner(b)) frozen.set(b);
  const CompactGraph graph(net, net.innerSet());
  PortCounter counter(graph, mode, BorderTracking::kOff, &frozen);
  counter.assign(net.innerSet());
  EXPECT_TRUE(counter.tracksFixed());
  counter.clear();
  EXPECT_EQ(counter.fixedIo().inputs, 0);
  EXPECT_EQ(counter.fixedIo().outputs, 0);
  counter.add(net.innerBlocks().front());
  const IoCount expected = referenceFixedIo(
      net, counter.members(), frozen, mode);
  EXPECT_EQ(counter.fixedIo().inputs, expected.inputs);
  EXPECT_EQ(counter.fixedIo().outputs, expected.outputs);
}

INSTANTIATE_TEST_SUITE_P(BothModes, PortCounterModes,
                         ::testing::Values(CountingMode::kEdges,
                                           CountingMode::kSignals),
                         [](const auto& paramInfo) {
                           return std::string(toString(paramInfo.param));
                         });

void expectMatchesBorderReference(const Network& net,
                                  const PortCounter& counter,
                                  const BitSet& reference, int step) {
  // border() must equal the from-scratch borderBlocks() as a set, and
  // rank() must equal removalRank() for every member.
  std::vector<BlockId> incremental;
  counter.border().forEach(
      [&](std::size_t b) { incremental.push_back(static_cast<BlockId>(b)); });
  EXPECT_EQ(incremental, borderBlocks(net, reference))
      << "border diverged at step " << step;
  reference.forEach([&](std::size_t bi) {
    const BlockId b = static_cast<BlockId>(bi);
    EXPECT_EQ(counter.rank(b), removalRank(net, reference, b))
        << "rank of block " << b << " diverged at step " << step;
  });
}

TEST_P(PortCounterModes, RandomizedBorderAndRankMatchFromScratchScan) {
  const CountingMode mode = GetParam();
  for (const std::uint32_t netSeed : {21u, 22u, 23u, 24u, 25u}) {
    const Network net = randgen::randomNetwork(
        {.innerBlocks = 14, .seed = netSeed});
    const std::vector<BlockId> inner = net.innerBlocks();
    const CompactGraph graph(net, net.innerSet());
    PortCounter counter(graph, mode, BorderTracking::kOn);
    BitSet reference = net.emptySet();
    std::mt19937 rng(netSeed * 104729);
    std::uniform_int_distribution<std::size_t> pick(0, inner.size() - 1);
    for (int step = 0; step < 400; ++step) {
      const BlockId b = inner[pick(rng)];
      if (counter.contains(b)) {
        counter.remove(b);
        reference.reset(b);
      } else {
        counter.add(b);
        reference.set(b);
      }
      expectMatchesReference(net, counter, reference, mode, step);
      expectMatchesBorderReference(net, counter, reference, step);
    }
  }
}

TEST_P(PortCounterModes, BorderTrackingSurvivesAssignAndClear) {
  const CountingMode mode = GetParam();
  const Network net = randgen::randomNetwork({.innerBlocks = 16, .seed = 77});
  const CompactGraph graph(net, net.innerSet());
  PortCounter counter(graph, mode, BorderTracking::kOn);
  std::mt19937 rng(123);
  for (int trial = 0; trial < 20; ++trial) {
    BitSet subset = net.emptySet();
    for (BlockId b : net.innerBlocks())
      if (rng() % 2) subset.set(b);
    counter.assign(subset);
    expectMatchesBorderReference(net, counter, subset, trial);
  }
  counter.clear();
  EXPECT_TRUE(counter.border().none());
  // Reusable after clear(): a lone member is trivially border.
  const BlockId first = net.innerBlocks().front();
  counter.add(first);
  EXPECT_TRUE(counter.border().test(first));
  EXPECT_EQ(counter.rank(first),
            removalRank(net, counter.members(), first));
}

TEST_P(PortCounterModes, DenseKernelMatchesReferencesOn25RandomDesigns) {
  // The dense-endpoint-index kernel must match every from-scratch
  // reference -- countIo(), borderBlocks(), removalRank(), and the
  // irreducible-I/O reference -- state for state across a randomized
  // add/remove/freeze walk, on 25 seeded designs spanning sizes 6..54.
  // This is the broad-coverage twin of the focused suites above, sized
  // per the CSR-kernel acceptance criteria.
  const CountingMode mode = GetParam();
  for (std::uint32_t seed = 1; seed <= 25; ++seed) {
    const int innerCount = 6 + static_cast<int>(seed % 17) * 3;
    const Network net = randgen::randomNetwork(
        {.innerBlocks = innerCount, .seed = seed});
    const std::vector<BlockId> inner = net.innerBlocks();
    BitSet frozen(net.blockCount());
    for (BlockId b = 0; b < net.blockCount(); ++b)
      if (!net.isInner(b)) frozen.set(b);
    const CompactGraph graph(net, net.innerSet());
    PortCounter counter(graph, mode, BorderTracking::kOn, &frozen);
    BitSet reference = net.emptySet();
    std::mt19937 rng(seed * 2654435761u);
    std::uniform_int_distribution<std::size_t> pick(0, inner.size() - 1);
    for (int step = 0; step < 120; ++step) {
      const BlockId b = inner[pick(rng)];
      if (counter.contains(b)) {
        counter.remove(b);
        reference.reset(b);
      } else if (frozen.test(b)) {
        reportFlip(counter, b, false);
        frozen.reset(b);
      } else if (rng() % 2) {
        counter.add(b);
        reference.set(b);
      } else {
        frozen.set(b);
        reportFlip(counter, b, true);
      }
      expectMatchesReference(net, counter, reference, mode, step);
      expectMatchesBorderReference(net, counter, reference, step);
      const IoCount expectedFixed =
          referenceFixedIo(net, reference, frozen, mode);
      EXPECT_EQ(counter.fixedIo().inputs, expectedFixed.inputs)
          << "seed " << seed << " step " << step;
      EXPECT_EQ(counter.fixedIo().outputs, expectedFixed.outputs)
          << "seed " << seed << " step " << step;
    }
  }
}

// The incremental PareDown paths must never fall back to the full-scan
// borderBlocks()/removalRank() references: the process-wide scan
// counters stay flat across entire runs, on the paper designs and on
// random networks (the trace observer included).
TEST(PortCounter, PareDownMakesNoFullScanBorderOrRankQueries) {
  std::vector<Network> nets;
  nets.push_back(designs::figure5());
  for (const std::uint32_t seed : {1u, 2u, 3u, 4u, 5u})
    nets.push_back(
        randgen::randomNetwork({.innerBlocks = 20, .seed = seed}));
  for (const Network& net : nets) {
    const PartitionProblem problem(net, ProgBlockSpec{});
    const SubgraphScanCounts before = subgraphScanCounts();
    PareDownOptions options;
    int steps = 0;
    options.trace = [&](const PareDownStep&) { ++steps; };
    const PartitionRun run = pareDown(problem, options);
    EXPECT_GT(steps, 0);
    EXPECT_GT(run.explored, 0u);
    const SubgraphScanCounts after = subgraphScanCounts();
    EXPECT_EQ(after.borderScans, before.borderScans) << net.name();
    EXPECT_EQ(after.rankScans, before.rankScans) << net.name();
  }
}

TEST(PortCounter, MultiTypePareDownMakesNoFullScanBorderOrRankQueries) {
  ProgCostModel model = ProgCostModel::paperDefault();
  for (const std::uint32_t seed : {11u, 12u, 13u}) {
    const Network net =
        randgen::randomNetwork({.innerBlocks = 20, .seed = seed});
    const PartitionProblem problem(net, ProgBlockSpec{});
    const SubgraphScanCounts before = subgraphScanCounts();
    const PartitionRun run = multiTypePareDown(problem, model);
    EXPECT_GT(run.explored, 0u);
    const SubgraphScanCounts after = subgraphScanCounts();
    EXPECT_EQ(after.borderScans, before.borderScans) << "seed " << seed;
    EXPECT_EQ(after.rankScans, before.rankScans) << "seed " << seed;
  }
}

TEST(PortCounter, SignalsModeSharesFanoutPorts) {
  // One inner block driving two external consumers from one output port
  // must count a single output signal but two output edges.
  const auto& cat = defaultCatalog();
  Network net;
  const BlockId s = net.addBlock("s", cat.button());
  const BlockId a = net.addBlock("a", cat.inverter());
  const BlockId b = net.addBlock("b", cat.inverter());
  const BlockId o1 = net.addBlock("o1", cat.led());
  const BlockId o2 = net.addBlock("o2", cat.led());
  net.connect(s, 0, a, 0);
  net.connect(a, 0, b, 0);
  net.connect(b, 0, o1, 0);
  net.connect(b, 0, o2, 0);

  const CompactGraph graph(net, net.innerSet());
  PortCounter edges(graph, CountingMode::kEdges);
  edges.add(a);
  edges.add(b);
  EXPECT_EQ(edges.io().inputs, 1);
  EXPECT_EQ(edges.io().outputs, 2);

  PortCounter signals(graph, CountingMode::kSignals);
  signals.add(a);
  signals.add(b);
  EXPECT_EQ(signals.io().inputs, 1);
  EXPECT_EQ(signals.io().outputs, 1);
}

}  // namespace
}  // namespace eblocks::partition
