#include "mapping/mapper.h"

#include <gtest/gtest.h>

#include "blocks/catalog.h"
#include "designs/library.h"
#include "randgen/generator.h"
#include "synth/synthesizer.h"

namespace eblocks::mapping {
namespace {

using blocks::defaultCatalog;

Network chain3() {
  const auto& cat = defaultCatalog();
  Network net("chain");
  const BlockId s = net.addBlock("s", cat.button());
  const BlockId a = net.addBlock("a", cat.inverter());
  const BlockId o = net.addBlock("o", cat.led());
  net.connect(s, 0, a, 0);
  net.connect(a, 0, o, 0);
  return net;
}

TEST(Mapper, ChainOntoLine) {
  const Network net = chain3();
  const Topology topo = Topology::line(3);
  const auto m = mapNetwork(net, topo);
  ASSERT_EQ(m.status, MapStatus::kMapped);
  EXPECT_TRUE(verifyMapping(net, topo, m.mapping).empty());
}

TEST(Mapper, ImpossibleWhenTooFewNodes) {
  const Network net = chain3();
  const Topology topo = Topology::line(2);
  EXPECT_EQ(mapNetwork(net, topo).status, MapStatus::kInfeasible);
}

TEST(Mapper, ImpossibleWithoutCables) {
  const Network net = chain3();
  Topology topo("island");
  topo.addNode("x", 2, 2);
  topo.addNode("y", 2, 2);
  topo.addNode("z", 2, 2);
  EXPECT_EQ(mapNetwork(net, topo).status, MapStatus::kInfeasible);
}

TEST(Mapper, PortBudgetsRespected) {
  // A 2-input gate cannot live on a 1-input node.
  const auto& cat = defaultCatalog();
  Network net;
  const BlockId s1 = net.addBlock("s1", cat.button());
  const BlockId s2 = net.addBlock("s2", cat.button());
  const BlockId g = net.addBlock("g", cat.and2());
  const BlockId o = net.addBlock("o", cat.led());
  net.connect(s1, 0, g, 0);
  net.connect(s2, 0, g, 1);
  net.connect(g, 0, o, 0);
  // A star topology where only the hub has 2 inputs works; with the hub
  // capped at 1 input the mapping must fail.
  for (const int hubInputs : {2, 1}) {
    Topology topo("star");
    const PhysId hub = topo.addNode("hub", hubInputs, 2);
    for (int i = 0; i < 3; ++i) {
      const PhysId leaf = topo.addNode("leaf" + std::to_string(i), 2, 2);
      topo.addDuplexLink(hub, leaf);
    }
    const auto m = mapNetwork(net, topo);
    if (hubInputs == 2) {
      ASSERT_EQ(m.status, MapStatus::kMapped);
      EXPECT_TRUE(verifyMapping(net, topo, m.mapping).empty());
      // The gate must sit on the hub (only node with degree 3).
      EXPECT_EQ(m.mapping.placement[g], hub);
    } else {
      EXPECT_EQ(m.status, MapStatus::kInfeasible);
    }
  }
}

TEST(Mapper, PinnedDevicesStayPut) {
  const Network net = chain3();
  const Topology topo = Topology::line(3);
  MappingOptions options;
  options.pinned[*net.findBlock("s")] = *topo.findNode("n2");
  const auto m = mapNetwork(net, topo, options);
  ASSERT_EQ(m.status, MapStatus::kMapped);
  EXPECT_EQ(m.mapping.placement[*net.findBlock("s")], *topo.findNode("n2"));
  EXPECT_TRUE(verifyMapping(net, topo, m.mapping).empty());
}

TEST(Mapper, ConflictingPinsFail) {
  const Network net = chain3();
  const Topology topo = Topology::line(3);
  MappingOptions options;
  options.pinned[*net.findBlock("s")] = 0;
  options.pinned[*net.findBlock("a")] = 0;  // same spot
  EXPECT_EQ(mapNetwork(net, topo, options).status, MapStatus::kInfeasible);
}

TEST(Mapper, InfeasiblePinPlacementFails) {
  // Pin the two ends of a connected pair to opposite ends of a line with
  // no direct cable.
  const Network net = chain3();
  const Topology topo = Topology::line(4);
  MappingOptions options;
  options.pinned[*net.findBlock("s")] = 0;
  options.pinned[*net.findBlock("a")] = 3;  // s->a needs a cable 0->3
  EXPECT_EQ(mapNetwork(net, topo, options).status, MapStatus::kInfeasible);
}

TEST(Mapper, CableCapacityIsOneSignal) {
  // Two parallel sensor->led pairs across a single duplex trunk: each
  // direction has one cable, but two signals need to cross left-to-right.
  const auto& cat = defaultCatalog();
  Network net;
  const BlockId s1 = net.addBlock("s1", cat.button());
  const BlockId s2 = net.addBlock("s2", cat.button());
  const BlockId o1 = net.addBlock("o1", cat.led());
  const BlockId o2 = net.addBlock("o2", cat.led());
  net.connect(s1, 0, o1, 0);
  net.connect(s2, 0, o2, 0);
  Topology topo("trunk");
  const PhysId west0 = topo.addNode("west0", 2, 2);
  const PhysId west1 = topo.addNode("west1", 2, 2);
  const PhysId east0 = topo.addNode("east0", 2, 2);
  const PhysId east1 = topo.addNode("east1", 2, 2);
  topo.addLink(west0, east0);  // the only west->east cables
  topo.addLink(west1, east1);
  MappingOptions options;
  options.pinned[s1] = west0;
  options.pinned[s2] = west1;
  const auto m = mapNetwork(net, topo, options);
  ASSERT_EQ(m.status, MapStatus::kMapped);  // routable: o1 east0, o2 east1
  EXPECT_TRUE(verifyMapping(net, topo, m.mapping).empty());
  // Remove one cable: now only one signal can cross.
  Topology thin("thin");
  const PhysId w0 = thin.addNode("west0", 2, 2);
  const PhysId w1 = thin.addNode("west1", 2, 2);
  thin.addNode("east0", 2, 2);
  thin.addNode("east1", 2, 2);
  thin.addLink(w0, 2);
  MappingOptions pins;
  pins.pinned[s1] = w0;
  pins.pinned[s2] = w1;
  EXPECT_EQ(mapNetwork(net, thin, pins).status, MapStatus::kInfeasible);
}

TEST(Mapper, SynthesizedFigure5OntoGrid) {
  // End-to-end: synthesize Podium Timer 3 (7 blocks remain), then deploy
  // it on a 3x3 grid of 2x2-port nodes.  The synthesized prog0 absorbs
  // both button edges (edge-counted ports), so the button-to-prog0 hop
  // needs TWO parallel cables: a plain grid (one cable per direction per
  // neighbor pair) is correctly rejected, a double-cabled grid works.
  const synth::SynthResult r = synth::synthesize(designs::figure5());
  ASSERT_EQ(r.network.blockCount(), 7u);
  const Topology plain = Topology::grid(3, 3);
  EXPECT_EQ(mapNetwork(r.network, plain).status, MapStatus::kInfeasible);
  // (Also geometrically infeasible even with parallel cables: prog1 needs
  // four distinct neighbors -- the grid center -- while prog0 and the trip
  // block would additionally have to be adjacent to each other.)

  // A 7-node full mesh with two parallel cables per ordered pair hosts it.
  Topology mesh("mesh7");
  for (int i = 0; i < 7; ++i)
    mesh.addNode(std::string("m").append(std::to_string(i)), 2, 2);
  for (PhysId a = 0; a < 7; ++a)
    for (PhysId b = 0; b < 7; ++b)
      if (a != b) {
        mesh.addLink(a, b);
        mesh.addLink(a, b);
      }
  const auto m = mapNetwork(r.network, mesh);
  ASSERT_EQ(m.status, MapStatus::kMapped);
  EXPECT_TRUE(verifyMapping(r.network, mesh, m.mapping).empty());
}

TEST(Mapper, RandomNetworksOntoRichTopology) {
  // A topology that contains the logical graph by construction (one node
  // per block, links mirroring connections, plus slack) is always
  // mappable.
  for (std::uint32_t seed = 1; seed <= 5; ++seed) {
    const Network net = randgen::randomNetwork({.innerBlocks = 8,
                                                .seed = seed});
    Topology topo("mirror");
    for (BlockId b = 0; b < net.blockCount(); ++b)
      topo.addNode(std::string("p").append(std::to_string(b)),
                   net.indegree(b), net.outdegree(b));
    for (const Connection& c : net.connections())
      topo.addLink(c.from.block, c.to.block);
    const auto m = mapNetwork(net, topo);
    ASSERT_EQ(m.status, MapStatus::kMapped) << "seed " << seed;
    EXPECT_TRUE(verifyMapping(net, topo, m.mapping).empty()) << "seed " << seed;
  }
}

/// One 3x3-port node per block, cabled only in disjoint duplex pairs:
/// far too few cables for a random network, so the search backtracks
/// through a large space before it can give up.
Topology sparsePairs(const Network& net) {
  Topology topo("sparse");
  for (std::size_t i = 0; i < net.blockCount(); ++i)
    topo.addNode(std::string("p").append(std::to_string(i)), 3, 3);
  for (PhysId i = 0; i + 1 < topo.nodeCount(); i += 2)
    topo.addDuplexLink(i, i + 1);
  return topo;
}

TEST(Mapper, TimeLimitGivesUpGracefully) {
  // This instance keeps searching for seconds, far past the limit: the
  // result must say "timed out", not "infeasible".
  const Network net = randgen::randomNetwork({.innerBlocks = 24, .seed = 2});
  MappingOptions options;
  options.timeLimitSeconds = 0.05;
  const MapResult m = mapNetwork(net, sparsePairs(net), options);
  EXPECT_EQ(m.status, MapStatus::kTimedOut);
  EXPECT_GT(m.explored, 0u);
  EXPECT_TRUE(m.mapping.placement.empty());
}

TEST(Mapper, SparseInstanceIsProvenInfeasible) {
  // A smaller instance on the same topology shape: with no limit the
  // search runs to the end and proves it infeasible.
  const Network net = randgen::randomNetwork({.innerBlocks = 18, .seed = 2});
  EXPECT_EQ(mapNetwork(net, sparsePairs(net)).status, MapStatus::kInfeasible);
}

TEST(Mapper, VerifierCatchesCorruption) {
  const Network net = chain3();
  const Topology topo = Topology::line(3);
  auto m = mapNetwork(net, topo);
  ASSERT_EQ(m.status, MapStatus::kMapped);
  Mapping bad = m.mapping;
  bad.placement[0] = bad.placement[1];  // two blocks on one node
  EXPECT_FALSE(verifyMapping(net, topo, bad).empty());
  Mapping badCable = m.mapping;
  badCable.cableOf[0] = 9999;
  EXPECT_FALSE(verifyMapping(net, topo, badCable).empty());
}

}  // namespace
}  // namespace eblocks::mapping
