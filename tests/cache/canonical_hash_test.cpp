// Property battery for the canonical content hash (cache/canonical_hash.h).
//
// The hash is the cache's load-bearing wall: every invariance it promises
// (instance renaming, block declaration order, connection declaration
// order, behavior signal spelling) is a class of repeated request the
// store must HIT, and every sensitivity it promises (an arc moved, a type
// substituted, a result-affecting option changed) is a class of request
// that must NOT collide.  Both directions are pinned here, plus run-to-run
// and cross-thread stability, and a golden fixture that freezes the hash
// values of two paper designs so accidental algorithm drift -- which would
// orphan every record ever written to disk -- fails loudly.
#include "cache/canonical_hash.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "blocks/catalog.h"
#include "designs/library.h"
#include "randgen/generator.h"

namespace eblocks::cache {
namespace {

using blocks::defaultCatalog;

Network garage() { return designs::garageOpenAtNight(); }

// --- invariance -------------------------------------------------------------

TEST(StructureHash, InvariantUnderRelabeling) {
  for (const auto& e : designs::designLibrary()) {
    const Hash128 h = structureHash(e.network);
    for (std::uint32_t seed = 1; seed <= 5; ++seed)
      EXPECT_EQ(structureHash(randgen::relabeledCopy(e.network, seed)), h)
          << e.name << " seed " << seed;
  }
}

TEST(StructureHash, InvariantUnderRelabelingOnRandomDesigns) {
  for (int i = 0; i < 20; ++i) {
    randgen::GeneratorOptions options;
    options.innerBlocks = 4 + (i * 5) % 40;
    options.seed = 77 + static_cast<std::uint32_t>(i);
    const Network net = randgen::randomNetwork(options);
    const Hash128 h = structureHash(net);
    EXPECT_EQ(structureHash(randgen::relabeledCopy(net, 7 + i)), h)
        << "random#" << i;
  }
}

TEST(StructureHash, InvariantUnderConnectionDeclarationOrder) {
  const auto build = [](bool reversedArcs) {
    Network net("order");
    const auto& cat = defaultCatalog();
    const BlockId s0 = net.addBlock("s0", cat.button());
    const BlockId s1 = net.addBlock("s1", cat.button());
    const BlockId g = net.addBlock("g", cat.and2());
    const BlockId o = net.addBlock("o", cat.led());
    if (reversedArcs) {
      net.connect(g, 0, o, 0);
      net.connect(s1, 0, g, 1);
      net.connect(s0, 0, g, 0);
    } else {
      net.connect(s0, 0, g, 0);
      net.connect(s1, 0, g, 1);
      net.connect(g, 0, o, 0);
    }
    return net;
  };
  EXPECT_EQ(structureHash(build(false)), structureHash(build(true)));
}

// Two hand-rolled types computing the same function with every signal --
// ports and internal `var` state -- spelled differently.  The canonical
// behavior rename must make them indistinguishable.
TEST(StructureHash, InvariantUnderBehaviorSignalRenaming) {
  const auto makeNet = [](const BlockTypePtr& type) {
    Network net("sigrename");
    const auto& cat = defaultCatalog();
    const BlockId s0 = net.addBlock("in0", cat.button());
    const BlockId s1 = net.addBlock("in1", cat.button());
    const BlockId x = net.addBlock("x", type);
    const BlockId o = net.addBlock("out0", cat.led());
    net.connect(s0, 0, x, 0);
    net.connect(s1, 0, x, 1);
    net.connect(x, 0, o, 0);
    return net;
  };
  const auto t1 = std::make_shared<const BlockType>(
      "custom_latch_v1", BlockClass::kCompute,
      std::vector<std::string>{"a", "b"}, std::vector<std::string>{"out"},
      "var seen = 0;\n"
      "if (a == 1 && b == 1) { seen = 1; }\n"
      "if (seen == 1) { out = 1; } else { out = 0; }\n",
      /*sequential=*/true);
  const auto t2 = std::make_shared<const BlockType>(
      "custom_latch_v2", BlockClass::kCompute,
      std::vector<std::string>{"p", "q"}, std::vector<std::string>{"res"},
      "var armed = 0;\n"
      "if (p == 1 && q == 1) { armed = 1; }\n"
      "if (armed == 1) { res = 1; } else { res = 0; }\n",
      /*sequential=*/true);
  EXPECT_EQ(structureHash(makeNet(t1)), structureHash(makeNet(t2)));
}

// --- sensitivity --------------------------------------------------------------

TEST(StructureHash, SingleArcEditChangesHash) {
  const auto build = [](bool rerouted) {
    Network net("arcedit");
    const auto& cat = defaultCatalog();
    const BlockId s0 = net.addBlock("s0", cat.button());
    const BlockId s1 = net.addBlock("s1", cat.button());
    const BlockId g = net.addBlock("g", cat.and2());
    const BlockId o = net.addBlock("o", cat.led());
    net.connect(s0, 0, g, 0);
    // The single edit: g's second input comes from s1 or from s0's fanout.
    net.connect(rerouted ? s0 : s1, 0, g, 1);
    net.connect(g, 0, o, 0);
    return net;
  };
  EXPECT_NE(structureHash(build(false)), structureHash(build(true)));
}

TEST(StructureHash, TypeSubstitutionChangesHash) {
  const auto build = [](const BlockTypePtr& gate) {
    Network net("typeedit");
    const auto& cat = defaultCatalog();
    const BlockId s0 = net.addBlock("s0", cat.button());
    const BlockId s1 = net.addBlock("s1", cat.button());
    const BlockId g = net.addBlock("g", gate);
    const BlockId o = net.addBlock("o", cat.led());
    net.connect(s0, 0, g, 0);
    net.connect(s1, 0, g, 1);
    net.connect(g, 0, o, 0);
    return net;
  };
  EXPECT_NE(structureHash(build(defaultCatalog().and2())),
            structureHash(build(defaultCatalog().or2())));
  EXPECT_NE(structureHash(build(defaultCatalog().logic2(0b1000))),
            structureHash(build(defaultCatalog().logic2(0b1110))));
}

// The hash keys on computation, not catalog spelling: two designs the
// partitioner cannot tell apart are SUPPOSED to collide -- that is the
// cache's hit-rate lever, and placement + verification make serving
// one's record for the other sound.  The library contains exactly one
// such pair: "Ignition Illuminator" (contact switches -> inverter ->
// and2 -> led) and "Night Lamp Controller" (light/motion sensors ->
// inverter -> and2 -> relay) share that shape block-for-block.  Every
// other design must stay distinct.
TEST(StructureHash, LibraryDesignsDistinctUpToSemantics) {
  EXPECT_EQ(structureHash(designs::byName("Ignition Illuminator")),
            structureHash(designs::byName("Night Lamp Controller")));

  std::map<std::string, std::string> byHash;
  for (const auto& e : designs::designLibrary()) {
    const auto [it, inserted] =
        byHash.emplace(toHex(structureHash(e.network)), e.name);
    if (!inserted) {
      EXPECT_TRUE(it->second == "Ignition Illuminator" &&
                  e.name == "Night Lamp Controller")
          << e.name << " collides with " << it->second;
    }
  }
}

// --- options fingerprint -------------------------------------------------------

TEST(OptionsFingerprint, ResultAffectingKnobsSeparate) {
  const partition::ProgBlockSpec spec;
  const partition::EngineOptions engine;
  const std::uint64_t base = optionsFingerprint("exhaustive", spec, engine);

  EXPECT_NE(optionsFingerprint("paredown", spec, engine), base);

  partition::ProgBlockSpec wider = spec;
  wider.inputs = 3;
  EXPECT_NE(optionsFingerprint("exhaustive", wider, engine), base);
  wider = spec;
  wider.outputs = 3;
  EXPECT_NE(optionsFingerprint("exhaustive", wider, engine), base);
  wider = spec;
  wider.mode = CountingMode::kSignals;
  EXPECT_NE(optionsFingerprint("exhaustive", wider, engine), base);

  partition::EngineOptions convex = engine;
  convex.requireConvex = true;
  EXPECT_NE(optionsFingerprint("exhaustive", spec, convex), base);
}

TEST(OptionsFingerprint, AcceleratorKnobsNormalizeAway) {
  const partition::ProgBlockSpec spec;
  const partition::EngineOptions engine;
  const std::uint64_t base = optionsFingerprint("exhaustive", spec, engine);

  // Every knob here is bit-identity-preserving by the engine's contract:
  // a request at 8 threads must hit a record computed at 1.
  partition::EngineOptions accel = engine;
  accel.threads = 8;
  accel.timeLimitSeconds = 3600.0;
  accel.seedFromPareDown = false;
  accel.pruningBound = false;
  accel.initialIncumbent = partition::Partitioning{};
  EXPECT_EQ(optionsFingerprint("exhaustive", spec, accel), base);
}

TEST(OptionsFingerprint, LnsKnobsOnlyCountForLns) {
  const partition::ProgBlockSpec spec;
  partition::EngineOptions engine;
  engine.lnsRounds = 4;
  partition::EngineOptions other = engine;
  other.rngSeed = 99;
  other.lnsPocket = 6;
  // Inert for the deterministic strategies...
  EXPECT_EQ(optionsFingerprint("exhaustive", spec, other),
            optionsFingerprint("exhaustive", spec, engine));
  // ...but part of lns's identity.
  EXPECT_NE(optionsFingerprint("lns", spec, other),
            optionsFingerprint("lns", spec, engine));
}

// --- stability -------------------------------------------------------------------

TEST(StructureHash, StableAcrossRepeatedRunsAndThreads) {
  const Network net = garage();
  const Hash128 serial = structureHash(net);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(structureHash(net), serial);

  std::vector<Hash128> results(8);
  std::vector<std::thread> workers;
  for (int t = 0; t < 8; ++t)
    workers.emplace_back([&results, &net, t] {
      Hash128 h = structureHash(net);
      for (int i = 0; i < 20; ++i)
        if (structureHash(net) != h) h = Hash128{};  // poison on instability
      results[static_cast<std::size_t>(t)] = h;
    });
  for (std::thread& w : workers) w.join();
  for (const Hash128& h : results) EXPECT_EQ(h, serial);
}

// --- canonical form ------------------------------------------------------------

TEST(CanonicalForm, PositionsCorrespondOnRelabeledCopies) {
  for (int i = 0; i < 10; ++i) {
    randgen::GeneratorOptions options;
    options.innerBlocks = 5 + i * 3;
    options.seed = 500 + static_cast<std::uint32_t>(i);
    const Network from = randgen::randomNetwork(options);
    const Network to = randgen::relabeledCopy(from, 31 + i);

    const CanonicalForm a = canonicalForm(from);
    const CanonicalForm b = canonicalForm(to);
    EXPECT_EQ(a.structure, structureHash(from)) << "random#" << i;
    EXPECT_EQ(b.structure, a.structure) << "random#" << i;
    ASSERT_EQ(a.order.size(), from.blockCount());
    ASSERT_EQ(b.order.size(), to.blockCount());
    // Position p of one network is position p of the other: the map is
    // a permutation carrying every arc onto an arc.
    std::vector<BlockId> map(from.blockCount(), kNoBlock);
    for (std::size_t p = 0; p < a.order.size(); ++p)
      map[a.order[p]] = b.order[p];
    std::set<BlockId> image(map.begin(), map.end());
    EXPECT_EQ(image.size(), from.blockCount()) << "not a permutation";
    std::set<Connection> target;
    for (const Connection& c : to.connections()) target.insert(c);
    for (const Connection& c : from.connections()) {
      const Connection mapped{{map[c.from.block], c.from.port},
                              {map[c.to.block], c.to.port}};
      EXPECT_TRUE(target.count(mapped))
          << "arc lost by the positions in random#" << i;
    }
  }
  // Different designs never share a structure, so no record of one is
  // ever placed onto the other.
  EXPECT_NE(canonicalForm(garage()).structure,
            canonicalForm(designs::figure5()).structure);
}

// --- golden fixture ------------------------------------------------------------------
//
// Frozen hash values for two paper designs.  These change ONLY with a
// deliberate hash-algorithm revision -- which orphans every store record
// on disk, so it must be a conscious, documented act (see docs/caching.md),
// not a refactoring accident.

TEST(StructureHashGolden, PinnedPaperDesignHashes) {
  EXPECT_EQ(toHex(structureHash(garage())),
            "211894e1df4d3dfcaea987062d6633ce");
  EXPECT_EQ(toHex(structureHash(designs::figure5())),
            "506898765bdbf53ea2bbe22427e0271a");
}

}  // namespace
}  // namespace eblocks::cache
