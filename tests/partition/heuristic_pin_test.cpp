// Bit-identity pin of the heuristic partitioner family: greedySeed,
// fmRefine, lnsSearch (fixed rounds, no deadline) and degradationLadder
// (no deadline, serial), in both counting modes, over Figure 5, the 15
// Table-1 designs and 20 seeded largeNetwork designs of 10..40 inner
// blocks.  Each digest covers every run's partitions, explored and
// pruned.  The digests were recorded before LNS repaired its pockets as
// sub-problems of the whole network and greedy's PareDown fallback became
// a sub-problem too, so they pin that move as result- and effort-neutral.
//
// On a mismatch the test prints the actual digest; update the recorded
// one only when a change in which blocks pair up, or in how many nodes a
// search visits, is intended.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "designs/library.h"
#include "partition/fm_refine.h"
#include "partition/greedy_seed.h"
#include "partition/ladder.h"
#include "partition/lns.h"
#include "randgen/generator.h"

namespace eblocks::partition {
namespace {

/// FNV-1a-64 over a run's partitions and effort counters.
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
  }
};

/// Figure 5, the Table-1 designs, then largeNetwork designs of 10..40
/// inner blocks.
std::vector<Network> pinnedDesigns() {
  std::vector<Network> out;
  out.push_back(designs::figure5());
  for (designs::DesignEntry& e : designs::designLibrary())
    out.push_back(std::move(e.network));
  for (std::uint32_t i = 0; i < 20; ++i) {
    const int inner = 10 + static_cast<int>(i) * 30 / 19;
    out.push_back(randgen::randomNetwork(
        randgen::GeneratorOptions::largeNetwork(inner, 500 + i)));
  }
  return out;
}

TEST(HeuristicPin, FamilyMatchesTheRecordedDigests) {
  const std::vector<Network> sweep = pinnedDesigns();
  ASSERT_EQ(sweep.size(), 36u);

  Fnv1a64 greedy, fm, lns, ladder;
  for (const Network& net : sweep) {
    for (const CountingMode mode :
         {CountingMode::kEdges, CountingMode::kSignals}) {
      const PartitionProblem problem(
          net, ProgBlockSpec{.inputs = 2, .outputs = 2, .mode = mode});
      const PartitionRun seeded = greedySeed(problem);
      greedy.add(seeded);
      const PartitionRun refined = fmRefine(problem, seeded.result);
      fm.add(refined);

      LnsOptions pockets;
      pockets.timeLimitSeconds = 0;
      pockets.maxRounds = 12;
      pockets.stallRounds = 0;
      pockets.pocketSize = 8;
      pockets.repairNodeBudget = 20000;
      pockets.rngSeed = 3;
      lns.add(lnsSearch(problem, refined.result, pockets));

      // The ladder's exact rung runs to completion, so only designs it
      // closes in milliseconds take part.
      if (problem.innerCount() > 14) continue;
      EngineOptions unlimited;
      unlimited.timeLimitSeconds = 0;
      unlimited.threads = 1;
      unlimited.lnsRounds = 6;
      unlimited.lnsPocket = 6;
      ladder.add(degradationLadder(problem, unlimited));
    }
  }
  EXPECT_EQ(greedy.hash, 0xfdab6deb4f1f474cull) << std::hex << greedy.hash;
  EXPECT_EQ(fm.hash, 0xdad2d0010a4de2d8ull) << std::hex << fm.hash;
  EXPECT_EQ(lns.hash, 0x2fa7f7aba60144b2ull) << std::hex << lns.hash;
  EXPECT_EQ(ladder.hash, 0xca7bf681c0b8c052ull) << std::hex << ladder.hash;
}

}  // namespace
}  // namespace eblocks::partition
