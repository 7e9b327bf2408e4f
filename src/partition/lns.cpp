#include "partition/lns.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "core/deadline.h"
#include "partition/exhaustive.h"

namespace eblocks::partition {

namespace {

using Clock = std::chrono::steady_clock;

/// Deterministic destroy RNG (xorshift32).
struct Rng {
  std::uint32_t state;
  explicit Rng(std::uint32_t seed) : state(seed ? seed : 0x9e3779b9u) {}
  std::uint32_t next() {
    state ^= state << 13;
    state ^= state >> 17;
    state ^= state << 5;
    return state;
  }
  std::uint32_t below(std::uint32_t n) { return next() % n; }
};

}  // namespace

PartitionRun lnsSearch(const PartitionProblem& problem,
                       const Partitioning& initial,
                       const LnsOptions& options) {
  const auto start = Clock::now();
  const Clock::time_point deadline = deadlineAfter(options.timeLimitSeconds);
  const CompactGraph& graph = problem.graph();
  const int innerCount = problem.innerCount();

  PartitionRun run;
  run.algorithm = "lns";
  run.result = initial;
  if (innerCount == 0) return run;

  const int pocketSize =
      options.pocketSize > 0 ? options.pocketSize : std::min(innerCount, 12);
  Rng rng(options.rngSeed);

  int stall = 0;
  std::vector<std::int32_t> binOf(graph.blockCount());
  // The pocket's blocks in absorption order, which the BFS also walks.
  std::vector<BlockId> pocket, uncovered;
  BitSet inPocket(graph.blockCount());
  for (int round = 0; options.maxRounds == 0 || round < options.maxRounds;
       ++round) {
    if (Clock::now() > deadline ||
        (options.cancel &&
         options.cancel->load(std::memory_order_relaxed))) {
      run.timedOut = true;
      break;
    }
    if (options.stallRounds > 0 && stall >= options.stallRounds) break;

    // Current assignment + uncovered list (ascending ids).
    std::fill(binOf.begin(), binOf.end(), -1);
    for (std::size_t p = 0; p < run.result.partitions.size(); ++p)
      run.result.partitions[p].forEach(
          [&](std::size_t b) { binOf[b] = static_cast<std::int32_t>(p); });
    uncovered.clear();
    for (const BlockId b : problem.innerBlocks())
      if (binOf[b] < 0) uncovered.push_back(b);

    // Destroy: BFS a pocket of whole bins from a boundary-biased start.
    const BlockId startBlock =
        (!uncovered.empty() && round % 2 == 0)
            ? uncovered[rng.below(
                  static_cast<std::uint32_t>(uncovered.size()))]
            : problem.innerBlocks()[rng.below(
                  static_cast<std::uint32_t>(innerCount))];
    pocket.clear();
    inPocket.clear();
    const auto absorb = [&](BlockId b) {
      // Whole-bin granularity keeps the untouched remainder a valid
      // partitioning by construction.
      const auto take = [&](BlockId m) {
        if (inPocket.test(m)) return;
        inPocket.set(m);
        pocket.push_back(m);
      };
      if (binOf[b] >= 0)
        run.result.partitions[binOf[b]].forEach(
            [&](std::size_t m) { take(static_cast<BlockId>(m)); });
      else
        take(b);
    };
    absorb(startBlock);
    std::size_t head = 0;
    const auto expand = [&] {
      for (; head < pocket.size() &&
             static_cast<int>(pocket.size()) < pocketSize;
           ++head) {
        const BlockId x = pocket[head];
        const auto visit = [&](BlockId nb) {
          if (static_cast<int>(pocket.size()) < pocketSize &&
              graph.isInner(nb) && !inPocket.test(nb))
            absorb(nb);
        };
        for (const CompactArc& a : graph.inArcs(x)) visit(a.neighbor);
        for (const CompactArc& a : graph.outArcs(x)) visit(a.neighbor);
      }
    };
    expand();
    // A drained frontier short of the target means the start's component
    // is exhausted; restart from the lowest-id unabsorbed inner block so
    // a full-design pocket covers disconnected inner graphs too.
    for (const BlockId b : problem.innerBlocks()) {
      if (static_cast<int>(pocket.size()) >= pocketSize) break;
      if (inPocket.test(b)) continue;
      absorb(b);
      expand();
    }
    if (pocket.size() < 2) {
      ++stall;
      continue;
    }

    // Repair: exact search on the pocket as a sub-problem of the whole
    // problem, seeded with what the destroy removed, clipped by the node
    // budget and the deadline.
    const PartitionProblem subProblem(problem, inPocket);
    ExhaustiveOptions repair;
    repair.threads = 1;
    repair.nodeBudget = options.repairNodeBudget;
    repair.pruningBound = true;
    repair.cancel = options.cancel;
    repair.progressNodes = options.progressNodes;
    if (deadline != Clock::time_point::max()) {
      const double remaining =
          std::chrono::duration<double>(deadline - Clock::now()).count();
      if (remaining <= 0) {
        // The deadline lapsed since the round-start check; a non-positive
        // limit would mean "unlimited" to the repair search.
        run.timedOut = true;
        break;
      }
      repair.timeLimitSeconds = remaining;
    }
    Partitioning seed;
    for (const BitSet& p : run.result.partitions)
      if (inPocket.test(p.findFirst())) seed.partitions.push_back(p);
    const int pocketBlocks = static_cast<int>(pocket.size());
    const int before = seed.totalAfter(pocketBlocks);
    repair.seed = std::move(seed);
    const PartitionRun repaired = exhaustiveSearch(subProblem, repair);
    run.explored += repaired.explored;
    run.pruned += repaired.pruned;

    // Accept strict improvements of the paper's objective.  The repair
    // was seeded with the destroyed pocket solution, so it can never
    // come back worse -- only equal (stall) or better.
    if (repaired.result.totalAfter(pocketBlocks) < before) {
      std::vector<BitSet> next;
      for (const BitSet& p : run.result.partitions)
        if (!inPocket.test(p.findFirst())) next.push_back(p);
      for (const BitSet& p : repaired.result.partitions) next.push_back(p);
      std::sort(next.begin(), next.end(),
                [](const BitSet& a, const BitSet& b) {
                  return a.findFirst() < b.findFirst();
                });
      run.result.partitions = std::move(next);
      stall = 0;
    } else {
      ++stall;
    }
    if (pocketBlocks == innerCount && repaired.optimal) {
      // The round was a completed exact search of the whole design.
      run.optimal = true;
      break;
    }
  }

  run.seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  return run;
}

}  // namespace eblocks::partition
