#include "partition/greedy_seed.h"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "partition/paredown.h"
#include "partition/port_counter.h"
#include "partition/validity.h"

namespace eblocks::partition {

PartitionRun greedySeed(const PartitionProblem& problem) {
  const auto start = std::chrono::steady_clock::now();
  const CompactGraph& graph = problem.graph();
  const ProgBlockSpec& spec = problem.spec();

  PartitionRun run;
  run.algorithm = "greedy";

  // Seeds in (level, id) order, like aggregation: clusters grow downstream
  // from the sensor frontier, which keeps early clusters out of each
  // other's fanout.
  std::vector<BlockId> seeds = problem.innerBlocks();
  std::sort(seeds.begin(), seeds.end(), [&](BlockId a, BlockId b) {
    const int la = problem.levels()[a], lb = problem.levels()[b];
    return la != lb ? la < lb : a < b;
  });

  BitSet unassigned = problem.innerSet();
  PortCounter cluster(graph, spec.mode);
  // BFS frontier of candidate neighbors; `queued` stamps blocks already
  // enqueued for the current cluster so a block is probed at most once
  // per cluster even when several members touch it.
  std::vector<BlockId> frontier;
  std::vector<std::uint32_t> queuedStamp(graph.blockCount(), 0);
  std::uint32_t stamp = 0;

  const auto enqueueNeighbors = [&](BlockId member) {
    const auto consider = [&](BlockId nb) {
      if (queuedStamp[nb] == stamp || !unassigned.test(nb) ||
          cluster.contains(nb))
        return;
      queuedStamp[nb] = stamp;
      frontier.push_back(nb);
    };
    for (const CompactArc& a : graph.inArcs(member)) consider(a.neighbor);
    for (const CompactArc& a : graph.outArcs(member)) consider(a.neighbor);
  };

  for (BlockId seed : seeds) {
    if (!unassigned.test(seed)) continue;
    ++stamp;
    cluster.clear();
    cluster.add(seed);
    ++run.explored;
    if (!fits(cluster.io(), spec)) {
      // The seed alone busts the budget; the PareDown fallback gets it
      // (it may still merge once neighbors internalize its edges).
      continue;
    }
    frontier.clear();
    enqueueNeighbors(seed);
    // FIFO growth: probe each frontier block once; acceptance expands the
    // frontier with the newcomer's neighborhood.
    for (std::size_t head = 0; head < frontier.size(); ++head) {
      const BlockId cand = frontier[head];
      if (!unassigned.test(cand) || cluster.contains(cand)) continue;
      ++run.explored;
      cluster.add(cand);
      if (fits(cluster.io(), spec)) {
        enqueueNeighbors(cand);
      } else {
        cluster.remove(cand);
      }
    }
    if (cluster.memberCount() >= 2) {
      run.result.partitions.push_back(cluster.members());
      unassigned.andNot(cluster.members());
    }
  }

  // Fallback: PareDown over the residual only, as a sub-problem.  BFS
  // growth accepts the first neighbor that fits with no look-ahead, so it
  // tends to strand blocks whose edges needed internalizing in a specific
  // order; border-paring handles exactly those.
  if (unassigned.any()) {
    const PartitionRun pared =
        pareDown(PartitionProblem(problem, std::move(unassigned)));
    run.explored += pared.explored;
    for (const BitSet& p : pared.result.partitions)
      run.result.partitions.push_back(p);
  }

  run.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  return run;
}

}  // namespace eblocks::partition
