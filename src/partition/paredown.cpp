#include "partition/paredown.h"

#include <chrono>

#include "partition/multitype.h"
#include "partition/port_counter.h"
#include "partition/validity.h"

namespace eblocks::partition {

namespace {

/// Chooses the border block to remove: least rank, then greatest indegree,
/// then greatest outdegree, then highest level (paper Section 4.2), then
/// lowest id for full determinism.
BlockId chooseRemoval(const Network& net, const std::vector<int>& levels,
                      const std::vector<BlockId>& border,
                      const std::vector<int>& ranks) {
  BlockId best = border.front();
  int bestRank = ranks.front();
  for (std::size_t i = 1; i < border.size(); ++i) {
    const BlockId b = border[i];
    const int r = ranks[i];
    if (r != bestRank) {
      if (r < bestRank) { best = b; bestRank = r; }
      continue;
    }
    if (net.indegree(b) != net.indegree(best)) {
      if (net.indegree(b) > net.indegree(best)) best = b;
      continue;
    }
    if (net.outdegree(b) != net.outdegree(best)) {
      if (net.outdegree(b) > net.outdegree(best)) best = b;
      continue;
    }
    if (levels[b] != levels[best]) {
      if (levels[b] > levels[best]) best = b;
      continue;
    }
    // ids ascend during iteration, so `best` is already the lowest id.
  }
  return best;
}

/// The paring loop (Figure 4) shared by both problems.  Candidates are
/// drawn from the problem's universe; `accept(candidate, out)` decides at
/// every decision point whether the candidate fits.  A fitting candidate
/// retires, and `accept` appends it to `out` when it is worth keeping; a
/// candidate that does not fit loses its chosen border block.
template <typename Accept>
PartitionRun pare(const PartitionProblem& problem,
                  const PareDownOptions& options, Accept&& accept) {
  PartitionRun run;
  BitSet blocks = problem.innerSet();
  // The candidate's port usage, border set, and removal ranks are all
  // maintained incrementally: each paring round removes one block, so the
  // counter update is O(degree) instead of a full countIo() /
  // borderBlocks() / removalRank() rescan of the member set per decision.
  // The counter walks a shared CSR view (compact_graph.h).
  PortCounter candidate(problem.graph(), problem.spec().mode,
                        BorderTracking::kOn);
  PareDownStep step;  // reused across rounds; the buffers keep capacity
  while (blocks.any()) {
    candidate.assign(blocks);
    bool accepted = false;
    BlockId lastRemoved = kNoBlock;
    while (candidate.memberCount() > 0) {
      ++run.explored;
      step.border.clear();
      step.ranks.clear();
      step.removed = kNoBlock;  // step.candidate/io/fits are set below
      step.io = candidate.io();
      step.fits = accept(candidate, run.result);
      if (options.trace) step.candidate = candidate.members();
      if (step.fits) {
        blocks.andNot(candidate.members());
        accepted = true;
        if (options.trace) options.trace(step);
        break;
      }
      candidate.border().forEach([&](std::size_t b) {
        step.border.push_back(static_cast<BlockId>(b));
        step.ranks.push_back(candidate.rank(static_cast<BlockId>(b)));
      });
      if (step.border.empty()) {
        // Cannot happen on DAGs (a maximal-level member is always border),
        // but guard against pathological inputs: abandon this candidate.
        blocks.andNot(candidate.members());
        if (options.trace) options.trace(step);
        break;
      }
      step.removed = chooseRemoval(problem.network(), problem.levels(),
                                   step.border, step.ranks);
      lastRemoved = step.removed;
      candidate.remove(step.removed);
      if (options.trace) options.trace(step);
    }
    if (!accepted && candidate.memberCount() == 0) {
      // The candidate pared away entirely without ever fitting ("partition
      // contains zero blocks").
      if (options.strictFigure4) break;  // Figure 4 literally returns here
      // Robust default: the last surviving block is unpartitionable on its
      // own; retire it and keep decomposing the rest.
      blocks.reset(lastRemoved);
    }
  }
  return run;
}

double secondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

PartitionRun pareDown(const PartitionProblem& problem,
                      const PareDownOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  const ProgBlockSpec& spec = problem.spec();
  PartitionRun run = pare(
      problem, options, [&](const PortCounter& candidate, Partitioning& out) {
        if (!fits(candidate.io(), spec)) return false;
        // A single fitting block is dropped: replacing one pre-defined
        // block with one programmable block brings no reduction.
        if (candidate.memberCount() > 1)
          out.partitions.push_back(candidate.members());
        return true;
      });
  run.algorithm = "paredown";
  run.seconds = secondsSince(start);
  return run;
}

PartitionRun multiTypePareDown(const PartitionProblem& problem,
                               const ProgCostModel& model) {
  const auto start = std::chrono::steady_clock::now();
  const MilliCostModel milli = toMilliCosts(model, problem.innerCount());
  PartitionRun run = pare(
      problem, {}, [&](const PortCounter& candidate, Partitioning& out) {
        const auto option = cheapestFittingOption(candidate.io(), model);
        if (!option) return false;
        // Replace only when the option costs less than the pre-defined
        // blocks it would replace.  Not beneficial (e.g. a lone block):
        // the candidate retires either way (see multitype.h).
        if (milli.optionCost[static_cast<std::size_t>(*option)] <
            milli.preDefinedBlockCost * candidate.memberCount()) {
          out.partitions.push_back(candidate.members());
          out.optionIndex.push_back(*option);
        }
        return true;
      });
  run.algorithm = "multitype-paredown";
  run.seconds = secondsSince(start);
  return run;
}

}  // namespace eblocks::partition
