#include "partition/ladder.h"

#include <chrono>
#include <limits>
#include <utility>

#include "core/deadline.h"
#include "partition/fm_refine.h"
#include "partition/greedy_seed.h"
#include "partition/paredown.h"

namespace eblocks::partition {

namespace {

using Clock = std::chrono::steady_clock;

double elapsedSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

bool cancelled(const EngineOptions& options) {
  return options.cancel != nullptr &&
         options.cancel->load(std::memory_order_relaxed);
}

}  // namespace

PartitionRun degradationLadder(const PartitionProblem& problem,
                               const EngineOptions& options) {
  const auto start = Clock::now();
  const Clock::time_point deadline = deadlineAfter(options.timeLimitSeconds);
  const bool unlimited = deadline == Clock::time_point::max();
  const auto remaining = [&] {
    return unlimited ? std::numeric_limits<double>::infinity()
                     : std::chrono::duration<double>(deadline - Clock::now())
                           .count();
  };
  const int inner = problem.innerCount();
  const auto costOf = [inner](const Partitioning& p) {
    return p.totalAfter(inner);
  };

  // Rung 1: greedy.  Unconditional -- the feasibility floor.
  PartitionRun best = greedySeed(problem);
  std::string tier = "greedy";
  std::uint64_t explored = best.explored;
  std::uint64_t pruned = best.pruned;

  // Rung 2: fm, if the deadline has anything left.
  if (!cancelled(options) && remaining() > 0.0) {
    PartitionRun refined = fmRefine(problem, best.result);
    explored += refined.explored;
    pruned += refined.pruned;
    best.result = std::move(refined.result);
    best.seconds += refined.seconds;
    tier = "fm";
  }

  // Rung 3: lns, on roughly half of what remains (never starving the
  // exact rung below; irrelevant when unlimited -- lns then runs to its
  // own stall/round limits, which is still finite).
  if (!cancelled(options) && remaining() > 0.0) {
    LnsOptions lns = toLnsOptions(options);
    lns.timeLimitSeconds = unlimited ? 0.0 : remaining() * 0.5;
    PartitionRun searched = lnsSearch(problem, best.result, lns);
    explored += searched.explored;
    pruned += searched.pruned;
    // lnsSearch never returns worse than its seed.
    best.result = std::move(searched.result);
    best.seconds += searched.seconds;
    tier = "lns";
  }

  // Rung 4: the exact branch-and-bound, warm-started with the cheapest
  // known incumbent, on every remaining second.
  bool optimal = false;
  if (!cancelled(options) && remaining() > 0.0) {
    ExhaustiveOptions ex = toExhaustiveOptions(options);
    ex.timeLimitSeconds = unlimited ? 0.0 : remaining();
    ex.seed = best.result;
    if (options.seedFromPareDown)
      keepCheaperSeed(ex.seed, pareDown(problem).result, costOf);
    if (options.initialIncumbent)
      keepCheaperSeed(ex.seed, *options.initialIncumbent, costOf);
    PartitionRun exact = exhaustiveSearch(problem, ex);
    explored += exact.explored;
    pruned += exact.pruned;
    // The search's incumbent starts at the seed, so its answer is never
    // worse than the heuristic rungs'.  Attribute the tier honestly:
    // a timed-out B&B that only echoed its seed did not improve it.
    if (exact.optimal) {
      optimal = true;
      tier.clear();
    } else if (costOf(exact.result) < costOf(best.result)) {
      tier = "exact-anytime";
    }
    best.workerExplored = std::move(exact.workerExplored);
    best.workerPruned = std::move(exact.workerPruned);
    best.result = std::move(exact.result);
  }

  best.algorithm = "ladder";
  best.degradedTier = tier;
  best.optimal = optimal;
  best.timedOut = !optimal;
  best.explored = explored;
  best.pruned = pruned;
  best.seconds = elapsedSince(start);
  return best;
}

}  // namespace eblocks::partition
