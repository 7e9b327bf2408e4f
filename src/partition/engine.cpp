#include "partition/engine.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "partition/aggregation.h"
#include "partition/fm_refine.h"
#include "partition/greedy_seed.h"
#include "partition/ladder.h"
#include "partition/paredown.h"

namespace eblocks::partition {

namespace {

PartitionRun runPareDown(const PartitionProblem& problem,
                         const EngineOptions&) {
  return pareDown(problem);
}

PartitionRun runAggregation(const PartitionProblem& problem,
                            const EngineOptions&) {
  return aggregation(problem);
}

PartitionRun runGreedy(const PartitionProblem& problem, const EngineOptions&) {
  return greedySeed(problem);
}

PartitionRun runExhaustive(const PartitionProblem& problem,
                           const EngineOptions& options) {
  // Warm start: seed the incumbent with the cheapest known solution.
  // Both sources are pure accelerators (trust-but-verify inside the
  // search), so taking the cheaper one never changes the optimum.
  ExhaustiveOptions ex = toExhaustiveOptions(options);
  if (options.seedFromPareDown) ex.seed = pareDown(problem).result;
  if (options.initialIncumbent) {
    const int n = problem.innerCount();
    keepCheaperSeed(ex.seed, *options.initialIncumbent,
                    [n](const Partitioning& p) { return p.totalAfter(n); });
  }
  return exhaustiveSearch(problem, ex);
}

PartitionRun runFm(const PartitionProblem& problem, const EngineOptions&) {
  const PartitionRun seed = greedySeed(problem);
  PartitionRun refined = fmRefine(problem, seed.result);
  refined.explored += seed.explored;
  refined.seconds += seed.seconds;
  return refined;
}

PartitionRun runLns(const PartitionProblem& problem,
                    const EngineOptions& options) {
  const PartitionRun seed = greedySeed(problem);
  const PartitionRun refined = fmRefine(problem, seed.result);
  PartitionRun out =
      lnsSearch(problem, refined.result, toLnsOptions(options));
  out.explored += seed.explored + refined.explored;
  out.seconds += seed.seconds + refined.seconds;
  return out;
}

PartitionRun runTypedPareDown(const PartitionProblem& problem,
                              const ProgCostModel& model,
                              const EngineOptions&) {
  return multiTypePareDown(problem, model);
}

PartitionRun runTypedExhaustive(const PartitionProblem& problem,
                                const ProgCostModel& model,
                                const EngineOptions& options) {
  ExhaustiveOptions ex = toExhaustiveOptions(options);
  if (options.seedFromPareDown)
    ex.seed = multiTypePareDown(problem, model).result;
  if (options.initialIncumbent) {
    const int n = problem.innerCount();
    const MilliCostModel milli = toMilliCosts(model, n);
    keepCheaperSeed(
        ex.seed, *options.initialIncumbent,
        [&](const Partitioning& p) { return milli.totalCost(p, n); });
  }
  return multiTypeExhaustive(problem, model, ex);
}

PartitionRun runTypedFm(const PartitionProblem& problem,
                        const ProgCostModel& model, const EngineOptions&) {
  const PartitionRun seed = multiTypePareDown(problem, model);
  PartitionRun refined = multiTypeFmRefine(problem, model, seed.result);
  refined.explored += seed.explored;
  refined.seconds += seed.seconds;
  return refined;
}

constexpr Strategy kStrategies[] = {
    {"aggregation",
     "greedy neighbor aggregation (Section 4.2); fast, no look-ahead",
     runAggregation, nullptr, false},
    {"exhaustive",
     "optimal work-stealing branch-and-bound (Section 4.1), "
     "PareDown-seeded, admissible-bound pruned",
     runExhaustive, runTypedExhaustive, true},
    {"fm",
     "FM-style pass-based refinement of the greedy seed (gain "
     "buckets, rollback-to-best-prefix)",
     runFm, runTypedFm, false},
    {"greedy",
     "constructive BFS cluster growth + residual PareDown; "
     "near-linear seed for fm/lns",
     runGreedy, nullptr, false},
    {"ladder",
     "deadline degradation ladder greedy -> fm -> lns -> exact "
     "B&B; always feasible, run.degradedTier reports the rung",
     degradationLadder, nullptr, true},
    {"lns",
     "anytime large-neighborhood search over fm's solution "
     "(pocket destroy + exact B&B repair)",
     runLns, nullptr, false},
    {"paredown",
     "border-paring heuristic (Section 4.2); O(n^2), near-optimal",
     runPareDown, runTypedPareDown, false},
};
static_assert(std::ranges::is_sorted(kStrategies, {}, &Strategy::name));

/// The names of the strategies `keep` selects, comma-separated.
template <typename Keep>
std::string joinNames(Keep&& keep) {
  std::string joined;
  for (const Strategy& s : kStrategies) {
    if (!keep(s)) continue;
    if (!joined.empty()) joined += ", ";
    joined += s.name;
  }
  return joined;
}

}  // namespace

ExhaustiveOptions toExhaustiveOptions(const EngineOptions& options) {
  ExhaustiveOptions ex;
  ex.timeLimitSeconds = options.timeLimitSeconds;
  ex.requireConvex = options.requireConvex;
  ex.threads = options.threads;
  ex.pruningBound = options.pruningBound;
  ex.cancel = options.cancel;
  ex.progressNodes = options.progressNodes;
  return ex;
}

LnsOptions toLnsOptions(const EngineOptions& options) {
  LnsOptions lns;
  lns.timeLimitSeconds = options.timeLimitSeconds;
  lns.pocketSize = options.lnsPocket;
  lns.maxRounds = options.lnsRounds;
  lns.rngSeed = options.rngSeed;
  lns.cancel = options.cancel;
  lns.progressNodes = options.progressNodes;
  return lns;
}

std::span<const Strategy> strategies() { return kStrategies; }

const Strategy* findStrategy(std::string_view name) {
  for (const Strategy& s : kStrategies)
    if (s.name == name) return &s;
  return nullptr;
}

PartitionRun runPartitioner(std::string_view name,
                            const PartitionProblem& problem,
                            const EngineOptions& options) {
  const Strategy* strategy = findStrategy(name);
  if (!strategy)
    throw std::invalid_argument(
        "unknown partitioning algorithm '" + std::string(name) +
        "' (registered: " + joinNames([](const Strategy&) { return true; }) +
        ")");
  return strategy->run(problem, options);
}

PartitionRun runPartitioner(std::string_view name,
                            const PartitionProblem& problem,
                            const ProgCostModel& model,
                            const EngineOptions& options) {
  const Strategy* strategy = findStrategy(name);
  if (!strategy || !strategy->runTyped)
    throw std::invalid_argument(
        "unknown multi-type partitioning algorithm '" + std::string(name) +
        "' (registered: " +
        joinNames([](const Strategy& s) { return s.runTyped != nullptr; }) +
        ")");
  return strategy->runTyped(problem, model, options);
}

}  // namespace eblocks::partition
