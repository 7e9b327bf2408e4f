// The partition engine: one constant table of every partitioning
// strategy.
//
// Every strategy takes the PartitionProblem it solves -- the graph, the
// levels, the universe of blocks it may place, and the counting mode;
// a multi-type strategy takes a ProgCostModel beside it.  The table is
// name-keyed: `synthesize()`, the shell, and the daemon select by name,
// and engine-level options (time limit, threads, seeding) apply
// uniformly.  Both problems share one result type (Partitioning, whose
// optionIndex the multi-type strategies fill in) and one run record
// (PartitionRun).
//
// Strategies -- plain: aggregation, exhaustive, fm, greedy, ladder, lns,
// paredown; multi-type: exhaustive, fm, paredown.  The heuristic chain
// greedy -> fm -> lns is anytime (each stage refines the last, never
// worse); `initialIncumbent` feeds any of their solutions back into the
// exact searches as a warm start; `ladder` climbs the whole chain into
// the exact B&B under one deadline, tagging how far it got (ladder.h).
#ifndef EBLOCKS_PARTITION_ENGINE_H_
#define EBLOCKS_PARTITION_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

#include "partition/exhaustive.h"
#include "partition/lns.h"
#include "partition/multitype.h"
#include "partition/problem.h"
#include "partition/result.h"

namespace eblocks::partition {

/// Engine-level knobs forwarded to whichever strategy runs.  Strategies
/// ignore knobs that do not apply to them (the heuristics have no time
/// limit or thread pool, for example).
struct EngineOptions {
  /// Wall-clock budget for anytime strategies (exhaustive search).
  double timeLimitSeconds = 60.0;
  /// Worker threads for parallel strategies.  0 = one per hardware
  /// thread, 1 = serial.  Completed searches return identical results at
  /// every thread count; only timed-out runs are scheduling-dependent.
  int threads = 0;
  /// Require convex partitions (classical DAG covering; see
  /// VerifyOptions::requireConvex in verify.h).
  /// A plain-problem rule: the multi-type strategies ignore it.
  bool requireConvex = false;
  /// Exhaustive strategies seed their branch-and-bound with the PareDown
  /// solution by default -- a pure accelerator that never changes the
  /// optimum.  Disable to measure the unseeded search.
  bool seedFromPareDown = true;
  /// Admissible lower-bound pruning for the exhaustive strategies
  /// (irreducible-I/O floors; see exhaustive.h).  Like the seed, a pure
  /// accelerator: results are bit-identical on or off.  Disable to
  /// measure the unpruned search (bench_exhaustive_blowup ablates it).
  bool pruningBound = true;
  /// Warm start for the exhaustive strategies: a known-valid solution
  /// (commonly `fm`'s) that seeds the shared atomic incumbent.  A pure
  /// pruning accelerator like seedFromPareDown -- the optimum returned
  /// is bit-identical -- but a tighter incumbent cuts more subtrees; the
  /// exhaustive strategies seed with whichever of PareDown's solution
  /// and this one is cheaper.  The multi-type exhaustive strategy takes
  /// one with its optionIndex filled in.  Heuristic strategies ignore it.
  std::optional<Partitioning> initialIncumbent;
  /// `lns` strategy: blocks per destroyed pocket (0 = auto; see lns.h).
  int lnsPocket = 0;
  /// `lns` strategy: destroy/repair rounds (0 = until the time limit).
  int lnsRounds = 0;
  /// Seed for randomized strategies (`lns`'s destroy step).
  std::uint32_t rngSeed = 1;
  /// Cooperative cancellation, riding the searches' timeout plumbing
  /// (ExhaustiveOptions::cancel / LnsOptions::cancel): when non-null and
  /// set, the anytime strategies (`exhaustive`, `lns`) stop at their next
  /// periodic check and return the best solution so far with
  /// run.timedOut = true.  The fast constructive strategies (paredown,
  /// aggregation, greedy, fm) finish in milliseconds and ignore it.  The
  /// synthesis daemon (src/server) flips this when a client cancels or
  /// disconnects.
  const std::atomic<bool>* cancel = nullptr;
  /// Live search-effort telemetry (ExhaustiveOptions::progressNodes):
  /// the anytime strategies add explored nodes in 4096-node granules;
  /// the daemon's progress ticks read it.
  std::atomic<std::uint64_t>* progressNodes = nullptr;
};

/// The exact searches' options under `options`: time limit, convexity,
/// threads, pruning, cancellation, and telemetry.  The seed is left
/// unset.
ExhaustiveOptions toExhaustiveOptions(const EngineOptions& options);

/// LNS options under `options`: time limit, the lns* knobs, the RNG
/// seed, cancellation, and telemetry.  The repair node budget keeps its
/// LnsOptions default.
LnsOptions toLnsOptions(const EngineOptions& options);

/// Makes `candidate` the exact search's seed when there is none yet or
/// `cost` ranks it strictly cheaper, so an earlier source wins ties.
template <typename Cost>
void keepCheaperSeed(std::optional<Partitioning>& seed,
                     const Partitioning& candidate, Cost&& cost) {
  if (!seed || cost(candidate) < cost(*seed)) seed = candidate;
}

/// One partitioning strategy.  `runTyped` solves the multi-type,
/// cost-aware problem over the same PartitionProblem (its universe and
/// counting mode; not its port budget) and is null for plain-only
/// strategies.
struct Strategy {
  /// Lookup key; lowercase, stable across releases.
  std::string_view name;
  /// One-line human description (the shell's `algorithms` listing).
  std::string_view description;
  PartitionRun (*run)(const PartitionProblem& problem,
                      const EngineOptions& options);
  PartitionRun (*runTyped)(const PartitionProblem& problem,
                           const ProgCostModel& model,
                           const EngineOptions& options);
  /// True when the strategy reads EngineOptions::initialIncumbent, the
  /// only case where a cache near miss is worth looking up.
  bool readsIncumbent;
};

/// Every strategy, sorted by name.
std::span<const Strategy> strategies();

/// Lookup by name; nullptr when unknown.
const Strategy* findStrategy(std::string_view name);

/// Runs the named strategy on the plain problem.  Throws
/// std::invalid_argument (listing the known names) when unknown.
PartitionRun runPartitioner(std::string_view name,
                            const PartitionProblem& problem,
                            const EngineOptions& options = {});

/// Runs the named strategy on the multi-type problem.  Throws
/// std::invalid_argument (listing the multi-type names) when the name
/// is unknown or the strategy is plain-only.
PartitionRun runPartitioner(std::string_view name,
                            const PartitionProblem& problem,
                            const ProgCostModel& model,
                            const EngineOptions& options = {});

}  // namespace eblocks::partition

#endif  // EBLOCKS_PARTITION_ENGINE_H_
