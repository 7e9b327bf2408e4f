// Large-neighborhood search: destroy a pocket of blocks, re-solve it
// exactly, accept improvements, repeat until the anytime budget runs out.
//
// Each round picks a pocket of ~pocketSize inner blocks by BFS from a
// start block (boundary-biased: rounds alternate between starting at an
// uncovered block -- the blocks a better solution must pair up -- and a
// uniformly random inner block).  The BFS absorbs *whole bins*, so the
// pocket is always a union of complete partitions plus uncovered blocks,
// and the rest of the solution is untouched by construction.
//
// The pocket is then re-solved with the existing branch-and-bound as the
// repair oracle, as a sub-problem of the whole problem: a PartitionProblem
// derived from it whose universe is the pocket (problem.h), so a round
// copies the CSR arcs and levels instead of rebuilding them from the
// network.  Blocks outside the pocket
// can never join a pocket bin, so the search treats them like sensors and
// counts their connections as ports with the same code as the whole
// search, in both counting modes; a repair therefore scores exactly what
// it would in the full solution, and its partitions are already in the
// network's block ids.  The repair search runs serially, seeded with the
// current pocket solution and clipped by ExhaustiveOptions::nodeBudget,
// so a round costs bounded, deterministic work and can never return worse
// than what it destroyed; strictly better pocket solutions are accepted
// (monotone descent on the paper's objective).
//
// Anytime contract: lnsSearch honors a wall-clock deadline, stops early
// after a stall streak, and returns the best solution found.  A round
// whose pocket covered *every* inner block and whose repair ran to
// completion is a completed exact search -- run.optimal is set, which is
// how `lns` with a generous budget proves optimality on small designs.
//
// Determinism: the destroy RNG is a fixed xorshift seeded from
// LnsOptions::rngSeed and every repair is serial, so a run that is not
// cut off mid-round by the wall clock replays identically.
#ifndef EBLOCKS_PARTITION_LNS_H_
#define EBLOCKS_PARTITION_LNS_H_

#include <atomic>
#include <cstdint>

#include "partition/problem.h"
#include "partition/result.h"

namespace eblocks::partition {

struct LnsOptions {
  /// Wall-clock budget for the whole search; <= 0, NaN, or >= 1e9
  /// disables the clock (deadlineAfter in core/deadline.h), and the
  /// rounds/stall limits then bound the run.
  double timeLimitSeconds = 60.0;
  /// Blocks per destroyed pocket; 0 = auto (12, clamped to the design).
  /// >= the design's inner count turns each round into a full exact
  /// search seeded by the incumbent.
  int pocketSize = 0;
  /// Destroy/repair rounds; 0 = until the time limit or stall limit.
  int maxRounds = 0;
  /// Consecutive non-improving rounds before giving up; 0 = never stall
  /// out.
  int stallRounds = 64;
  /// Node budget per repair search (ExhaustiveOptions::nodeBudget).
  std::uint64_t repairNodeBudget = 200000;
  /// Seed of the destroy RNG.
  std::uint32_t rngSeed = 1;
  /// Cooperative cancellation (ExhaustiveOptions::cancel): checked at
  /// every round boundary and forwarded into each repair search, so a
  /// cancelled run stops within one repair granule and returns the best
  /// solution so far with run.timedOut = true.
  const std::atomic<bool>* cancel = nullptr;
  /// Live telemetry (ExhaustiveOptions::progressNodes): forwarded into
  /// the repair searches, which add their explored nodes in 4096-node
  /// granules.
  std::atomic<std::uint64_t>* progressNodes = nullptr;
};

/// Runs the search from `initial` (which must be verifyPartitioning-
/// clean; typically fm's output).  `run.explored` sums the repair
/// searches' explored nodes; `run.timedOut` reports whether the wall
/// clock (rather than convergence or optimality) ended the run.
PartitionRun lnsSearch(const PartitionProblem& problem,
                       const Partitioning& initial,
                       const LnsOptions& options = {});

}  // namespace eblocks::partition

#endif  // EBLOCKS_PARTITION_LNS_H_
