// Exhaustive search over block-to-programmable-block assignments
// (Section 4.1).
//
// The search space is every combination of the n inner blocks into up to n
// programmable blocks, where a combination need not use every block.  (A
// sub-problem's n blocks are its universe, problem.h; "non-inner" below
// then means every block outside it.)  As
// in the paper we prune symmetric branches: all empty programmable blocks
// are indistinguishable, so opening "a new bin" is a single choice.  We
// additionally apply two sound prunings that do not affect optimality:
//   - cost bound: open bins + uncovered blocks already meets/exceeds the
//     best known cost;
//   - irreducible I/O: connections between a bin and non-inner blocks
//     (sensors, outputs, communication blocks) can never be internalized
//     by adding more members, so a bin whose non-inner I/O alone exceeds
//     the port budget is dead (edge-counting mode only).
// An optional initial solution (e.g. PareDown's) seeds the bound.
//
// On top of those, ExhaustiveOptions::pruningBound (default on) enables
// the admissible lower-bound layer: per-bin *irreducible* crossing I/O
// (signals to non-inner blocks and to blocks the search already fixed
// elsewhere -- maintained incrementally by PortCounter's frozen-set
// tracking, sound in both counting modes; assigning a block notifies
// only the bins holding its neighbors, so a node costs O(degree) of
// bookkeeping however many bins are open) kills subtrees whose bins can
// no longer fit any completion, and a per-block unbinnable floor adds
// the cost every remaining unplaceable block must pay.  The bound is
// admissible (never exceeds the cost of any valid completion), so
// results stay bit-identical to the unpruned search; see
// docs/partitioning.md for the derivation and soundness argument.
//
// With threads != 1 the search runs as a parallel branch-and-bound:
// workers split subtrees on demand when peers starve (work_steal.h),
// share the incumbent bound through an atomic packed (cost, DFS-ordinal)
// key, and every subtree handed to a worker carries a DFS-ordinal range,
// so a *completed* search returns a partitioning bit-identical to the
// serial search's, on every run at every thread count (see
// docs/partitioning.md).  Only a run that hits the time limit is
// scheduling-dependent: workers stop at whatever node they reach, so the
// (still feasible, timedOut-flagged) best-so-far may differ between runs
// -- exactly as two serial runs with different time budgets may.
//
// exhaustive.cpp also implements multiTypeExhaustive() (multitype.h):
// both searches are one kernel templated on a cost policy -- unit costs
// here, the cost model's integer milli-units there.
#ifndef EBLOCKS_PARTITION_EXHAUSTIVE_H_
#define EBLOCKS_PARTITION_EXHAUSTIVE_H_

#include <atomic>
#include <optional>

#include "partition/problem.h"
#include "partition/result.h"

namespace eblocks::partition {

struct ExhaustiveOptions {
  /// Wall-clock budget; exceeded -> run.timedOut = true and the best
  /// solution found so far is returned.  <= 0, NaN, or >= 1e9 disables
  /// the limit (deadlineAfter in core/deadline.h).
  double timeLimitSeconds = 0.0;
  /// Require every partition to be convex (the classical DAG-covering
  /// constraint).  Off by default: the packet protocol keeps non-convex
  /// replacements behaviorally equivalent (see VerifyOptions in
  /// verify.h), and PareDown itself can produce non-convex partitions in
  /// later rounds.  A plain-problem rule: multiTypeExhaustive ignores it.
  bool requireConvex = false;
  /// Seed the branch-and-bound with a known solution (commonly PareDown's).
  /// Purely an accelerator: never changes the optimum found.  A seed that
  /// fails verification is ignored: the plain search wants one its
  /// problem's verifyPartitioning (verify.h, under this requireConvex)
  /// accepts, the multi-type search one its verifyPartitioning overload
  /// (multitype.h) accepts.
  std::optional<Partitioning> seed;
  /// Abort after (approximately) this many explored nodes, returning the
  /// best solution so far with run.timedOut = true -- the LNS repair
  /// oracle's budget (lns.h).  Checked at the same 4096-node cadence as
  /// the wall clock, so the effective budget rounds up to that granule
  /// and a serial run aborts at a machine-independent node.  0 = no
  /// budget.
  std::uint64_t nodeBudget = 0;
  /// Worker threads for the branch-and-bound.  0 = one per hardware
  /// thread (std::thread::hardware_concurrency), 1 = the original serial
  /// search.  Every thread count returns the identical result unless the
  /// time limit cuts the search short (see the header comment).
  int threads = 0;
  /// Admissible lower-bound pruning (see the header comment).  Purely an
  /// accelerator: the result is bit-identical with it on or off, at
  /// every thread count, in both counting modes.  Off exists for
  /// measurement (bench_exhaustive_blowup ablates it) and as the
  /// equivalence-test baseline.
  bool pruningBound = true;
  /// Cooperative cancellation: when non-null and set, the search stops at
  /// its next periodic check -- the same 4096-node cadence as the wall
  /// clock -- and returns the best solution so far with
  /// run.timedOut = true, exactly as if the time limit had expired.  The
  /// flag is owned by the caller (the synthesis daemon flips it when a
  /// client cancels or disconnects) and is only ever read here.
  const std::atomic<bool>* cancel = nullptr;
  /// Live search-effort telemetry: when non-null, workers add their
  /// explored nodes to this counter in the same 4096-node granules as
  /// the budget accounting, so an observer (the daemon's progress ticks)
  /// can read approximate progress without touching the search.  The
  /// counter is add-only here; the caller zeroes it.
  std::atomic<std::uint64_t>* progressNodes = nullptr;
};

/// Runs the exhaustive search.  `run.optimal` is true iff the search
/// completed within the time limit.
PartitionRun exhaustiveSearch(const PartitionProblem& problem,
                              const ExhaustiveOptions& options = {});

/// The thread count `threads = 0` resolves to (>= 1).
int resolveSearchThreads(int threads);

}  // namespace eblocks::partition

#endif  // EBLOCKS_PARTITION_EXHAUSTIVE_H_
