// The deadline degradation ladder: degrade, don't die.
//
// A service request with a deadline should never come back empty-handed:
// the paper's own anytime framing (partial results under a time limit)
// extends to service semantics where a burned-down deadline buys a
// cheaper tier instead of a failure.  The ladder climbs the existing
// anytime family, spending whatever deadline remains at each rung:
//
//   1. greedy   -- always runs, even with the deadline already spent:
//                  near-linear, so a feasible partitioning is
//                  unconditionally guaranteed (the floor of the ladder);
//   2. fm       -- pass-based refinement, if any deadline remains;
//   3. lns      -- pocket destroy/repair, given roughly half of the
//                  remaining deadline (so the exact search below is
//                  never starved by a long LNS tail);
//   4. exact    -- the work-stealing branch-and-bound, warm-started with
//                  the best incumbent so far, given all remaining time.
//
// The result is tagged with PartitionRun::degradedTier: "" when rung 4
// ran to completion (the result is then the proven optimum --
// bit-identical to the `exhaustive` strategy's, by the PR 7 warm-start
// guarantee that seeding never changes a completed search's answer),
// otherwise the rung that produced the best solution ("exact-anytime"
// when the timed-out B&B improved on the heuristics, else "lns" / "fm" /
// "greedy").  Quality is monotone down the ladder: each rung starts from
// the previous rung's solution and can only improve it.
//
// A limit of <= 0, NaN, or >= 1e9 seconds sets no deadline (deadlineAfter
// in core/deadline.h): the heuristic rungs still run
// (they are cheap and make the exact search faster via the warm start),
// and rung 4 runs unbounded to completion.
//
// The `ladder` entry of the engine's strategy table.  Never cached: how
// deep the ladder descends depends on the wall clock (see
// cache/solution_store.cpp's cacheable()); the server's idempotency
// table is what makes retried ladder requests stable.
#ifndef EBLOCKS_PARTITION_LADDER_H_
#define EBLOCKS_PARTITION_LADDER_H_

#include "partition/engine.h"
#include "partition/problem.h"
#include "partition/result.h"

namespace eblocks::partition {

/// Runs the ladder under options.timeLimitSeconds.  Honors
/// options.cancel (stops at the current rung, like a spent deadline) and
/// options.progressNodes; `run.explored`/`run.seconds` aggregate across
/// rungs; `run.optimal` is set iff the exact rung completed.
PartitionRun degradationLadder(const PartitionProblem& problem,
                               const EngineOptions& options);

}  // namespace eblocks::partition

#endif  // EBLOCKS_PARTITION_LADDER_H_
