// Fiduccia-Mattheyses-style pass-based refinement over the PortCounter
// move kernel.
//
// The refiner takes a valid partitioning (typically greedySeed's) and
// improves it by single-block moves.  The solution is represented as a
// set of *bins*: every partition is a bin, and every uncovered inner
// block is a singleton bin -- so "pair two uncovered blocks" and "peel a
// block off an overfull neighborhood" are both ordinary one-block moves,
// and the objective is a plain sum of per-bin costs:
//
//   cost(bin) = 0                      empty
//             = uncoveredCost          one member (an uncovered block)
//             = binCost(io)            two or more members
//
// Costs are scaled integers.  The plain problem uses
// binCost = W + inputs + outputs and uncoveredCost = W with W chosen
// larger than any possible port-sum, so the primary objective (the
// paper's "inner blocks after replacement" = #bins) strictly dominates
// and the port-sum only breaks ties -- fewer crossing ports is what
// later merges feed on.  The multi-type problem uses the cost model
// directly (cheapest fitting option, in toMilliCosts()'s exact
// milli-units), so the integer total is the model's totalCost exactly.
//
// One FM pass: compute each unlocked block's best feasible move (target
// bins = bins of its CSR neighbors, plus detaching into a new singleton)
// and file it in a gain bucket; repeatedly pop the best-gain block
// (revalidating the cached gain against a fresh probe -- stale entries
// are re-filed, not trusted), apply the move *even at negative gain*
// (the FM hallmark: climbing out of local minima within a pass), lock
// the block, and re-probe the blocks whose gains the move touched
// (members of the two bins plus the mover's neighbors).  When no movable
// block remains the pass rolls back to the best prefix seen; passes
// repeat until one fails to improve.  Every probe is an O(degree)
// PortCounter add/remove pair over the shared CSR -- hash-free, and
// allocation-free in steady state.
//
// Feasibility note: bin I/O is not monotone under member removal in
// kSignals mode (removing a member can *expose* previously-internal
// fanout), so a move probes BOTH touched bins -- the source bin must
// still fit after the removal whenever it keeps >= 2 members.
//
// Deterministic: bucket ties break toward the lowest block id, so a
// given initial solution refines identically everywhere.
#ifndef EBLOCKS_PARTITION_FM_REFINE_H_
#define EBLOCKS_PARTITION_FM_REFINE_H_

#include "partition/multitype.h"
#include "partition/problem.h"
#include "partition/result.h"

namespace eblocks::partition {

/// Refines `initial` (which must be verifyPartitioning-clean) for the
/// plain problem.  `run.explored` counts move probes; the result is
/// never worse than `initial` under (#bins, port-sum) lexicographic
/// order.
PartitionRun fmRefine(const PartitionProblem& problem,
                      const Partitioning& initial);

/// Multi-type counterpart: refines under the cost model's objective
/// (cheapest-fitting-option cost per bin, preDefinedBlockCost per
/// uncovered block) over the same problem -- its universe and counting
/// mode; the spec's port budget does not apply (see multitype.h).
/// `initial` must pass the multi-type verifyPartitioning; the result
/// names each partition's cheapest fitting option.
PartitionRun multiTypeFmRefine(const PartitionProblem& problem,
                               const ProgCostModel& model,
                               const Partitioning& initial);

}  // namespace eblocks::partition

#endif  // EBLOCKS_PARTITION_FM_REFINE_H_
