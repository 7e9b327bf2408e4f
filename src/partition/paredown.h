// The PareDown decomposition heuristic (Section 4.2, Figure 4).
//
// PareDown starts with *all* inner blocks as one candidate partition and
// pares it down: while the candidate does not fit in a programmable block,
// it removes the border block with the least rank (the net increase or
// decrease of the candidate's combined indegree and outdegree caused by
// the removal).  Rank ties are broken by, in order: greatest indegree,
// greatest outdegree, highest level.  When a candidate fits it becomes a
// partition (unless it is a single block, which brings no reduction), and
// the algorithm repeats on the remaining blocks.  Total work is
// n*(n+1)/2 fit checks in the worst case: O(n^2).
//
// paredown.cpp also implements multiTypePareDown() (multitype.h): both
// heuristics run one paring loop, each under its own accept rule.
#ifndef EBLOCKS_PARTITION_PAREDOWN_H_
#define EBLOCKS_PARTITION_PAREDOWN_H_

#include <functional>
#include <vector>

#include "partition/problem.h"
#include "partition/result.h"

namespace eblocks::partition {

/// One decision point of the algorithm, for tracing/visualization (the
/// Figure-5 walkthrough test consumes this).
struct PareDownStep {
  BitSet candidate;             ///< candidate partition before the decision
  IoCount io;                   ///< port usage of the candidate
  bool fits = false;            ///< candidate fits the programmable block
  std::vector<BlockId> border;  ///< border blocks considered
  std::vector<int> ranks;       ///< rank of each border block (same order)
  BlockId removed = kNoBlock;   ///< block removed (kNoBlock if accepted)
};

struct PareDownOptions {
  /// Observer invoked at every decision point; keep cheap.
  std::function<void(const PareDownStep&)> trace;

  /// Figure 4's literal pseudocode *returns* when a candidate pares down to
  /// zero blocks, abandoning every block not yet partitioned.  That reading
  /// cannot reproduce the paper's own results (Table 2's smooth averages,
  /// the 465-node run): one unpartitionable block -- e.g. a three-input
  /// gate whose lone self does not fit a 2x2 block -- would zero out whole
  /// designs.  By default we drop just that block and continue (still
  /// O(n^2): every round retires at least one block); set this flag to get
  /// the literal behavior.
  bool strictFigure4 = false;
};

/// Runs PareDown over the problem's universe (problem.innerSet(); a
/// sub-problem pares only its own blocks, as greedy_seed.cpp does with
/// the residual its cluster growth left uncovered).  Deterministic: ties
/// beyond the paper's three criteria resolve to the lowest block id.
PartitionRun pareDown(const PartitionProblem& problem,
                      const PareDownOptions& options = {});

}  // namespace eblocks::partition

#endif  // EBLOCKS_PARTITION_PAREDOWN_H_
