// Independent verification of partitioning results.  Every algorithm's
// output is checked against the problem constraints; the test suite and the
// synthesizer both refuse unverified partitionings.
#ifndef EBLOCKS_PARTITION_VERIFY_H_
#define EBLOCKS_PARTITION_VERIFY_H_

#include <string>
#include <vector>

#include "partition/problem.h"
#include "partition/result.h"

namespace eblocks::partition {

struct VerifyOptions {
  /// Convexity is NOT required by default.  The paper never imposes it,
  /// and in the eBlocks packet model a non-convex replacement stays
  /// behaviorally equivalent: when a path leaves the partition and
  /// re-enters, the merged block is simply re-activated by the returning
  /// packet, and emit-on-change makes the interim evaluation idempotent.
  /// (The classical DAG-covering convexity constraint guards clocked
  /// combinational cycles, which do not exist here.)  Set it for the
  /// classical formulation; the ablation bench compares both.
  bool requireConvex = false;
};

/// Returns human-readable constraint violations; empty means valid.
/// Checks: members lie in the problem's universe (innerSet(), by default
/// every inner block); partitions are pairwise disjoint; every partition
/// has >= 2 members and fits the programmable block; (optionally) every
/// partition is convex; and no option index is set (those belong to the
/// multi-type problem, whose overload of this function is declared in
/// multitype.h and shares the member rules above).
std::vector<std::string> verifyPartitioning(const PartitionProblem& problem,
                                            const Partitioning& partitioning,
                                            const VerifyOptions& options = {});

}  // namespace eblocks::partition

#endif  // EBLOCKS_PARTITION_VERIFY_H_
