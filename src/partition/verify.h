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
  /// Convexity is informational, not required (see validity.h).
  bool requireConvex = false;
};

/// Returns human-readable constraint violations; empty means valid.
/// Checks: members are inner blocks; partitions are pairwise disjoint;
/// every partition has >= 2 members and fits the programmable block; and
/// (optionally) every partition is convex; and no option index is set
/// (those belong to the multi-type problem, whose overload of this
/// function is in multitype.h).
std::vector<std::string> verifyPartitioning(const PartitionProblem& problem,
                                            const Partitioning& partitioning,
                                            const VerifyOptions& options = {});

}  // namespace eblocks::partition

#endif  // EBLOCKS_PARTITION_VERIFY_H_
