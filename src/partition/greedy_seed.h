// Constructive initial assignment for the heuristic partitioner family.
//
// The FM refiner and the LNS both want to *start* from a full feasible
// solution rather than construct one themselves.  greedySeed() builds one
// in near-linear time: BFS cluster growth under the bin I/O caps (grow a
// cluster from each unassigned seed by probing frontier neighbors with an
// incremental PortCounter, keeping every neighbor that still fits),
// followed by a PareDown fallback on the sub-problem of whatever the
// growth phase left uncovered (a PartitionProblem whose universe is the
// residual; see problem.h) -- PareDown's border-paring ordering is much
// better than BFS at carving valid partitions out of awkward leftovers,
// and running it on the residual only keeps the fallback cheap.
//
// The result is always a valid partitioning (verifyPartitioning-clean) in
// both counting modes; quality is deliberately traded for speed -- the FM
// pass refines it, and `greedy` is registered mostly as the family's
// seed stage and as a baseline for the scaling-curve bench.
#ifndef EBLOCKS_PARTITION_GREEDY_SEED_H_
#define EBLOCKS_PARTITION_GREEDY_SEED_H_

#include "partition/problem.h"
#include "partition/result.h"

namespace eblocks::partition {

/// Runs the constructive seed heuristic.  Deterministic: seeds are taken
/// in (level, id) order and frontiers expand in CSR arc order.
/// `run.explored` counts fit probes (PortCounter add/remove pairs).
PartitionRun greedySeed(const PartitionProblem& problem);

}  // namespace eblocks::partition

#endif  // EBLOCKS_PARTITION_GREEDY_SEED_H_
