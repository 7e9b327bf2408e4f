// Candidate-partition validity: the "fits in a programmable block" test.
#ifndef EBLOCKS_PARTITION_VALIDITY_H_
#define EBLOCKS_PARTITION_VALIDITY_H_

#include "core/subgraph.h"
#include "partition/problem.h"

namespace eblocks::partition {

/// True when the given port usage fits the programmable block.  The
/// incremental algorithms test their PortCounter's io() with this; a
/// one-off check passes countIo(net, members, spec.mode).  A single-node
/// subgraph can fit yet still be an *invalid partition*; that rule
/// (|P| >= 2) is enforced by the algorithms and by verifyPartitioning
/// (verify.h), not here.
inline bool fits(const IoCount& io, const ProgBlockSpec& spec) {
  return io.inputs <= spec.inputs && io.outputs <= spec.outputs;
}

/// The irreducible I/O block `b` contributes to *any* bin containing it:
/// its connections (kEdges) or distinct signals (kSignals) to and from
/// blocks outside `graph`'s universe, which no member set can ever
/// internalize.  A block whose own irreducible I/O exceeds the port
/// budget can be a member of no feasible bin -- the static floor of the
/// branch-and-bound's admissible pruning bound (see exhaustive.h).
IoCount irreducibleBlockIo(const CompactGraph& graph, BlockId b,
                           CountingMode mode);

}  // namespace eblocks::partition

#endif  // EBLOCKS_PARTITION_VALIDITY_H_
