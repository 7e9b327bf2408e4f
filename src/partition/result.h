// Partitioning results and the paper's reported metrics.
#ifndef EBLOCKS_PARTITION_RESULT_H_
#define EBLOCKS_PARTITION_RESULT_H_

#include <string>
#include <vector>

#include "core/bitset.h"
#include "partition/problem.h"

namespace eblocks::partition {

/// The outcome of a partitioning run: disjoint member sets, each destined
/// for one programmable block.
struct Partitioning {
  std::vector<BitSet> partitions;
  /// The multi-type problem's chosen block option per partition, an
  /// index into ProgCostModel::options (multitype.h), parallel to
  /// `partitions`.  Empty for the plain problem.
  std::vector<int> optionIndex;

  /// Number of inner blocks covered by some partition.
  int coveredBlocks() const;

  /// Blocks replaced: covered inner blocks that disappear from the network.
  /// Table 1/2's "Inner Blocks (Prog.)" is partitions.size() and
  /// "Inner Blocks (Total)" is totalAfter().
  int programmableBlocks() const {
    return static_cast<int>(partitions.size());
  }

  /// Inner blocks remaining after replacement:
  ///   (#inner - covered) + #partitions.
  int totalAfter(int originalInnerCount) const {
    return originalInnerCount - coveredBlocks() + programmableBlocks();
  }
};

/// A run record: result plus measured wall-clock time, as reported in the
/// paper's tables.
struct PartitionRun {
  std::string algorithm;
  Partitioning result;
  double seconds = 0.0;
  /// True when the algorithm proves its result optimal (exhaustive search
  /// that ran to completion).
  bool optimal = false;
  /// True when the algorithm gave up (e.g. exhaustive hit its time limit);
  /// `result` then holds the best solution found so far.
  bool timedOut = false;
  /// Degradation tier, set only by the `ladder` strategy (ladder.h):
  /// "" when the deadline let the exact search prove optimality,
  /// otherwise the deepest rung that produced `result` ("exact-anytime",
  /// "lns", "fm", or "greedy").  A service-level annotation: it rides
  /// the server's SynthResponse on the wire but is *not* part of the
  /// io/binary PartitionRun frame (ladder runs are never cached, so no
  /// record persists it).
  std::string degradedTier;
  /// Nodes explored (search-effort metric; 0 when not applicable).
  std::uint64_t explored = 0;
  /// Subtrees cut by the admissible lower-bound layer
  /// (ExhaustiveOptions::pruningBound): nodes where the irreducible-I/O
  /// bound pruned and the baseline cost bound alone would not have.
  /// Always 0 with the layer disabled.
  std::uint64_t pruned = 0;
  /// Nodes explored per worker thread (parallel searches only; empty
  /// otherwise).  The spread is the hardware-independent witness of load
  /// balance: max/mean near 1 means every worker carried equal search
  /// effort, regardless of how the OS scheduled the threads.
  std::vector<std::uint64_t> workerExplored;
  /// Per-worker counterpart of `pruned` (parallel searches only;
  /// parallel to workerExplored).
  std::vector<std::uint64_t> workerPruned;
};

}  // namespace eblocks::partition

#endif  // EBLOCKS_PARTITION_RESULT_H_
