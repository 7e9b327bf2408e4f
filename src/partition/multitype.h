// Multi-type, cost-aware partitioning -- the extension Section 6 of the
// paper names as future work: "extend the PareDown heuristic to consider
// multiple types of programmable blocks (having different number of inputs
// and outputs) and varying compute block costs".
//
// The objective generalizes from block count to cost: pre-defined blocks
// have a unit-ish cost, each programmable block option has its own cost
// ("a programmable compute block has slightly higher cost due to the
// programmability hardware, but less cost than two pre-defined compute
// blocks", Section 4), and the partitioner minimizes
//     sum(option cost of each partition) + preDefinedCost * uncovered.
// A partition is only worth forming when its cheapest fitting option costs
// less than the pre-defined blocks it replaces -- the |P| >= 2 rule of the
// base problem falls out as the special case cost(prog) in (1, 2).
//
// Costs are compared as exact integers: toMilliCosts() converts a model
// to milli-units once, and PareDown's accept rule, fm's gains, the
// verifier, and the exact search all work on that form.  The exact
// search is the plain search's kernel (exhaustive.cpp) under a cost
// policy, so it shares the packed (cost, DFS-ordinal) incumbent key and
// with it the bit-identity contracts across thread counts and warm
// starts.
#ifndef EBLOCKS_PARTITION_MULTITYPE_H_
#define EBLOCKS_PARTITION_MULTITYPE_H_

#include <optional>
#include <string>
#include <vector>

#include "partition/problem.h"
#include "partition/result.h"

namespace eblocks::partition {

/// One programmable block model the synthesis may instantiate.
struct ProgBlockOption {
  std::string name;   ///< e.g. "prog_2x2"
  int inputs = 2;
  int outputs = 2;
  /// Relative to ProgCostModel::preDefinedBlockCost; a multiple of 0.001
  /// (see toMilliCosts).
  double cost = 1.5;
};

/// The cost landscape of the target platform.
struct ProgCostModel {
  double preDefinedBlockCost = 1.0;
  std::vector<ProgBlockOption> options;
  /// Counting mode shared by every option.
  CountingMode mode = CountingMode::kEdges;

  /// The paper's experimental setup: a single 2x2 programmable block whose
  /// cost sits between one and two pre-defined blocks.
  static ProgCostModel paperDefault();
};

/// A partitioning with a chosen block option per partition.
struct TypedPartitioning {
  std::vector<BitSet> partitions;
  std::vector<int> optionIndex;  ///< into ProgCostModel::options, per partition

  int coveredBlocks() const;
  /// Total network cost after replacement.
  double totalCost(int originalInnerCount, const ProgCostModel& model) const;
};

struct TypedPartitionRun {
  std::string algorithm;
  TypedPartitioning result;
  double seconds = 0.0;
  bool optimal = false;
  bool timedOut = false;
  std::uint64_t explored = 0;
  /// Subtrees cut by the admissible lower-bound layer beyond the
  /// baseline cost bound; see PartitionRun::pruned.
  std::uint64_t pruned = 0;
  /// Per-worker explored counts (parallel searches only); see
  /// PartitionRun::workerExplored.
  std::vector<std::uint64_t> workerExplored;
  /// Per-worker counterpart of `pruned` (parallel to workerExplored).
  std::vector<std::uint64_t> workerPruned;
};

/// A ProgCostModel in exact integer milli-units (1 = 0.001 cost units),
/// so equal costs compare equal without floating-point slack.
struct MilliCostModel {
  int preDefinedBlockCost = 0;
  std::vector<int> optionCost;  ///< parallel to ProgCostModel::options

  /// TypedPartitioning::totalCost in milli-units (every optionIndex must
  /// be in range).
  int totalCost(const TypedPartitioning& typed, int originalInnerCount) const;
};

/// Converts `model` for a network of `innerCount` inner blocks.  Throws
/// std::invalid_argument for a negative (or non-finite) cost, a cost more
/// than 1e-6 off a multiple of 0.001, or a model whose worst-case total
/// -- innerCount x its largest cost -- does not fit the 32-bit cost half
/// of the exact search's packed incumbent key.  multiTypePareDown,
/// multiTypeExhaustive, multiTypeFmRefine, and verifyTypedPartitioning
/// convert their model this way, so each rejects such models.
MilliCostModel toMilliCosts(const ProgCostModel& model, int innerCount);

/// Index of the cheapest option that fits the subgraph, or nullopt.
std::optional<int> cheapestFittingOption(const Network& net,
                                         const BitSet& members,
                                         const ProgCostModel& model);

/// Same, for a port usage already known (e.g. from an incremental
/// PortCounter) -- O(#options), no rescan of the member set.
std::optional<int> cheapestFittingOption(const IoCount& io,
                                         const ProgCostModel& model);

/// PareDown generalized to the cost model.  Pares while *no* option fits;
/// accepts a candidate when its cheapest fitting option is cheaper than
/// the pre-defined blocks it replaces, otherwise keeps paring.
TypedPartitionRun multiTypePareDown(const Network& net,
                                    const ProgCostModel& model);

struct MultiTypeExhaustiveOptions {
  double timeLimitSeconds = 0.0;
  std::optional<TypedPartitioning> seed;
  /// Worker threads for the branch-and-bound.  0 = one per hardware
  /// thread, 1 = the original serial search.  Every thread count returns
  /// the identical result (deterministic DFS-order tie-break) unless the
  /// time limit cuts the search short (see exhaustive.h).
  int threads = 0;
  /// Admissible lower-bound pruning, generalized to the cost model: each
  /// bin's future option cost is floored by the cheapest option fitting
  /// its *irreducible* crossing I/O (a bin fitting no option kills the
  /// subtree), and remaining blocks no option can ever host each add
  /// preDefinedBlockCost.  Bit-identical results on or off; see
  /// exhaustive.h and docs/partitioning.md.
  bool pruningBound = true;
};

/// Exhaustive branch-and-bound over assignments and option choices.  A
/// verified seed is purely an accelerator, as in ExhaustiveOptions::seed:
/// the result is bit-identical to the unseeded search's.
TypedPartitionRun multiTypeExhaustive(
    const Network& net, const ProgCostModel& model,
    const MultiTypeExhaustiveOptions& options = {});

/// Constraint check; empty result means valid.
std::vector<std::string> verifyTypedPartitioning(
    const Network& net, const ProgCostModel& model,
    const TypedPartitioning& typed);

}  // namespace eblocks::partition

#endif  // EBLOCKS_PARTITION_MULTITYPE_H_
