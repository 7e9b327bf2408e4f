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

#include "partition/exhaustive.h"
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

  /// The paper's experimental setup: a single 2x2 programmable block whose
  /// cost sits between one and two pre-defined blocks.
  static ProgCostModel paperDefault();
};

/// A ProgCostModel in exact integer milli-units (1 = 0.001 cost units),
/// so equal costs compare equal without floating-point slack.
struct MilliCostModel {
  int preDefinedBlockCost = 0;
  std::vector<int> optionCost;  ///< parallel to ProgCostModel::options

  /// Total network cost after replacing `typed`'s partitions by their
  /// options (every optionIndex must be in range).
  int totalCost(const Partitioning& typed, int originalInnerCount) const;
};

/// Converts `model` for a network of `innerCount` inner blocks.  Throws
/// std::invalid_argument for a negative (or non-finite) cost, a cost more
/// than 1e-6 off a multiple of 0.001, or a model whose worst-case total
/// -- innerCount x its largest cost -- does not fit the 32-bit cost half
/// of the exact search's packed incumbent key.  multiTypePareDown,
/// multiTypeExhaustive, multiTypeFmRefine, and the multi-type
/// verifyPartitioning convert their model this way, so each rejects
/// such models.
MilliCostModel toMilliCosts(const ProgCostModel& model, int innerCount);

/// Index of the cheapest option that fits port usage `io` (e.g. an
/// incremental PortCounter's), or nullopt.  O(#options).
std::optional<int> cheapestFittingOption(const IoCount& io,
                                         const ProgCostModel& model);

// Every multi-type entry point below solves `problem`: it places only the
// problem's universe and counts ports under problem.spec().mode.  The
// spec's inputs/outputs budget does not apply -- each option carries its
// own -- and neither does the plain problem's requireConvex rule.

/// PareDown generalized to the cost model: pares while *no* option fits
/// the candidate.  Once one does, the candidate retires: it becomes a
/// partition, under its cheapest fitting option, when that option costs
/// less than the pre-defined blocks it replaces, and is dropped whole
/// otherwise (its blocks stay uncovered).  Implemented in paredown.cpp,
/// on the plain heuristic's paring loop.
PartitionRun multiTypePareDown(const PartitionProblem& problem,
                               const ProgCostModel& model);

/// Exhaustive branch-and-bound over assignments and option choices, on
/// the plain search's kernel (exhaustive.cpp) and options (requireConvex
/// is ignored).  pruningBound generalizes to the cost model: each bin's
/// future option cost is floored by the cheapest option fitting its
/// *irreducible* crossing I/O (a bin fitting no option kills the
/// subtree), and remaining blocks no option can ever host each add
/// preDefinedBlockCost.
/// A verified seed is purely an accelerator: the result is bit-identical
/// to the unseeded search's, at every thread count, with the bound on or
/// off.  A search stopped early drops from its incumbent every partition
/// whose option costs more than the blocks it replaces, so its result
/// verifies too.
PartitionRun multiTypeExhaustive(const PartitionProblem& problem,
                                 const ProgCostModel& model,
                                 const ExhaustiveOptions& options = {});

/// The multi-type overload of verifyPartitioning(), defined in
/// verify.cpp beside the plain one and sharing its member rules: returns
/// constraint violations, empty when `typed` is valid.  Checks that
/// members lie in the problem's universe and partitions are pairwise
/// disjoint (as the plain verifier does); one in-range option per
/// partition, which the partition fits; partitions are non-empty; and no
/// option costs more than the blocks it replaces.
std::vector<std::string> verifyPartitioning(const PartitionProblem& problem,
                                            const ProgCostModel& model,
                                            const Partitioning& typed);

}  // namespace eblocks::partition

#endif  // EBLOCKS_PARTITION_MULTITYPE_H_
