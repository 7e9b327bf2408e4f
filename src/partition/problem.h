// The eBlock partitioning problem (Section 4).
//
// Given a network G=(V,E) with sensor blocks as primary inputs and output
// blocks as primary outputs, find disjoint subgraphs of inner blocks such
// that each subgraph (1) uses at most i inputs and o outputs of a
// programmable block, (2) is replaceable by a programmable block with
// equivalent functionality, and (3) the number of inner blocks after
// replacement (#unreplaced + #programmable) is minimized.  Single-node
// subgraphs are invalid: replacing one pre-defined block by one (slightly
// costlier) programmable block yields no reduction.
#ifndef EBLOCKS_PARTITION_PROBLEM_H_
#define EBLOCKS_PARTITION_PROBLEM_H_

#include <vector>

#include "core/levels.h"
#include "core/network.h"
#include "core/subgraph.h"
#include "partition/compact_graph.h"

namespace eblocks::partition {

/// Capabilities of the programmable block used for replacement.  The
/// paper's experiments assume two inputs and two outputs.
struct ProgBlockSpec {
  int inputs = 2;
  int outputs = 2;
  /// How port usage is counted (kEdges reproduces the paper's Figure 5).
  CountingMode mode = CountingMode::kEdges;
};

/// An analyzed problem instance: the network, the universe of blocks a
/// search may place, and precomputed levels.  The network must outlive
/// the problem.
///
/// The universe defaults to every inner block.  A sub-problem names a
/// subset of them -- LNS repairs a pocket, greedy pares its leftovers --
/// and is solved by the whole problem's own code: every block outside the
/// universe stays put, like a sensor, and its connections count as ports.
class PartitionProblem {
 public:
  PartitionProblem(const Network& net, ProgBlockSpec spec);
  /// Throws std::invalid_argument unless `universe` is a set over `net`'s
  /// blocks holding inner blocks only.
  PartitionProblem(const Network& net, ProgBlockSpec spec, BitSet universe);
  /// The sub-problem of `whole` over `universe`: `whole`'s network, spec
  /// and levels, and its CSR arcs copied rather than rebuilt.  Rebuilding
  /// walks the whole network (levels take a topological sort), which
  /// would dominate a search that re-solves a few blocks of a large
  /// network at a time, such as LNS's pocket repair.  Throws like the
  /// constructor above.
  PartitionProblem(const PartitionProblem& whole, BitSet universe);

  const Network& network() const { return *net_; }
  const ProgBlockSpec& spec() const { return spec_; }

  /// The flat CSR view every kernel walk uses (see compact_graph.h);
  /// built once here so PareDown, aggregation, and every branch-and-
  /// bound bin share one copy.
  const CompactGraph& graph() const { return graph_; }

  /// The universe: the replaceable pre-defined compute blocks this
  /// problem may place, ascending by id.
  const std::vector<BlockId>& innerBlocks() const {
    return graph_.innerBlocks();
  }
  const BitSet& innerSet() const { return universe_; }
  int innerCount() const { return static_cast<int>(graph_.innerCount()); }

  /// Level of every block (max distance from any sensor); the PareDown
  /// removal tiebreak and the code generator both use this.
  const std::vector<int>& levels() const { return levels_; }

 private:
  const Network* net_;
  ProgBlockSpec spec_;
  BitSet universe_;
  CompactGraph graph_;
  std::vector<int> levels_;
};

}  // namespace eblocks::partition

#endif  // EBLOCKS_PARTITION_PROBLEM_H_
