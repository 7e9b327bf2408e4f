// The flat search-kernel view of a Network: an immutable CSR adjacency
// plus a dense endpoint index.  PartitionProblem builds and owns the one
// view of its network (problem.cpp is the only place that builds one
// from a Network; a sub-problem copies its whole problem's arcs), and
// every search, plain or multi-type, and every PortCounter it creates
// walk that view.
//
// Why it exists: a branch-and-bound move walks the touched block's
// neighborhood.  Through Network that walk goes vector<vector<Connection>>
// -> Connection (two Endpoints = 8 bytes each) -> hash of the source
// endpoint into four unordered_map refcount tables.  Each step is a
// pointer chase or a hash, and together they set the per-move constant
// that dominates the search once the node count is near-optimal (PRs
// 2-4).  The CSR view removes all of them:
//
//   - Per-block in/out adjacency lives in two flat arc arrays with
//     offset tables -- one contiguous stripe per block, no per-block
//     vector headers between a block's arcs and the next's.
//   - Each arc carries exactly what a move needs: the far-side block and
//     the dense id of the connection's *source* endpoint (the unit
//     kSignals counting refcounts).  Port numbers, directions, and the
//     rest of Connection are dropped.
//   - The dense endpoint index maps every (block, output port) pair to a
//     small integer, so refcount tables become plain arrays indexed by
//     arc.endpoint -- zero hashing (see port_counter.h).
//   - The blocks a search may place -- the *universe*, by default every
//     inner block -- are additionally reindexed to a contiguous 0..N-1
//     range (innerIndex/innerBlocks) so per-block search tables (e.g.
//     the irreducible-I/O floors in exhaustive.cpp) are dense and
//     indexable by search depth instead of by global block id.  A
//     sub-search (LNS's pocket repair, greedy's PareDown fallback) passes
//     a smaller universe; every block outside it is then as fixed as a
//     sensor, and the ports it uses are counted by the same code.
//
// The view is read-only and never outlives its Network; it copies what
// it needs, so the Network itself is not referenced after construction.
// tests/partition/compact_graph_test.cpp cross-checks every accessor
// against Network::inputsOf/outputsOf/innerBlocks on randomized designs.
#ifndef EBLOCKS_PARTITION_COMPACT_GRAPH_H_
#define EBLOCKS_PARTITION_COMPACT_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/bitset.h"
#include "core/network.h"

namespace eblocks::partition {

/// One adjacency entry: the block on the far side of a connection plus
/// the dense id of the connection's source endpoint.  For a block's
/// in-arcs the endpoint belongs to the neighbor (the external driver);
/// for its out-arcs it belongs to the block itself.
struct CompactArc {
  std::uint32_t neighbor;  ///< block on the other side of the connection
  std::uint32_t endpoint;  ///< dense id of the connection's source endpoint
};

class CompactGraph {
 public:
  /// The view over `universe`, a set over `net`'s blocks (PartitionProblem
  /// checks that it holds inner blocks only; the whole problem's universe
  /// is net.innerSet()).
  CompactGraph(const Network& net, const BitSet& universe);
  /// `whole`'s arcs and endpoint ids, copied, over another universe.
  CompactGraph(const CompactGraph& whole, const BitSet& universe);

  std::size_t blockCount() const { return blockCount_; }

  /// Connections arriving at / leaving block `b`, in the same order as
  /// Network::inputsOf/outputsOf (connection insertion order).
  std::span<const CompactArc> inArcs(BlockId b) const {
    return {arcs_.data() + inOff_[b], arcs_.data() + inOff_[b + 1]};
  }
  std::span<const CompactArc> outArcs(BlockId b) const {
    return {arcs_.data() + outOff_[b], arcs_.data() + outOff_[b + 1]};
  }

  int indegree(BlockId b) const {
    return static_cast<int>(inOff_[b + 1] - inOff_[b]);
  }
  int outdegree(BlockId b) const {
    return static_cast<int>(outOff_[b + 1] - outOff_[b]);
  }

  /// Size of the dense endpoint universe: every (block, output port)
  /// pair gets one id, so refcount arrays of this size cover every
  /// endpoint that can ever cross a partition boundary.
  std::size_t endpointCount() const { return endpointCount_; }

  /// Dense id of source endpoint `e` (must be a valid output port).
  std::uint32_t endpointId(const Endpoint& e) const {
    return endpointBase_[e.block] + e.port;
  }

  // --- the contiguous universe ---------------------------------------
  std::size_t innerCount() const { return inner_.size(); }
  /// Universe blocks ascending by id; position in this vector is the
  /// block's dense inner index.
  const std::vector<BlockId>& innerBlocks() const { return inner_; }
  /// Dense inner index of `b`, or -1 when `b` is outside the universe.
  std::int32_t innerIndex(BlockId b) const { return innerIndex_[b]; }
  bool isInner(BlockId b) const { return innerIndex_[b] >= 0; }
  /// Every block outside the universe as a BitSet -- the frozen-set root
  /// of the branch-and-bound's admissible bound (they can never join a
  /// bin).
  const BitSet& nonInnerSet() const { return nonInner_; }

 private:
  void indexUniverse(const BitSet& universe);

  std::size_t blockCount_ = 0;
  std::size_t endpointCount_ = 0;
  // In-arcs of all blocks, then out-arcs of all blocks, in one array:
  // the offset tables address disjoint stripes of arcs_.
  std::vector<CompactArc> arcs_;
  std::vector<std::uint32_t> inOff_;   // blockCount + 1 entries
  std::vector<std::uint32_t> outOff_;  // blockCount + 1 entries
  std::vector<std::uint32_t> endpointBase_;  // per block: first output
                                             // port's endpoint id
  std::vector<BlockId> inner_;
  std::vector<std::int32_t> innerIndex_;
  BitSet nonInner_;
};

}  // namespace eblocks::partition

#endif  // EBLOCKS_PARTITION_COMPACT_GRAPH_H_
