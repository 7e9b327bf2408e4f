// The incremental validity kernel: a subgraph's port usage maintained
// under single-block add/remove in O(degree of the block).
//
// Every partitioner probes thousands to millions of candidate subgraphs
// that differ from their predecessor by one block (PareDown removes one
// border block per round, aggregation grows by one neighbor, the
// branch-and-bound searches move one block between bins).  Recomputing
// countIo() from scratch on each probe costs O(|members| * degree) -- the
// scalability wall the paper hits at 19+ inner blocks (Table 1).  A
// PortCounter carries the same IoCount forward incrementally, so a probe
// costs only the touched block's degree.
//
// Data layout: the counter walks a CompactGraph -- the immutable CSR
// view of the network (see compact_graph.h) -- and all kSignals
// reference counts live in dense arrays indexed by the graph's dense
// endpoint ids.  A move therefore does zero hashing and zero heap
// allocation: each touched arc is one flat-array load (the arc), one
// bitset test (the neighbor side), and at most one array
// increment/decrement (the endpoint refcount).  Tables reset in
// O(touched endpoints), not O(universe), via a live-list per table.
// kEdges mode never touches the tables at all; it counts crossing
// connections directly.
//
// Beyond port usage, the kernel can optionally maintain the *border set*
// and *removal ranks* PareDown consults every round (Section 4.2).  Both
// derive from two per-member integers that update in O(degree) per move:
//   internalIn(b)  = #input  connections of member b fed by members
//   internalOut(b) = #output connections of member b consumed by members
// A member is border iff internalIn == 0 or internalOut == 0, and its
// removal rank is 2*(internalIn + internalOut) - indegree - outdegree.
// Tracking is opt-in (BorderTracking::kOn) because the branch-and-bound
// bins never ask for borders and should not pay for them.
//
// For the branch-and-bound's admissible lower bound the kernel can also
// maintain the *irreducible* part of the crossing I/O: the subset whose
// outside endpoint is "frozen" -- a block that can provably never join
// this member set (non-inner blocks, and blocks the search has already
// fixed in another bin or left uncovered).  Frozen crossing I/O can only
// grow as the member set grows, so it is a sound monotone floor on the
// final I/O of any superset -- including in kSignals mode, where pruning
// on the full io() would be unsound (adding a member can internalize
// shared fanout and *shrink* the count; it can never shrink the frozen
// part, because a frozen endpoint stays outside forever).  Tracking is
// enabled by handing the constructor a caller-owned frozen BitSet.
// When an outside block's bit flips, the caller walks that block's arcs
// and reports each one whose far end is a member through
// freezeInput()/freezeOutput() (or their inverses), O(1) per arc.  The
// caller knows which set holds each neighbor, so a block that borders
// several sets costs O(degree) in total, not O(sets * degree).
//
// countIo(), borderBlocks(), and removalRank() in core/subgraph.h remain
// the independent from-scratch references; the randomized kernel tests
// cross-check every incremental state against them.  In debug builds the
// refcount tables additionally assert range and non-underflow on every
// decrement, so a desynced counter fails loudly instead of silently
// corrupting the search.
#ifndef EBLOCKS_PARTITION_PORT_COUNTER_H_
#define EBLOCKS_PARTITION_PORT_COUNTER_H_

#include <cassert>
#include <cstdint>
#include <vector>

#include "core/bitset.h"
#include "core/network.h"
#include "core/subgraph.h"
#include "partition/compact_graph.h"

namespace eblocks::partition {

/// Whether a PortCounter additionally maintains the border set and the
/// removal ranks of its members (see the header comment).
enum class BorderTracking { kOff, kOn };

namespace detail {

/// Dense per-endpoint reference counts with O(touched) reset: counts_
/// spans the whole endpoint universe, live_ lists exactly the endpoints
/// with a non-zero count (their position kept in pos_ for O(1)
/// swap-removal).  All operations are hash-free and allocation-free
/// after init().
class EndpointRefCount {
 public:
  void init(std::size_t universe) {
    counts_.assign(universe, 0);
    pos_.assign(universe, 0);
    live_.clear();
    live_.reserve(universe);
  }

  /// Increments `e`; true when the count became non-zero (0 -> 1).
  bool inc(std::uint32_t e) {
    assert(e < counts_.size() && "endpoint id out of range");
    if (counts_[e]++ != 0) return false;
    pos_[e] = static_cast<std::uint32_t>(live_.size());
    live_.push_back(e);
    return true;
  }

  /// Decrements `e`; true when the count reached zero (1 -> 0).
  /// Debug builds assert against underflow -- a desynced caller.
  bool dec(std::uint32_t e) {
    assert(e < counts_.size() && "endpoint id out of range");
    assert(counts_[e] > 0 && "endpoint refcount underflow");
    if (--counts_[e] != 0) return false;
    const std::uint32_t last = live_.back();
    live_[pos_[e]] = last;
    pos_[last] = pos_[e];
    live_.pop_back();
    return true;
  }

  /// Zeroes every non-zero count in O(touched).
  void clear() {
    for (const std::uint32_t e : live_) counts_[e] = 0;
    live_.clear();
  }

  int liveCount() const { return static_cast<int>(live_.size()); }

 private:
  std::vector<std::int32_t> counts_;
  std::vector<std::uint32_t> pos_;
  std::vector<std::uint32_t> live_;
};

}  // namespace detail

/// Incrementally maintained I/O usage of a member set.  The counter
/// walks a CompactGraph it does not own -- normally the problem's
/// (PartitionProblem::graph()) -- which must outlive it.  Not
/// thread-safe; parallel search gives each worker (and each bin) its own
/// counter over the one shared CompactGraph.
class PortCounter {
 public:
  /// `frozen` (optional, caller-owned, must outlive the counter) enables
  /// irreducible-I/O tracking: fixedIo() counts the crossing I/O whose
  /// outside endpoint block is in `*frozen`.  The caller owns the bit
  /// flips and must keep the counter in sync: add(b)/remove(b) require
  /// `b` itself to be un-frozen at call time, and every flip of an
  /// *outside* block's bit must be reported, one crossing arc at a time,
  /// through freezeInput()/freezeOutput() (bit set) or
  /// unfreezeInput()/unfreezeOutput() (bit cleared).  Flipping a bit
  /// while the block is a member needs no call -- members have no
  /// crossing edges to themselves.
  PortCounter(const CompactGraph& graph, CountingMode mode,
              BorderTracking tracking = BorderTracking::kOff,
              const BitSet* frozen = nullptr)
      : graph_(&graph), mode_(mode), tracking_(tracking), frozen_(frozen) {
    init();
  }

  const CompactGraph& graph() const { return *graph_; }
  CountingMode mode() const { return mode_; }
  bool tracksBorder() const { return tracking_ == BorderTracking::kOn; }
  bool tracksFixed() const { return frozen_ != nullptr; }
  const BitSet& members() const { return members_; }
  int memberCount() const { return count_; }
  bool contains(BlockId b) const { return members_.test(b); }

  /// Current port usage; always equal to
  /// countIo(net, members(), mode()).
  const IoCount& io() const { return io_; }

  /// The irreducible part of io(): crossing I/O whose outside endpoint
  /// block is frozen.  Component-wise <= io(), and component-wise <= the
  /// final io() of *any* superset of members() reachable without
  /// unfreezing -- the admissible floor the branch-and-bound prunes on.
  /// Requires a frozen set at construction.
  const IoCount& fixedIo() const { return fixed_; }

  /// Reports that crossing connection `arc` just became irreducible: its
  /// outside end was frozen.  freezeInput() is for an input of the set
  /// (outside -> member), freezeOutput() for an output (member ->
  /// outside).  `arc` may come from either end's adjacency list; only
  /// its source endpoint is read.  O(1).
  void freezeInput(const CompactArc& arc) {
    if (mode_ == CountingMode::kEdges)
      ++fixed_.inputs;
    else
      fixedIncIn(arc.endpoint);
  }
  void freezeOutput(const CompactArc& arc) {
    if (mode_ == CountingMode::kEdges)
      ++fixed_.outputs;
    else
      fixedIncOut(arc.endpoint);
  }

  /// Exact inverses of freezeInput()/freezeOutput(), for when the
  /// outside end is un-frozen again.
  void unfreezeInput(const CompactArc& arc) {
    if (mode_ == CountingMode::kEdges)
      --fixed_.inputs;
    else
      fixedDecIn(arc.endpoint);
  }
  void unfreezeOutput(const CompactArc& arc) {
    if (mode_ == CountingMode::kEdges)
      --fixed_.outputs;
    else
      fixedDecOut(arc.endpoint);
  }

  /// The current border members; always equal (as a set) to
  /// borderBlocks(net, members()).  Requires BorderTracking::kOn.
  const BitSet& border() const { return border_; }

  /// Removal rank of member `b`; always equal to
  /// removalRank(net, members(), b).  O(1).  Requires BorderTracking::kOn
  /// and `b` to be a member.
  int rank(BlockId b) const {
    return 2 * (internalIn_[b] + internalOut_[b]) - graph_->indegree(b) -
           graph_->outdegree(b);
  }

  /// Adds `b` to the set in O(degree(b)).  `b` must not be a member.
  void add(BlockId b);

  /// Removes `b` from the set in O(degree(b)).  `b` must be a member.
  void remove(BlockId b);

  /// Empties the set in O(members + touched endpoints).
  void clear();

  /// Replaces the set: clear() followed by add() of every member.
  void assign(const BitSet& members);

 private:
  // kSignals bookkeeping: reference counts of boundary-crossing edges per
  // source endpoint, in dense arrays indexed by the graph's endpoint
  // ids.  An endpoint counts toward io_ while its count > 0.
  void incIn(std::uint32_t e) {
    if (inSrc_.inc(e)) ++io_.inputs;
  }
  void decIn(std::uint32_t e) {
    if (inSrc_.dec(e)) --io_.inputs;
  }
  void incOut(std::uint32_t e) {
    if (outSrc_.inc(e)) ++io_.outputs;
  }
  void decOut(std::uint32_t e) {
    if (outSrc_.dec(e)) --io_.outputs;
  }

  // Irreducible-I/O bookkeeping (kSignals): a source endpoint occupies an
  // irreducible input while it has > 0 member consumers and its block is
  // frozen; a member endpoint occupies an irreducible output while it has
  // > 0 frozen outside consumers.  Same refcount discipline as
  // inSrc_/outSrc_ above.
  void fixedIncIn(std::uint32_t e) {
    if (fixedInSrc_.inc(e)) ++fixed_.inputs;
  }
  void fixedDecIn(std::uint32_t e) {
    if (fixedInSrc_.dec(e)) --fixed_.inputs;
  }
  void fixedIncOut(std::uint32_t e) {
    if (fixedOutSrc_.inc(e)) ++fixed_.outputs;
  }
  void fixedDecOut(std::uint32_t e) {
    if (fixedOutSrc_.dec(e)) --fixed_.outputs;
  }

  /// Recomputes the border bit of member `b` from its internal-degree
  /// counters (border iff every input or every output crosses the
  /// boundary -- vacuously true for disconnected sides).
  void refreshBorderBit(BlockId b) {
    if (internalIn_[b] == 0 || internalOut_[b] == 0)
      border_.set(b);
    else
      border_.reset(b);
  }
  void trackAdd(BlockId b);
  void trackRemove(BlockId b);

  void init() {
    members_ = BitSet(graph_->blockCount());
    if (mode_ == CountingMode::kSignals) {
      inSrc_.init(graph_->endpointCount());
      outSrc_.init(graph_->endpointCount());
      if (frozen_) {
        fixedInSrc_.init(graph_->endpointCount());
        fixedOutSrc_.init(graph_->endpointCount());
      }
    }
    if (tracking_ == BorderTracking::kOn) {
      internalIn_.resize(graph_->blockCount(), 0);
      internalOut_.resize(graph_->blockCount(), 0);
      border_ = BitSet(graph_->blockCount());
    }
  }

  const CompactGraph* graph_;
  CountingMode mode_;
  BorderTracking tracking_;
  const BitSet* frozen_;
  BitSet members_;
  int count_ = 0;
  IoCount io_;
  detail::EndpointRefCount inSrc_, outSrc_;
  // Irreducible-I/O bookkeeping (frozen set provided only; empty
  // otherwise).  The tables are used in kSignals mode; kEdges counts
  // each crossing connection directly into fixed_.
  IoCount fixed_;
  detail::EndpointRefCount fixedInSrc_, fixedOutSrc_;
  // Border/rank bookkeeping (BorderTracking::kOn only; empty otherwise).
  std::vector<int> internalIn_, internalOut_;
  BitSet border_;
};

}  // namespace eblocks::partition

#endif  // EBLOCKS_PARTITION_PORT_COUNTER_H_
