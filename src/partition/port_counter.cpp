#include "partition/port_counter.h"

namespace eblocks::partition {

void PortCounter::add(BlockId b) {
  assert(!members_.test(b) && "add: already a member");
  assert((!frozen_ || !frozen_->test(b)) && "add: block is frozen");
  // Classify b's arcs against the membership *before* b joins.  An edge
  // between b and a member stops crossing the boundary; an edge between b
  // and a non-member starts crossing it.
  //
  // Irreducible tracking rides along: a new crossing edge is irreducible
  // iff its outside endpoint is frozen.  The internalized edges need no
  // fixed_ updates -- their outside endpoint was b itself, which must be
  // un-frozen at add() time (see the header contract), so they were
  // never counted as irreducible.
  if (mode_ == CountingMode::kEdges) {
    for (const CompactArc& a : graph_->inArcs(b)) {
      if (members_.test(a.neighbor)) {
        --io_.outputs;  // member -> b: was an output edge, now internal
      } else {
        ++io_.inputs;  // outside -> b: new input edge
        if (frozen_ && frozen_->test(a.neighbor)) ++fixed_.inputs;
      }
    }
    for (const CompactArc& a : graph_->outArcs(b)) {
      if (members_.test(a.neighbor)) {
        --io_.inputs;  // b -> member: was an input edge, now internal
      } else {
        ++io_.outputs;  // b -> outside: new output edge
        if (frozen_ && frozen_->test(a.neighbor)) ++fixed_.outputs;
      }
    }
  } else {
    for (const CompactArc& a : graph_->inArcs(b)) {
      if (members_.test(a.neighbor)) {
        decOut(a.endpoint);  // member endpoint fed b from outside the set
      } else {
        incIn(a.endpoint);  // external endpoint now feeds the set
        if (frozen_ && frozen_->test(a.neighbor)) fixedIncIn(a.endpoint);
      }
    }
    for (const CompactArc& a : graph_->outArcs(b)) {
      if (members_.test(a.neighbor)) {
        decIn(a.endpoint);  // b's endpoint was an external source
      } else {
        incOut(a.endpoint);  // b's endpoint now feeds the outside
        if (frozen_ && frozen_->test(a.neighbor)) fixedIncOut(a.endpoint);
      }
    }
  }
  if (tracking_ == BorderTracking::kOn) trackAdd(b);
  members_.set(b);
  ++count_;
}

void PortCounter::remove(BlockId b) {
  assert(members_.test(b) && "remove: not a member");
  // Exact inverse of add(): classify against the membership *after* b
  // leaves (networks are DAGs, so b never connects to itself).
  members_.reset(b);
  --count_;
  if (mode_ == CountingMode::kEdges) {
    for (const CompactArc& a : graph_->inArcs(b)) {
      if (members_.test(a.neighbor)) {
        ++io_.outputs;
      } else {
        --io_.inputs;
        if (frozen_ && frozen_->test(a.neighbor)) --fixed_.inputs;
      }
    }
    for (const CompactArc& a : graph_->outArcs(b)) {
      if (members_.test(a.neighbor)) {
        ++io_.inputs;
      } else {
        --io_.outputs;
        if (frozen_ && frozen_->test(a.neighbor)) --fixed_.outputs;
      }
    }
  } else {
    for (const CompactArc& a : graph_->inArcs(b)) {
      if (members_.test(a.neighbor)) {
        incOut(a.endpoint);
      } else {
        decIn(a.endpoint);
        if (frozen_ && frozen_->test(a.neighbor)) fixedDecIn(a.endpoint);
      }
    }
    for (const CompactArc& a : graph_->outArcs(b)) {
      if (members_.test(a.neighbor)) {
        incIn(a.endpoint);
      } else {
        decOut(a.endpoint);
        if (frozen_ && frozen_->test(a.neighbor)) fixedDecOut(a.endpoint);
      }
    }
  }
  if (tracking_ == BorderTracking::kOn) trackRemove(b);
}

void PortCounter::trackAdd(BlockId b) {
  // Called with members_ still *excluding* b.  b's own internal degrees
  // are counted from scratch (O(degree)); each member neighbor gains one
  // internal edge on the side facing b.
  int in = 0, out = 0;
  for (const CompactArc& a : graph_->inArcs(b)) {
    const BlockId u = a.neighbor;
    if (!members_.test(u)) continue;
    ++in;
    if (++internalOut_[u] == 1) refreshBorderBit(u);
  }
  for (const CompactArc& a : graph_->outArcs(b)) {
    const BlockId v = a.neighbor;
    if (!members_.test(v)) continue;
    ++out;
    if (++internalIn_[v] == 1) refreshBorderBit(v);
  }
  internalIn_[b] = in;
  internalOut_[b] = out;
  refreshBorderBit(b);
}

void PortCounter::trackRemove(BlockId b) {
  // Called with members_ already *excluding* b.  Each member neighbor
  // loses one internal edge on the side facing b; a counter reaching zero
  // can only make that neighbor border.
  for (const CompactArc& a : graph_->inArcs(b)) {
    const BlockId u = a.neighbor;
    if (members_.test(u) && --internalOut_[u] == 0) border_.set(u);
  }
  for (const CompactArc& a : graph_->outArcs(b)) {
    const BlockId v = a.neighbor;
    if (members_.test(v) && --internalIn_[v] == 0) border_.set(v);
  }
  internalIn_[b] = 0;
  internalOut_[b] = 0;
  border_.reset(b);
}

void PortCounter::clear() {
  if (tracking_ == BorderTracking::kOn) {
    members_.forEach([&](std::size_t b) {
      internalIn_[b] = 0;
      internalOut_[b] = 0;
    });
    border_.clear();
  }
  members_.clear();
  count_ = 0;
  io_ = IoCount{};
  fixed_ = IoCount{};
  // O(touched): each table zeroes only the endpoints its live-list
  // names.  No-ops in kEdges mode (the tables were never initialized
  // and hold no live entries).
  inSrc_.clear();
  outSrc_.clear();
  fixedInSrc_.clear();
  fixedOutSrc_.clear();
}

void PortCounter::assign(const BitSet& members) {
  clear();
  members.forEach([&](std::size_t b) { add(static_cast<BlockId>(b)); });
}

}  // namespace eblocks::partition
