#include "partition/compact_graph.h"

#include "core/block.h"

namespace eblocks::partition {

CompactGraph::CompactGraph(const Network& net, const BitSet& universe)
    : blockCount_(net.blockCount()),
      inOff_(net.blockCount() + 1, 0),
      outOff_(net.blockCount() + 1, 0),
      endpointBase_(net.blockCount(), 0) {
  // Endpoint ids: one per (block, output port), assigned in (block,
  // port) order -- deterministic and O(1) to look up.
  for (BlockId b = 0; b < blockCount_; ++b) {
    endpointBase_[b] = static_cast<std::uint32_t>(endpointCount_);
    endpointCount_ +=
        static_cast<std::size_t>(net.block(b).type->outputCount());
  }

  // Offsets, then a fill pass: in-arc stripes first, out-arc stripes
  // after them, both in Network's per-block connection order.
  std::size_t total = 0;
  for (BlockId b = 0; b < blockCount_; ++b) {
    inOff_[b] = static_cast<std::uint32_t>(total);
    total += net.inputsOf(b).size();
  }
  inOff_[blockCount_] = static_cast<std::uint32_t>(total);
  for (BlockId b = 0; b < blockCount_; ++b) {
    outOff_[b] = static_cast<std::uint32_t>(total);
    total += net.outputsOf(b).size();
  }
  outOff_[blockCount_] = static_cast<std::uint32_t>(total);
  arcs_.resize(total);
  for (BlockId b = 0; b < blockCount_; ++b) {
    CompactArc* in = arcs_.data() + inOff_[b];
    for (const Connection& c : net.inputsOf(b))
      *in++ = {c.from.block, endpointId(c.from)};
    CompactArc* out = arcs_.data() + outOff_[b];
    for (const Connection& c : net.outputsOf(b))
      *out++ = {c.to.block, endpointId(c.from)};
  }

  indexUniverse(universe);
}

CompactGraph::CompactGraph(const CompactGraph& whole, const BitSet& universe)
    : CompactGraph(whole) {
  indexUniverse(universe);
}

void CompactGraph::indexUniverse(const BitSet& universe) {
  inner_.clear();
  innerIndex_.assign(blockCount_, -1);
  nonInner_ = BitSet(blockCount_);
  for (BlockId b = 0; b < blockCount_; ++b) {
    if (universe.test(b)) {
      innerIndex_[b] = static_cast<std::int32_t>(inner_.size());
      inner_.push_back(b);
    } else {
      nonInner_.set(b);
    }
  }
}

}  // namespace eblocks::partition
