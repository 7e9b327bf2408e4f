#include "partition/validity.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

namespace eblocks::partition {

IoCount irreducibleBlockIo(const CompactGraph& graph, BlockId b,
                           CountingMode mode) {
  IoCount io;
  if (mode == CountingMode::kEdges) {
    for (const CompactArc& a : graph.inArcs(b))
      if (!graph.isInner(a.neighbor)) ++io.inputs;
    for (const CompactArc& a : graph.outArcs(b))
      if (!graph.isInner(a.neighbor)) ++io.outputs;
    return io;
  }
  // kSignals: distinct outside source endpoints feeding b (each is a
  // separate external signal no bin can merge or internalize), and b's
  // own output endpoints with at least one outside consumer (each
  // occupies one port of any bin containing b, forever).
  const auto distinct = [&](std::span<const CompactArc> arcs) {
    std::vector<std::uint32_t> ends;
    for (const CompactArc& a : arcs)
      if (!graph.isInner(a.neighbor)) ends.push_back(a.endpoint);
    std::sort(ends.begin(), ends.end());
    return static_cast<int>(std::unique(ends.begin(), ends.end()) -
                            ends.begin());
  };
  io.inputs = distinct(graph.inArcs(b));
  io.outputs = distinct(graph.outArcs(b));
  return io;
}

}  // namespace eblocks::partition
