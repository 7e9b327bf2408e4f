#include "io/dot.h"

#include <sstream>

namespace eblocks::io {

namespace {

const char* kClusterColors[] = {"lightblue", "lightgreen", "lightsalmon",
                                "lightgoldenrod", "plum", "khaki",
                                "lightcyan", "mistyrose"};

// Appending, unlike "n" + std::to_string(b), keeps gcc 12 at -O3 from a
// false -Wrestrict warning.
std::string nodeId(BlockId b) {
  return std::string("n").append(std::to_string(b));
}

std::string nodeDecl(const Network& net, BlockId b) {
  const Block& blk = net.block(b);
  std::string shape = "box";
  std::string extra;
  switch (blk.type->blockClass()) {
    case BlockClass::kSensor: shape = "house"; break;
    case BlockClass::kOutput: shape = "invhouse"; break;
    case BlockClass::kCommunication: shape = "cds"; break;
    case BlockClass::kCompute:
      if (blk.type->programmable()) extra = ", peripheries=2";
      break;
  }
  return nodeId(b) + " [label=\"" + blk.name + "\\n(" + blk.type->name() +
         ")\", shape=" + shape + extra + "];\n";
}

}  // namespace

std::string toDot(const Network& net, const std::vector<BitSet>& partitions) {
  std::ostringstream out;
  out << "digraph \"" << net.name() << "\" {\n  rankdir=LR;\n";
  BitSet inCluster = net.emptySet();
  for (std::size_t k = 0; k < partitions.size(); ++k) {
    out << "  subgraph cluster_p" << k << " {\n"
        << "    style=filled; color="
        << kClusterColors[k % std::size(kClusterColors)] << ";\n"
        << "    label=\"partition " << k << "\";\n";
    partitions[k].forEach([&](std::size_t b) {
      inCluster.set(b);
      out << "    " << nodeDecl(net, static_cast<BlockId>(b));
    });
    out << "  }\n";
  }
  for (BlockId b = 0; b < net.blockCount(); ++b)
    if (!inCluster.test(b)) out << "  " << nodeDecl(net, b);
  for (const Connection& c : net.connections())
    out << "  " << nodeId(c.from.block) << " -> " << nodeId(c.to.block)
        << ";\n";
  out << "}\n";
  return out.str();
}

}  // namespace eblocks::io
