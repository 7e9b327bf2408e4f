#include "partition/problem.h"

#include <stdexcept>
#include <utility>

namespace eblocks::partition {

namespace {

/// `universe`, once checked to hold inner blocks of `net` only.
BitSet checkedUniverse(const Network& net, BitSet universe) {
  if (universe.size() != net.blockCount())
    throw std::invalid_argument(
        "PartitionProblem: universe is not sized to the network");
  universe.forEach([&](std::size_t b) {
    if (!net.isInner(static_cast<BlockId>(b)))
      throw std::invalid_argument(
          "PartitionProblem: universe block '" +
          net.block(static_cast<BlockId>(b)).name +
          "' is not an inner block");
  });
  return universe;
}

}  // namespace

PartitionProblem::PartitionProblem(const Network& net, ProgBlockSpec spec)
    : PartitionProblem(net, spec, net.innerSet()) {}

PartitionProblem::PartitionProblem(const Network& net, ProgBlockSpec spec,
                                   BitSet universe)
    : net_(&net),
      spec_(spec),
      universe_(checkedUniverse(net, std::move(universe))),
      graph_(net, universe_),
      levels_(computeLevels(net)) {}

PartitionProblem::PartitionProblem(const PartitionProblem& whole,
                                   BitSet universe)
    : net_(whole.net_),
      spec_(whole.spec_),
      universe_(checkedUniverse(*net_, std::move(universe))),
      graph_(whole.graph_, universe_),
      levels_(whole.levels_) {}

}  // namespace eblocks::partition
