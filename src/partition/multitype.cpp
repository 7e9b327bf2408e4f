#include "partition/multitype.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "partition/validity.h"

namespace eblocks::partition {

namespace {

constexpr std::int64_t kMaxMilliCost = std::numeric_limits<std::int32_t>::max();

/// One cost in milli-units; throws unless it is finite, non-negative,
/// and within 1e-6 of a multiple of 0.001.
int toMilli(double cost, const std::string& what) {
  if (!std::isfinite(cost) || cost < 0)
    throw std::invalid_argument(what + " cost must be finite and >= 0");
  const double milli = cost * 1000.0;
  if (milli > static_cast<double>(kMaxMilliCost))
    throw std::invalid_argument(what + " cost overflows the cost key");
  const double rounded = std::round(milli);
  if (std::abs(milli - rounded) > 1e-3)
    throw std::invalid_argument(what + " cost " + std::to_string(cost) +
                                " is not a multiple of 0.001");
  return static_cast<int>(rounded);
}

}  // namespace

ProgCostModel ProgCostModel::paperDefault() {
  ProgCostModel m;
  m.preDefinedBlockCost = 1.0;
  m.options.push_back(ProgBlockOption{"prog_2x2", 2, 2, 1.5});
  return m;
}

MilliCostModel toMilliCosts(const ProgCostModel& model, int innerCount) {
  MilliCostModel milli;
  milli.preDefinedBlockCost =
      toMilli(model.preDefinedBlockCost, "pre-defined block");
  std::int64_t largest = milli.preDefinedBlockCost;
  for (const ProgBlockOption& o : model.options) {
    milli.optionCost.push_back(toMilli(o.cost, "option '" + o.name + "'"));
    largest = std::max<std::int64_t>(largest, milli.optionCost.back());
  }
  // No search bound or solution cost exceeds innerCount x the largest
  // cost, which must fit the packed incumbent key's 32-bit cost half.
  if (std::max(innerCount, 0) * largest > kMaxMilliCost)
    throw std::invalid_argument(
        "cost model overflows the cost key at " +
        std::to_string(innerCount) + " inner blocks");
  return milli;
}

int MilliCostModel::totalCost(const Partitioning& typed,
                              int originalInnerCount) const {
  int cost = preDefinedBlockCost * (originalInnerCount - typed.coveredBlocks());
  for (int idx : typed.optionIndex)
    cost += optionCost.at(static_cast<std::size_t>(idx));
  return cost;
}

std::optional<int> cheapestFittingOption(const IoCount& io,
                                         const ProgCostModel& model) {
  std::optional<int> best;
  for (std::size_t i = 0; i < model.options.size(); ++i) {
    const ProgBlockOption& o = model.options[i];
    if (io.inputs > o.inputs || io.outputs > o.outputs) continue;
    if (!best ||
        o.cost < model.options[static_cast<std::size_t>(*best)].cost)
      best = static_cast<int>(i);
  }
  return best;
}

std::optional<int> cheapestFittingOption(const Network& net,
                                         const BitSet& members,
                                         const ProgCostModel& model) {
  return cheapestFittingOption(countIo(net, members, model.mode), model);
}

std::vector<std::string> verifyPartitioning(const Network& net,
                                            const ProgCostModel& model,
                                            const Partitioning& typed) {
  const MilliCostModel milli =
      toMilliCosts(model, static_cast<int>(net.innerBlocks().size()));
  std::vector<std::string> problems;
  if (typed.partitions.size() != typed.optionIndex.size()) {
    problems.push_back("partition/option count mismatch");
    return problems;
  }
  BitSet seen = net.emptySet();
  for (std::size_t i = 0; i < typed.partitions.size(); ++i) {
    const BitSet& p = typed.partitions[i];
    const std::string label = "partition #" + std::to_string(i);
    const int idx = typed.optionIndex[i];
    if (idx < 0 || idx >= static_cast<int>(model.options.size())) {
      problems.push_back(label + ": option index out of range");
      continue;
    }
    const ProgBlockOption& o = model.options[static_cast<std::size_t>(idx)];
    const IoCount io = countIo(net, p, model.mode);
    if (io.inputs > o.inputs || io.outputs > o.outputs)
      problems.push_back(label + ": does not fit option " + o.name);
    if (p.none()) problems.push_back(label + ": empty");
    p.forEach([&](std::size_t bi) {
      const BlockId b = static_cast<BlockId>(bi);
      if (!net.isInner(b))
        problems.push_back(label + ": member '" + net.block(b).name +
                           "' is not inner");
      if (seen.test(bi))
        problems.push_back(label + ": member '" + net.block(b).name +
                           "' in two partitions");
      seen.set(bi);
    });
    // Cost sanity: a rational result never uses a partition that costs
    // more than the blocks it replaces.
    if (milli.optionCost[static_cast<std::size_t>(idx)] >
        milli.preDefinedBlockCost * static_cast<int>(p.count()))
      problems.push_back(label + ": option " + o.name +
                         " costs more than the blocks it replaces");
  }
  return problems;
}

}  // namespace eblocks::partition
