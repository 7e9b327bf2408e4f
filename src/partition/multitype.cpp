#include "partition/multitype.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

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

}  // namespace eblocks::partition
