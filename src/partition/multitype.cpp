#include "partition/multitype.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/levels.h"
#include "partition/port_counter.h"
#include "partition/validity.h"

namespace eblocks::partition {

namespace {

/// Shared removal choice (same tiebreaks as classic PareDown).
BlockId chooseRemoval(const Network& net, const std::vector<int>& levels,
                      const std::vector<BlockId>& border,
                      const std::vector<int>& ranks) {
  BlockId best = border.front();
  int bestRank = ranks.front();
  for (std::size_t i = 1; i < border.size(); ++i) {
    const BlockId b = border[i];
    const int r = ranks[i];
    if (r != bestRank) {
      if (r < bestRank) { best = b; bestRank = r; }
      continue;
    }
    if (net.indegree(b) != net.indegree(best)) {
      if (net.indegree(b) > net.indegree(best)) best = b;
      continue;
    }
    if (net.outdegree(b) != net.outdegree(best)) {
      if (net.outdegree(b) > net.outdegree(best)) best = b;
      continue;
    }
    if (levels[b] > levels[best]) best = b;
  }
  return best;
}

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

int TypedPartitioning::coveredBlocks() const {
  int covered = 0;
  for (const BitSet& p : partitions) covered += static_cast<int>(p.count());
  return covered;
}

double TypedPartitioning::totalCost(int originalInnerCount,
                                    const ProgCostModel& model) const {
  double cost = model.preDefinedBlockCost *
                (originalInnerCount - coveredBlocks());
  for (int idx : optionIndex)
    cost += model.options.at(static_cast<std::size_t>(idx)).cost;
  return cost;
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

int MilliCostModel::totalCost(const TypedPartitioning& typed,
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

TypedPartitionRun multiTypePareDown(const Network& net,
                                    const ProgCostModel& model) {
  const auto start = std::chrono::steady_clock::now();
  TypedPartitionRun run;
  run.algorithm = "multitype-paredown";
  const std::vector<int> levels = computeLevels(net);

  BitSet blocks = net.innerSet();
  // Port usage, border set, and removal ranks of the paring candidate are
  // maintained incrementally (one O(degree) update per removal) on the
  // shared validity kernel, walking a CSR view built once per run.
  const CompactGraph graph(net);
  const MilliCostModel milli =
      toMilliCosts(model, static_cast<int>(graph.innerCount()));
  PortCounter candidate(graph, model.mode, BorderTracking::kOn);
  std::vector<BlockId> border;  // reused across rounds
  std::vector<int> ranks;
  while (blocks.any()) {
    candidate.assign(blocks);
    bool accepted = false;
    BlockId lastRemoved = kNoBlock;
    while (candidate.memberCount() > 0) {
      ++run.explored;
      const auto option = cheapestFittingOption(candidate.io(), model);
      if (option) {
        // Replace only when the option costs less than the pre-defined
        // blocks it would replace.
        if (milli.optionCost[static_cast<std::size_t>(*option)] <
            milli.preDefinedBlockCost * candidate.memberCount()) {
          run.result.partitions.push_back(candidate.members());
          run.result.optionIndex.push_back(*option);
        }
        // Not beneficial (e.g. a lone block): retire the candidate either
        // way; paring further can only shrink the benefit.
        blocks.andNot(candidate.members());
        accepted = true;
        break;
      }
      border.clear();
      ranks.clear();
      candidate.border().forEach([&](std::size_t b) {
        border.push_back(static_cast<BlockId>(b));
        ranks.push_back(candidate.rank(static_cast<BlockId>(b)));
      });
      if (border.empty()) {  // pathological; retire candidate
        blocks.andNot(candidate.members());
        accepted = true;
        break;
      }
      lastRemoved = chooseRemoval(net, levels, border, ranks);
      candidate.remove(lastRemoved);
    }
    if (!accepted && candidate.memberCount() == 0) blocks.reset(lastRemoved);
  }

  run.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  return run;
}

std::vector<std::string> verifyTypedPartitioning(
    const Network& net, const ProgCostModel& model,
    const TypedPartitioning& typed) {
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
