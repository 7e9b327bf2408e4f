#include "codegen/level_order.h"

#include <algorithm>

namespace eblocks::codegen {

std::vector<BlockId> levelOrder(const BitSet& partition,
                                const std::vector<int>& levels) {
  std::vector<BlockId> members;
  members.reserve(partition.count());
  partition.forEach(
      [&](std::size_t b) { members.push_back(static_cast<BlockId>(b)); });
  std::stable_sort(members.begin(), members.end(),
                   [&](BlockId a, BlockId b) {
                     return levels[a] != levels[b] ? levels[a] < levels[b]
                                                   : a < b;
                   });
  return members;
}

}  // namespace eblocks::codegen
