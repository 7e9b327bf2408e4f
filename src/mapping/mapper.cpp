#include "mapping/mapper.h"

#include <algorithm>
#include <chrono>

#include "core/deadline.h"

namespace eblocks::mapping {

namespace {

class Backtracker {
 public:
  Backtracker(const Network& logical, const Topology& topo,
              const MappingOptions& options)
      : net_(logical),
        topo_(topo),
        options_(options),
        deadline_(deadlineAfter(options.timeLimitSeconds)) {}

  MapResult run() {
    MapResult result;  // kInfeasible unless the search says otherwise
    if (search()) {
      result.status = MapStatus::kMapped;
      result.mapping = {std::move(placement_), std::move(cableOf_)};
    } else if (timedOut_) {
      result.status = MapStatus::kTimedOut;
    }
    result.explored = explored_;
    return result;
  }

 private:
  /// Places every block and routes every connection; false when that is
  /// impossible or the time limit expired (timedOut_ tells which).
  bool search() {
    const std::size_t n = net_.blockCount();
    if (n > topo_.nodeCount()) return false;
    placement_.assign(n, kNoPhys);
    nodeUsed_.assign(topo_.nodeCount(), 0);
    linkUsed_.assign(topo_.links().size(), 0);
    cableOf_.assign(net_.connections().size(), 0);

    // Apply pins.
    for (const auto& [block, phys] : options_.pinned) {
      if (block >= n || phys >= topo_.nodeCount()) return false;
      if (nodeUsed_[phys]) return false;  // two blocks, one spot
      placement_[block] = phys;
      nodeUsed_[phys] = 1;
    }

    // Assignment order: unpinned blocks, most-connected first (classic
    // most-constrained-variable heuristic).
    for (BlockId b = 0; b < n; ++b)
      if (placement_[b] == kNoPhys) order_.push_back(b);
    std::stable_sort(order_.begin(), order_.end(), [&](BlockId a, BlockId b) {
      return net_.indegree(a) + net_.outdegree(a) >
             net_.indegree(b) + net_.outdegree(b);
    });

    return assign(0) && routeConnections();  // routing must hold; defensive
  }

  bool timeExpired() {
    if (timedOut_) return true;
    if ((explored_ & 0x3ff) == 0 &&
        std::chrono::steady_clock::now() > deadline_)
      timedOut_ = true;
    return timedOut_;
  }

  /// True when placing `b` at `phys` keeps all constraints satisfiable for
  /// the connections whose two endpoints are now both placed.
  bool feasible(BlockId b, PhysId phys) {
    const PhysicalNode& node = topo_.node(phys);
    if (net_.indegree(b) > node.inputs) return false;
    if (net_.outdegree(b) > node.outputs) return false;
    // Every already-placed neighbor needs a free cable on the right route.
    for (const Connection& c : net_.inputsOf(b)) {
      const PhysId src = placement_[c.from.block];
      if (src != kNoPhys && countFreeCables(src, phys) == 0) return false;
    }
    for (const Connection& c : net_.outputsOf(b)) {
      const PhysId dst = placement_[c.to.block];
      if (dst != kNoPhys && countFreeCables(phys, dst) == 0) return false;
    }
    return true;
  }

  int countFreeCables(PhysId from, PhysId to) const {
    int free = 0;
    for (std::size_t li : topo_.linksFrom(from))
      if (topo_.links()[li].to == to && !linkUsed_[li]) ++free;
    return free;
  }

  /// Claims one free cable from->to; returns its index.
  std::size_t claimCable(PhysId from, PhysId to) {
    for (std::size_t li : topo_.linksFrom(from))
      if (topo_.links()[li].to == to && !linkUsed_[li]) {
        linkUsed_[li] = 1;
        return li;
      }
    return static_cast<std::size_t>(-1);
  }

  bool assign(std::size_t idx) {
    ++explored_;
    if (timeExpired()) return false;
    if (idx == order_.size()) return true;
    const BlockId b = order_[idx];
    for (PhysId phys = 0; phys < topo_.nodeCount(); ++phys) {
      if (nodeUsed_[phys] || !feasible(b, phys)) continue;
      // Claim the node and the cables to already-placed neighbors.
      placement_[b] = phys;
      nodeUsed_[phys] = 1;
      std::vector<std::size_t> claimed;
      bool ok = true;
      for (const Connection& c : net_.inputsOf(b)) {
        const PhysId src = placement_[c.from.block];
        if (src == kNoPhys || c.from.block == b) continue;
        const std::size_t li = claimCable(src, phys);
        if (li == static_cast<std::size_t>(-1)) { ok = false; break; }
        claimed.push_back(li);
      }
      if (ok)
        for (const Connection& c : net_.outputsOf(b)) {
          const PhysId dst = placement_[c.to.block];
          if (dst == kNoPhys || c.to.block == b) continue;
          const std::size_t li = claimCable(phys, dst);
          if (li == static_cast<std::size_t>(-1)) { ok = false; break; }
          claimed.push_back(li);
        }
      if (ok && assign(idx + 1)) return true;
      for (std::size_t li : claimed) linkUsed_[li] = 0;
      nodeUsed_[phys] = 0;
      placement_[b] = kNoPhys;
      if (timedOut_) return false;
    }
    return false;
  }

  /// After a full placement, bind each logical connection to a concrete
  /// cable index (the search already guaranteed capacity).
  bool routeConnections() {
    std::fill(linkUsed_.begin(), linkUsed_.end(), 0);
    const auto connections = net_.connections();
    for (std::size_t i = 0; i < connections.size(); ++i) {
      const PhysId from = placement_[connections[i].from.block];
      const PhysId to = placement_[connections[i].to.block];
      const std::size_t li = claimCable(from, to);
      if (li == static_cast<std::size_t>(-1)) return false;
      cableOf_[i] = li;
    }
    return true;
  }

  const Network& net_;
  const Topology& topo_;
  MappingOptions options_;
  std::vector<PhysId> placement_;
  std::vector<char> nodeUsed_;
  std::vector<char> linkUsed_;
  std::vector<std::size_t> cableOf_;
  std::vector<BlockId> order_;
  std::uint64_t explored_ = 0;
  bool timedOut_ = false;
  std::chrono::steady_clock::time_point deadline_;
};

}  // namespace

const char* toString(MapStatus status) {
  switch (status) {
    case MapStatus::kMapped: return "mapped";
    case MapStatus::kInfeasible: return "infeasible";
    case MapStatus::kTimedOut: return "timed out";
  }
  return "?";
}

MapResult mapNetwork(const Network& logical, const Topology& topo,
                     const MappingOptions& options) {
  Backtracker search(logical, topo, options);
  return search.run();
}

std::vector<std::string> verifyMapping(const Network& logical,
                                       const Topology& topo,
                                       const Mapping& mapping) {
  std::vector<std::string> problems;
  if (mapping.placement.size() != logical.blockCount()) {
    problems.push_back("placement size mismatch");
    return problems;
  }
  std::vector<int> hosted(topo.nodeCount(), 0);
  for (BlockId b = 0; b < logical.blockCount(); ++b) {
    const PhysId p = mapping.placement[b];
    if (p == kNoPhys || p >= topo.nodeCount()) {
      problems.push_back("block '" + logical.block(b).name + "' unplaced");
      continue;
    }
    if (++hosted[p] > 1)
      problems.push_back("physical node '" + topo.node(p).name +
                         "' hosts more than one block");
    if (logical.indegree(b) > topo.node(p).inputs ||
        logical.outdegree(b) > topo.node(p).outputs)
      problems.push_back("block '" + logical.block(b).name +
                         "' exceeds the ports of '" + topo.node(p).name +
                         "'");
  }
  const auto connections = logical.connections();
  if (mapping.cableOf.size() != connections.size()) {
    problems.push_back("cable assignment size mismatch");
    return problems;
  }
  std::vector<int> cableLoad(topo.links().size(), 0);
  for (std::size_t i = 0; i < connections.size(); ++i) {
    const std::size_t li = mapping.cableOf[i];
    if (li >= topo.links().size()) {
      problems.push_back("connection " + std::to_string(i) +
                         " routed over a nonexistent cable");
      continue;
    }
    const PhysicalLink& link = topo.links()[li];
    if (link.from != mapping.placement[connections[i].from.block] ||
        link.to != mapping.placement[connections[i].to.block])
      problems.push_back("connection " + std::to_string(i) +
                         " routed over a cable that joins other nodes");
    if (++cableLoad[li] > 1)
      problems.push_back("cable " + std::to_string(li) +
                         " carries more than one signal");
  }
  return problems;
}

}  // namespace eblocks::mapping
