// Placement of a (synthesized) network onto a physical topology.
//
// Every logical block goes to a distinct physical node; fixed devices
// (sensors, outputs) can be pinned to the installation points where they
// physically are; every logical connection must ride a distinct physical
// cable from source node to destination node.  This is a subgraph
// monomorphism search (NP-hard), solved by backtracking with
// most-constrained-first ordering and forward checking on port budgets and
// cable capacities -- adequate for building-scale deployments.
#ifndef EBLOCKS_MAPPING_MAPPER_H_
#define EBLOCKS_MAPPING_MAPPER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/network.h"
#include "mapping/topology.h"

namespace eblocks::mapping {

struct MappingOptions {
  /// Pre-assigned placements (typically sensors and output devices, which
  /// are physically installed at known nodes).
  std::map<BlockId, PhysId> pinned;
  /// Wall-clock budget; <= 0, NaN, or >= 1e9 disables it
  /// (deadlineAfter in core/deadline.h).
  double timeLimitSeconds = 0.0;
};

struct Mapping {
  /// placement[logical block] = physical node (kNoPhys if unmapped).
  std::vector<PhysId> placement;
  /// cableOf[logical connection index] = index into Topology::links().
  std::vector<std::size_t> cableOf;
};

/// How a mapping search ended.
enum class MapStatus {
  kMapped,      ///< a feasible placement was found
  kInfeasible,  ///< the search proved that no placement exists
  kTimedOut,    ///< the time limit expired first; feasibility is unknown
};

const char* toString(MapStatus status);

struct MapResult {
  MapStatus status = MapStatus::kInfeasible;
  /// The placement; empty unless status is kMapped.
  Mapping mapping;
  /// Search nodes explored, whatever the outcome.
  std::uint64_t explored = 0;
};

/// Searches for a feasible placement within options.timeLimitSeconds.
MapResult mapNetwork(const Network& logical, const Topology& topo,
                     const MappingOptions& options = {});

/// Independent constraint check; empty result means valid.
std::vector<std::string> verifyMapping(const Network& logical,
                                       const Topology& topo,
                                       const Mapping& mapping);

}  // namespace eblocks::mapping

#endif  // EBLOCKS_MAPPING_MAPPER_H_
