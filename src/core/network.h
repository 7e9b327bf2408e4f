// The eBlock network: a directed acyclic graph of block instances.
//
// A network corresponds to the user's drawing in the capture tool: block
// instances and point-to-point connections from output ports to input
// ports.  Sensor blocks are the primary inputs of the graph and output
// blocks the primary outputs; the partitioner operates on the remaining
// "inner" blocks (pre-defined, non-programmable compute blocks).
//
// Networks are append-only: blocks and connections are added during
// construction and never removed.  Synthesis produces a fresh network
// rather than mutating the source (see synth/synthesizer.h).
#ifndef EBLOCKS_CORE_NETWORK_H_
#define EBLOCKS_CORE_NETWORK_H_

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/bitset.h"
#include "core/block.h"

namespace eblocks {

/// A directed connection from an output port to an input port.
struct Connection {
  Endpoint from;  ///< (block, output port)
  Endpoint to;    ///< (block, input port)
  friend auto operator<=>(const Connection&, const Connection&) = default;
};

/// Thrown when topological traversal encounters a cycle.
class CycleError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Network {
 public:
  explicit Network(std::string name = "network") : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Adds a block instance; returns its dense id.  Instance names must be
  /// unique; an empty name is replaced by "<type>_<id>".
  BlockId addBlock(std::string instanceName, BlockTypePtr type);

  /// Connects `from` (an output port) to `to` (an input port).  Throws
  /// std::invalid_argument on out-of-range ports, class violations (e.g.
  /// connecting into a sensor), or double-driving an input port.
  void connect(Endpoint from, Endpoint to);
  void connect(BlockId fromBlock, int outPort, BlockId toBlock, int inPort);

  std::size_t blockCount() const { return blocks_.size(); }
  const Block& block(BlockId id) const { return blocks_.at(id); }
  std::span<const Connection> connections() const { return connections_; }

  /// Connections arriving at / leaving a block (all ports).
  std::span<const Connection> inputsOf(BlockId id) const;
  std::span<const Connection> outputsOf(BlockId id) const;

  /// The connection driving input port `inPort` of `id`, if connected.
  std::optional<Connection> driverOf(BlockId id, int inPort) const;

  /// Connections leaving output port `outPort` of `id` (fanout list).
  std::vector<Connection> fanoutOf(BlockId id, int outPort) const;

  // --- classification -----------------------------------------------------
  bool isSensor(BlockId id) const;
  bool isOutput(BlockId id) const;
  /// "Inner" blocks are the partitioner's universe: non-programmable
  /// pre-defined compute blocks (communication blocks are not mergeable).
  bool isInner(BlockId id) const;
  std::vector<BlockId> innerBlocks() const;

  /// An empty BitSet sized to this network's block universe.
  BitSet emptySet() const { return BitSet(blocks_.size()); }
  /// The set of all inner blocks as a BitSet.
  BitSet innerSet() const;

  // --- structure ----------------------------------------------------------
  /// Blocks in a topological order (sources first, then breadth-first
  /// from them; no caller depends on which order).  Throws CycleError.
  std::vector<BlockId> topoOrder() const;

  /// True if the connection graph contains no directed cycle.
  bool isAcyclic() const;

  /// Graph-structural indegree/outdegree (connection counts).
  int indegree(BlockId id) const;
  int outdegree(BlockId id) const;

  /// Structural sanity check: returns a list of human-readable problems
  /// (unconnected input ports, dangling compute outputs, cycles, ...).
  /// Empty result means the network is well-formed.
  std::vector<std::string> validate() const;

  /// Looks up a block by instance name.
  std::optional<BlockId> findBlock(const std::string& instanceName) const;

 private:
  std::string name_;
  std::vector<Block> blocks_;
  std::vector<Connection> connections_;
  // Per-block connection lists (indices into connections_ are not stable
  // references; we store copies for O(1) span access).
  std::vector<std::vector<Connection>> in_;
  std::vector<std::vector<Connection>> out_;
};

}  // namespace eblocks

#endif  // EBLOCKS_CORE_NETWORK_H_
