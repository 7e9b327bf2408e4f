#include "core/network.h"

#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace eblocks {

BlockId Network::addBlock(std::string instanceName, BlockTypePtr type) {
  if (!type) throw std::invalid_argument("addBlock: null block type");
  const BlockId id = static_cast<BlockId>(blocks_.size());
  if (instanceName.empty())
    instanceName = type->name() + "_" + std::to_string(id);
  for (const Block& b : blocks_)
    if (b.name == instanceName)
      throw std::invalid_argument("duplicate block instance name: " +
                                  instanceName);
  blocks_.push_back(Block{std::move(instanceName), std::move(type)});
  in_.emplace_back();
  out_.emplace_back();
  return id;
}

void Network::connect(Endpoint from, Endpoint to) {
  if (from.block >= blocks_.size() || to.block >= blocks_.size())
    throw std::invalid_argument("connect: block id out of range");
  const Block& src = blocks_[from.block];
  const Block& dst = blocks_[to.block];
  if (from.port >= src.type->outputCount())
    throw std::invalid_argument("connect: no output port " +
                                std::to_string(from.port) + " on " + src.name);
  if (to.port >= dst.type->inputCount())
    throw std::invalid_argument("connect: no input port " +
                                std::to_string(to.port) + " on " + dst.name);
  if (from.block == to.block)
    throw std::invalid_argument("connect: self loop on " + src.name);
  if (driverOf(to.block, to.port))
    throw std::invalid_argument("connect: input port already driven on " +
                                dst.name);
  const Connection c{from, to};
  connections_.push_back(c);
  out_[from.block].push_back(c);
  in_[to.block].push_back(c);
}

void Network::connect(BlockId fromBlock, int outPort, BlockId toBlock,
                      int inPort) {
  connect(Endpoint{fromBlock, static_cast<std::uint16_t>(outPort)},
          Endpoint{toBlock, static_cast<std::uint16_t>(inPort)});
}

std::span<const Connection> Network::inputsOf(BlockId id) const {
  return in_.at(id);
}

std::span<const Connection> Network::outputsOf(BlockId id) const {
  return out_.at(id);
}

std::optional<Connection> Network::driverOf(BlockId id, int inPort) const {
  for (const Connection& c : in_.at(id))
    if (c.to.port == inPort) return c;
  return std::nullopt;
}

std::vector<Connection> Network::fanoutOf(BlockId id, int outPort) const {
  std::vector<Connection> r;
  for (const Connection& c : out_.at(id))
    if (c.from.port == outPort) r.push_back(c);
  return r;
}

bool Network::isSensor(BlockId id) const {
  return block(id).type->blockClass() == BlockClass::kSensor;
}

bool Network::isOutput(BlockId id) const {
  return block(id).type->blockClass() == BlockClass::kOutput;
}

bool Network::isInner(BlockId id) const {
  const BlockType& t = *block(id).type;
  return t.blockClass() == BlockClass::kCompute && !t.programmable();
}

std::vector<BlockId> Network::innerBlocks() const {
  std::vector<BlockId> r;
  for (BlockId id = 0; id < blocks_.size(); ++id)
    if (isInner(id)) r.push_back(id);
  return r;
}

BitSet Network::innerSet() const {
  BitSet s = emptySet();
  for (BlockId id = 0; id < blocks_.size(); ++id)
    if (isInner(id)) s.set(id);
  return s;
}

std::vector<BlockId> Network::topoOrder() const {
  std::vector<int> indeg(blocks_.size(), 0);
  for (const Connection& c : connections_) ++indeg[c.to.block];
  // Kahn's algorithm with the output as its own FIFO: `order` holds every
  // block found ready, and the blocks before `head` are expanded.
  std::vector<BlockId> order;
  order.reserve(blocks_.size());
  for (BlockId id = 0; id < blocks_.size(); ++id)
    if (indeg[id] == 0) order.push_back(id);
  for (std::size_t head = 0; head < order.size(); ++head)
    for (const Connection& c : out_[order[head]])
      if (--indeg[c.to.block] == 0) order.push_back(c.to.block);
  if (order.size() != blocks_.size())
    throw CycleError("network '" + name_ + "' contains a cycle");
  return order;
}

bool Network::isAcyclic() const {
  try {
    (void)topoOrder();
    return true;
  } catch (const CycleError&) {
    return false;
  }
}

int Network::indegree(BlockId id) const {
  return static_cast<int>(in_.at(id).size());
}

int Network::outdegree(BlockId id) const {
  return static_cast<int>(out_.at(id).size());
}

std::vector<std::string> Network::validate() const {
  std::vector<std::string> problems;
  for (BlockId id = 0; id < blocks_.size(); ++id) {
    const Block& b = blocks_[id];
    for (int p = 0; p < b.type->inputCount(); ++p)
      if (!driverOf(id, p))
        problems.push_back("input port '" + b.type->inputName(p) + "' of '" +
                           b.name + "' is not connected");
    if (b.type->blockClass() != BlockClass::kOutput) {
      bool anyOut = false;
      for (int p = 0; p < b.type->outputCount() && !anyOut; ++p)
        anyOut = !fanoutOf(id, p).empty();
      if (!anyOut)
        problems.push_back("block '" + b.name + "' drives nothing");
    }
  }
  if (!isAcyclic())
    problems.push_back("network contains a cycle (eBlock networks must be "
                       "acyclic)");
  return problems;
}

std::optional<BlockId> Network::findBlock(const std::string& instanceName) const {
  for (BlockId id = 0; id < blocks_.size(); ++id)
    if (blocks_[id].name == instanceName) return id;
  return std::nullopt;
}

}  // namespace eblocks
