#include "mapping/topology.h"

#include <stdexcept>

namespace eblocks::mapping {

PhysId Topology::addNode(std::string nodeName, int inputs, int outputs) {
  if (inputs < 0 || outputs < 0)
    throw std::invalid_argument("Topology::addNode: negative port count");
  for (const PhysicalNode& n : nodes_)
    if (n.name == nodeName)
      throw std::invalid_argument("Topology::addNode: duplicate name " +
                                  nodeName);
  const PhysId id = static_cast<PhysId>(nodes_.size());
  nodes_.push_back(PhysicalNode{std::move(nodeName), inputs, outputs});
  outLinks_.emplace_back();
  inLinks_.emplace_back();
  return id;
}

void Topology::addLink(PhysId from, PhysId to) {
  if (from >= nodes_.size() || to >= nodes_.size())
    throw std::invalid_argument("Topology::addLink: node id out of range");
  if (from == to)
    throw std::invalid_argument("Topology::addLink: self link");
  outLinks_[from].push_back(links_.size());
  inLinks_[to].push_back(links_.size());
  links_.push_back(PhysicalLink{from, to});
}

void Topology::addDuplexLink(PhysId a, PhysId b) {
  addLink(a, b);
  addLink(b, a);
}

std::optional<PhysId> Topology::findNode(const std::string& nodeName) const {
  for (PhysId id = 0; id < nodes_.size(); ++id)
    if (nodes_[id].name == nodeName) return id;
  return std::nullopt;
}

Topology Topology::line(int n, int inputs, int outputs) {
  Topology t("line" + std::to_string(n));
  for (int i = 0; i < n; ++i)
    t.addNode(std::string("n").append(std::to_string(i)), inputs, outputs);
  for (int i = 0; i + 1 < n; ++i)
    t.addDuplexLink(static_cast<PhysId>(i), static_cast<PhysId>(i + 1));
  return t;
}

Topology Topology::ring(int n, int inputs, int outputs) {
  Topology t = line(n, inputs, outputs);
  if (n > 2)
    t.addDuplexLink(static_cast<PhysId>(n - 1), 0);
  return t;
}

Topology Topology::grid(int rows, int cols, int inputs, int outputs) {
  Topology t("grid" + std::to_string(rows) + "x" + std::to_string(cols));
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c)
      t.addNode(std::string("n").append(std::to_string(r)).append("_").append(
                    std::to_string(c)),
                inputs, outputs);
  const auto id = [cols](int r, int c) {
    return static_cast<PhysId>(r * cols + c);
  };
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c) {
      if (c + 1 < cols) t.addDuplexLink(id(r, c), id(r, c + 1));
      if (r + 1 < rows) t.addDuplexLink(id(r, c), id(r + 1, c));
    }
  return t;
}

}  // namespace eblocks::mapping
