#include "behavior/ast.h"

namespace eblocks::behavior {

const char* toString(UnaryOp op) {
  switch (op) {
    case UnaryOp::kNot: return "!";
    case UnaryOp::kNeg: return "-";
  }
  return "?";
}

const char* toString(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
    case BinaryOp::kMul: return "*";
    case BinaryOp::kDiv: return "/";
    case BinaryOp::kMod: return "%";
    case BinaryOp::kEq: return "==";
    case BinaryOp::kNe: return "!=";
    case BinaryOp::kLt: return "<";
    case BinaryOp::kLe: return "<=";
    case BinaryOp::kGt: return ">";
    case BinaryOp::kGe: return ">=";
    case BinaryOp::kAnd: return "&&";
    case BinaryOp::kOr: return "||";
  }
  return "?";
}

Index findSlot(const Program& p, std::string_view name) {
  for (std::size_t s = 0; s < p.names.size(); ++s)
    if (p.names[s] == name) return static_cast<Index>(s);
  return kNone;
}

Index appendCopy(Program& dst, const Program& src,
                 std::span<const Index> slotMap) {
  const Index base = static_cast<Index>(dst.nodes.size());
  const auto shift = [base](Index i) { return i == kNone ? kNone : i + base; };
  for (Node n : src.nodes) {
    if (n.slot != kNone) n.slot = slotMap[static_cast<std::size_t>(n.slot)];
    n.lhs = shift(n.lhs);
    n.rhs = shift(n.rhs);
    n.then = shift(n.then);
    n.orElse = shift(n.orElse);
    n.next = shift(n.next);
    dst.nodes.push_back(n);
  }
  return base;
}

NameTable bindNames(const Program& p, const std::vector<std::string>& inputs,
                    const std::vector<std::string>& outputs) {
  NameTable table(p.names.size());
  for (std::size_t s = 0; s < p.names.size(); ++s) {
    for (std::size_t i = 0; i < inputs.size(); ++i)
      if (inputs[i] == p.names[s])
        table[s] = {NameBinding::Kind::kInput, static_cast<int>(i)};
    for (std::size_t i = 0; i < outputs.size(); ++i)
      if (outputs[i] == p.names[s])
        table[s] = {NameBinding::Kind::kOutput, static_cast<int>(i)};
  }
  int ordinal = 0;
  for (const Index s : p.top) {
    const Node& n = p.nodes[static_cast<std::size_t>(s)];
    if (n.kind != NodeKind::kVarDecl) continue;
    NameBinding& nb = table[static_cast<std::size_t>(n.slot)];
    if (nb.kind == NameBinding::Kind::kLocal && nb.stateOrdinal < 0)
      nb.stateOrdinal = ordinal++;
  }
  // The builtin is shared by every member of a merge and never renamed;
  // a port called `tick` is a port, a `var tick` keeps its ordinal.
  for (std::size_t s = 0; s < p.names.size(); ++s)
    if (p.names[s] == "tick" && table[s].kind == NameBinding::Kind::kLocal)
      table[s].kind = NameBinding::Kind::kTick;
  return table;
}

}  // namespace eblocks::behavior
