// Behavior programs in one flat, slot-resolved form.
//
// A behavior program is a list of statements evaluated top-to-bottom on
// every block activation (arrival of an input packet or a timer tick).
//   - `var name = <const-expr>;` declares a persistent state variable,
//     initialized once at reset and retained between activations.
//   - assignments write state variables or output ports;
//   - reads reference input ports, state variables, or the builtin `tick`
//     (1 when the activation is a timer tick).
//
// Every expression and statement is one Node of Program::nodes, and a node
// names its children by index.  Every name is a *slot*: an index into
// Program::names, which holds each distinct name once, so a consumer
// resolves a name once per slot rather than once per occurrence.  A node's
// children precede it, so an expression's root is the last of its nodes.
// The statements of an `if` body are chained through Node::next; the top
// level is the list Program::top.
//
// The code generator (src/codegen) merges the programs of all blocks in a
// partition by copying their nodes in level order, with node indices
// offset and every slot mapped to a slot of the merged program (the
// "variable renaming" of Section 3.3).
#ifndef EBLOCKS_BEHAVIOR_AST_H_
#define EBLOCKS_BEHAVIOR_AST_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace eblocks::behavior {

enum class UnaryOp : std::uint8_t { kNot, kNeg };

enum class BinaryOp : std::uint8_t {
  kAdd, kSub, kMul, kDiv, kMod,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
};

const char* toString(UnaryOp op);
const char* toString(BinaryOp op);

/// A node index or a slot.
using Index = std::int32_t;
inline constexpr Index kNone = -1;

enum class NodeKind : std::uint8_t {
  kIntLit, kVarRef, kUnary, kBinary,  // expressions
  kVarDecl, kAssign, kIf,             // statements
};

struct Node {
  NodeKind kind = NodeKind::kIntLit;
  UnaryOp uop = UnaryOp::kNot;    ///< kUnary
  BinaryOp bop = BinaryOp::kAdd;  ///< kBinary
  Index slot = kNone;  ///< kVarRef: the name read; kVarDecl, kAssign: written
  /// kUnary operand, kBinary left operand; the expression of a statement
  /// (declaration initializer, assigned value, `if` condition).
  Index lhs = kNone;
  Index rhs = kNone;     ///< kBinary right operand
  Index then = kNone;    ///< kIf: first statement of the then body
  Index orElse = kNone;  ///< kIf: first statement of the else body
  Index next = kNone;    ///< a statement of an `if` body: the one after it
  std::int64_t value = 0;  ///< kIntLit
};

struct Program {
  std::vector<Node> nodes;
  std::vector<std::string> names;  ///< slot -> name, each name once
  std::vector<Index> top;          ///< top-level statements, in order

  Program() = default;
  Program(Program&&) = default;
  Program& operator=(Program&&) = default;
  Program(const Program&) = delete;
  Program& operator=(const Program&) = delete;

  /// Appends `n`; returns its index.
  Index add(const Node& n) {
    nodes.push_back(n);
    return static_cast<Index>(nodes.size()) - 1;
  }
  /// Appends a slot named `name`; returns it.
  Index addName(std::string name) {
    names.push_back(std::move(name));
    return static_cast<Index>(names.size()) - 1;
  }
};

/// The slot of `p` named `name`, or kNone (a linear scan).
Index findSlot(const Program& p, std::string_view name);

/// Appends a copy of `src`'s nodes to `dst`, with every slot s of `src`
/// replaced by slotMap[s], a slot of `dst`.  Returns the offset added to
/// `src`'s node indices; `dst.top` is left to the caller.
Index appendCopy(Program& dst, const Program& src,
                 std::span<const Index> slotMap);

/// What one slot of a block's program denotes, relative to its ports.
struct NameBinding {
  enum class Kind : std::uint8_t {
    kInput,   ///< input port `port`
    kOutput,  ///< output port `port`
    kTick,    ///< the builtin `tick` (when no port is named `tick`)
    kLocal,   ///< state or any other block-local name
  };
  Kind kind = Kind::kLocal;
  int port = -1;          ///< kInput / kOutput: the port number
  int stateOrdinal = -1;  ///< `var` declaration ordinal among non-port names
};

/// One binding per slot.
using NameTable = std::vector<NameBinding>;

/// Binds every slot of `p`.  A name shared by an input and an output binds
/// to the output, a name shared by two ports to the later one, and a port
/// name wins over a `var` of the same name.
NameTable bindNames(const Program& p, const std::vector<std::string>& inputs,
                    const std::vector<std::string>& outputs);

}  // namespace eblocks::behavior

#endif  // EBLOCKS_BEHAVIOR_AST_H_
