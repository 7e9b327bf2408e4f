#include "behavior/interpreter.h"

#include <limits>

namespace eblocks::behavior {

std::int64_t evaluate(const Program& p, Index e,
                      std::span<const std::int64_t> vars) {
  const Node& n = p.nodes[static_cast<std::size_t>(e)];
  switch (n.kind) {
    case NodeKind::kIntLit:
      return n.value;
    case NodeKind::kVarRef:
      return vars[static_cast<std::size_t>(n.slot)];
    case NodeKind::kUnary: {
      const std::int64_t v = evaluate(p, n.lhs, vars);
      return n.uop == UnaryOp::kNot ? (v == 0 ? 1 : 0) : -v;
    }
    case NodeKind::kBinary: {
      // Short-circuit for logical operators.
      if (n.bop == BinaryOp::kAnd) {
        if (evaluate(p, n.lhs, vars) == 0) return 0;
        return evaluate(p, n.rhs, vars) != 0 ? 1 : 0;
      }
      if (n.bop == BinaryOp::kOr) {
        if (evaluate(p, n.lhs, vars) != 0) return 1;
        return evaluate(p, n.rhs, vars) != 0 ? 1 : 0;
      }
      const std::int64_t a = evaluate(p, n.lhs, vars);
      const std::int64_t b = evaluate(p, n.rhs, vars);
      switch (n.bop) {
        case BinaryOp::kAdd: return a + b;
        case BinaryOp::kSub: return a - b;
        case BinaryOp::kMul: return a * b;
        case BinaryOp::kDiv:
        case BinaryOp::kMod:
          if (b == 0)
            throw EvalError(n.bop == BinaryOp::kDiv ? "division by zero"
                                                    : "modulo by zero");
          if (a == std::numeric_limits<std::int64_t>::min() && b == -1)
            throw EvalError("division overflow");
          return n.bop == BinaryOp::kDiv ? a / b : a % b;
        case BinaryOp::kEq: return a == b;
        case BinaryOp::kNe: return a != b;
        case BinaryOp::kLt: return a < b;
        case BinaryOp::kLe: return a <= b;
        case BinaryOp::kGt: return a > b;
        case BinaryOp::kGe: return a >= b;
        case BinaryOp::kAnd:
        case BinaryOp::kOr: break;  // handled above
      }
      throw EvalError("unreachable binary operator");
    }
    default:
      break;
  }
  throw EvalError("unreachable expression kind");
}

namespace {

void executeStmt(const Program& p, const Node& n,
                 std::span<std::int64_t> vars) {
  if (n.kind == NodeKind::kAssign) {
    vars[static_cast<std::size_t>(n.slot)] = evaluate(p, n.lhs, vars);
  } else if (n.kind == NodeKind::kIf) {
    for (Index s = evaluate(p, n.lhs, vars) != 0 ? n.then : n.orElse;
         s != kNone; s = p.nodes[static_cast<std::size_t>(s)].next)
      executeStmt(p, p.nodes[static_cast<std::size_t>(s)], vars);
  }
  // kVarDecl: state persists between activations
}

}  // namespace

void execute(const Program& p, std::span<std::int64_t> vars) {
  for (const Index s : p.top)
    executeStmt(p, p.nodes[static_cast<std::size_t>(s)], vars);
}

void initializeState(const Program& p, std::span<std::int64_t> vars) {
  for (const Index s : p.top) {
    const Node& n = p.nodes[static_cast<std::size_t>(s)];
    if (n.kind == NodeKind::kVarDecl)
      vars[static_cast<std::size_t>(n.slot)] = evaluate(p, n.lhs, vars);
  }
}

}  // namespace eblocks::behavior
