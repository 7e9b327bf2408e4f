#include "behavior/interpreter.h"

namespace eblocks::behavior {

std::int64_t Environment::get(const std::string& name) const {
  const auto it = vars_.find(name);
  if (it == vars_.end()) throw EvalError("unbound variable: " + name);
  return it->second;
}

void Environment::set(const std::string& name, std::int64_t value) {
  vars_[name] = value;
}

std::int64_t evaluate(const Program& p, Index e, const Environment& env) {
  const Node& n = p.nodes[static_cast<std::size_t>(e)];
  switch (n.kind) {
    case NodeKind::kIntLit:
      return n.value;
    case NodeKind::kVarRef:
      return env.get(p.names[static_cast<std::size_t>(n.slot)]);
    case NodeKind::kUnary: {
      const std::int64_t v = evaluate(p, n.lhs, env);
      return n.uop == UnaryOp::kNot ? (v == 0 ? 1 : 0) : -v;
    }
    case NodeKind::kBinary: {
      // Short-circuit for logical operators.
      if (n.bop == BinaryOp::kAnd) {
        if (evaluate(p, n.lhs, env) == 0) return 0;
        return evaluate(p, n.rhs, env) != 0 ? 1 : 0;
      }
      if (n.bop == BinaryOp::kOr) {
        if (evaluate(p, n.lhs, env) != 0) return 1;
        return evaluate(p, n.rhs, env) != 0 ? 1 : 0;
      }
      const std::int64_t a = evaluate(p, n.lhs, env);
      const std::int64_t b = evaluate(p, n.rhs, env);
      switch (n.bop) {
        case BinaryOp::kAdd: return a + b;
        case BinaryOp::kSub: return a - b;
        case BinaryOp::kMul: return a * b;
        case BinaryOp::kDiv:
          if (b == 0) throw EvalError("division by zero");
          return a / b;
        case BinaryOp::kMod:
          if (b == 0) throw EvalError("modulo by zero");
          return a % b;
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

void executeStmt(const Program& p, const Node& n, Environment& env) {
  if (n.kind == NodeKind::kAssign) {
    env.set(p.names[static_cast<std::size_t>(n.slot)],
            evaluate(p, n.lhs, env));
  } else if (n.kind == NodeKind::kIf) {
    for (Index s = evaluate(p, n.lhs, env) != 0 ? n.then : n.orElse;
         s != kNone; s = p.nodes[static_cast<std::size_t>(s)].next)
      executeStmt(p, p.nodes[static_cast<std::size_t>(s)], env);
  }
  // kVarDecl: state persists between activations
}

}  // namespace

void execute(const Program& p, Environment& env) {
  for (const Index s : p.top)
    executeStmt(p, p.nodes[static_cast<std::size_t>(s)], env);
}

void initializeState(const Program& p, Environment& env) {
  for (const Index s : p.top) {
    const Node& n = p.nodes[static_cast<std::size_t>(s)];
    if (n.kind == NodeKind::kVarDecl)
      env.set(p.names[static_cast<std::size_t>(n.slot)],
              evaluate(p, n.lhs, env));
  }
}

}  // namespace eblocks::behavior
