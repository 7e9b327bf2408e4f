#include "behavior/ast.h"

#include <utility>

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

ExprPtr makeIntLit(std::int64_t v) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kIntLit;
  e->intValue = v;
  return e;
}

ExprPtr makeVarRef(std::string name) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kVarRef;
  e->name = std::move(name);
  return e;
}

ExprPtr makeUnary(UnaryOp op, ExprPtr operand) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kUnary;
  e->uop = op;
  e->lhs = std::move(operand);
  return e;
}

ExprPtr makeBinary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBinary;
  e->bop = op;
  e->lhs = std::move(lhs);
  e->rhs = std::move(rhs);
  return e;
}

StmtPtr makeVarDecl(std::string name, ExprPtr init) {
  auto s = std::make_unique<Stmt>();
  s->kind = StmtKind::kVarDecl;
  s->name = std::move(name);
  s->expr = std::move(init);
  return s;
}

StmtPtr makeAssign(std::string name, ExprPtr value) {
  auto s = std::make_unique<Stmt>();
  s->kind = StmtKind::kAssign;
  s->name = std::move(name);
  s->expr = std::move(value);
  return s;
}

StmtPtr makeIf(ExprPtr cond, std::vector<StmtPtr> thenBody,
               std::vector<StmtPtr> elseBody) {
  auto s = std::make_unique<Stmt>();
  s->kind = StmtKind::kIf;
  s->expr = std::move(cond);
  s->thenBody = std::move(thenBody);
  s->elseBody = std::move(elseBody);
  return s;
}

namespace {

void collectRefs(const Expr& e, std::set<std::string>& out) {
  if (e.kind == ExprKind::kVarRef) out.insert(e.name);
  if (e.lhs) collectRefs(*e.lhs, out);
  if (e.rhs) collectRefs(*e.rhs, out);
}

void collectRefs(const Stmt& s, std::set<std::string>& out) {
  if (s.expr) collectRefs(*s.expr, out);
  for (const StmtPtr& t : s.thenBody) collectRefs(*t, out);
  for (const StmtPtr& t : s.elseBody) collectRefs(*t, out);
}

void collectAssigns(const Stmt& s, std::set<std::string>& out) {
  if (s.kind == StmtKind::kAssign) out.insert(s.name);
  for (const StmtPtr& t : s.thenBody) collectAssigns(*t, out);
  for (const StmtPtr& t : s.elseBody) collectAssigns(*t, out);
}

}  // namespace

std::vector<std::string> declaredVars(const Program& p) {
  std::vector<std::string> out;
  for (const StmtPtr& s : p.statements)
    if (s->kind == StmtKind::kVarDecl) out.push_back(s->name);
  return out;
}

std::set<std::string> referencedNames(const Program& p) {
  std::set<std::string> out;
  for (const StmtPtr& s : p.statements) collectRefs(*s, out);
  return out;
}

std::set<std::string> assignedNames(const Program& p) {
  std::set<std::string> out;
  for (const StmtPtr& s : p.statements) collectAssigns(*s, out);
  return out;
}

}  // namespace eblocks::behavior
