// Variable renaming over behavior ASTs.
//
// Code generation merges many block programs into one; "in the event that
// two or more blocks share variable names in their internal behavior code,
// the conflict is resolved through variable renaming" (Section 3.3).  The
// same machinery rewires a block's port names to the merged program's
// internal wire variables, and gives the solution cache its canonical,
// spelling-independent form of a behavior.
//
// A block type's program is parsed once and shared (core/block.h), so a
// rename never edits a tree in place: it copies the shared tree and
// rewrites names in the same pass.  What each name means is resolved once
// per type, into a NameTable, so a rename looks a name up instead of
// rebuilding string maps per use.
#ifndef EBLOCKS_BEHAVIOR_RENAME_H_
#define EBLOCKS_BEHAVIOR_RENAME_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "behavior/ast.h"

namespace eblocks::behavior {

/// What one name of a program denotes, relative to its block's ports.
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

using NameTable = std::unordered_map<std::string, NameBinding>;

/// Binds every name `p` declares, assigns or reads.  A name shared by an
/// input and an output binds to the output, a name shared by two ports
/// to the later one, and a port name wins over a `var` of the same name.
NameTable bindNames(const Program& p, const std::vector<std::string>& inputs,
                    const std::vector<std::string>& outputs);

namespace detail {

template <typename Rename>
ExprPtr renamedCopy(const Expr& e, Rename& rename) {
  auto out = std::make_unique<Expr>();
  out->kind = e.kind;
  out->intValue = e.intValue;
  if (e.kind == ExprKind::kVarRef) out->name = rename(e.name);
  out->uop = e.uop;
  out->bop = e.bop;
  if (e.lhs) out->lhs = renamedCopy(*e.lhs, rename);
  if (e.rhs) out->rhs = renamedCopy(*e.rhs, rename);
  return out;
}

template <typename Rename>
StmtPtr renamedCopy(const Stmt& s, Rename& rename) {
  auto out = std::make_unique<Stmt>();
  out->kind = s.kind;
  if (s.kind != StmtKind::kIf) out->name = rename(s.name);
  if (s.expr) out->expr = renamedCopy(*s.expr, rename);
  out->thenBody.reserve(s.thenBody.size());
  for (const StmtPtr& t : s.thenBody)
    out->thenBody.push_back(renamedCopy(*t, rename));
  out->elseBody.reserve(s.elseBody.size());
  for (const StmtPtr& t : s.elseBody)
    out->elseBody.push_back(renamedCopy(*t, rename));
  return out;
}

}  // namespace detail

/// A deep copy of `p` in which every variable reference, assignment target
/// and declaration named n is named rename(n) instead.  `rename` is called
/// once per occurrence, on the original name, so renames never chain.
template <typename Rename>
Program renamedCopy(const Program& p, Rename&& rename) {
  Program out;
  out.statements.reserve(p.statements.size());
  for (const StmtPtr& s : p.statements)
    out.statements.push_back(detail::renamedCopy(*s, rename));
  return out;
}

}  // namespace eblocks::behavior

#endif  // EBLOCKS_BEHAVIOR_RENAME_H_
