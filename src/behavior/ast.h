// Abstract syntax trees for block behaviors.
//
// A behavior program is a list of statements evaluated top-to-bottom on
// every block activation (arrival of an input packet or a timer tick).
//   - `var name = <const-expr>;` declares a persistent state variable,
//     initialized once at reset and retained between activations.
//   - assignments write state variables or output ports;
//   - reads reference input ports, state variables, or the builtin `tick`
//     (1 when the activation is a timer tick).
//
// The code generator (src/codegen) merges programs of all blocks in a
// partition by concatenating their statement lists in level order after
// variable renaming, exactly as Section 3.3 describes.
#ifndef EBLOCKS_BEHAVIOR_AST_H_
#define EBLOCKS_BEHAVIOR_AST_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

namespace eblocks::behavior {

// --- expressions -----------------------------------------------------------

enum class ExprKind : std::uint8_t { kIntLit, kVarRef, kUnary, kBinary };

enum class UnaryOp : std::uint8_t { kNot, kNeg };

enum class BinaryOp : std::uint8_t {
  kAdd, kSub, kMul, kDiv, kMod,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
};

const char* toString(UnaryOp op);
const char* toString(BinaryOp op);

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
  ExprKind kind;
  std::int64_t intValue = 0;  // kIntLit
  std::string name;           // kVarRef
  UnaryOp uop = UnaryOp::kNot;
  BinaryOp bop = BinaryOp::kAdd;
  ExprPtr lhs;  // kUnary operand / kBinary left
  ExprPtr rhs;  // kBinary right
};

ExprPtr makeIntLit(std::int64_t v);
ExprPtr makeVarRef(std::string name);
ExprPtr makeUnary(UnaryOp op, ExprPtr operand);
ExprPtr makeBinary(BinaryOp op, ExprPtr lhs, ExprPtr rhs);

// --- statements --------------------------------------------------------------

enum class StmtKind : std::uint8_t { kVarDecl, kAssign, kIf };

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

struct Stmt {
  StmtKind kind;
  std::string name;  // kVarDecl/kAssign: target variable
  ExprPtr expr;      // kVarDecl init / kAssign rhs / kIf condition
  std::vector<StmtPtr> thenBody;  // kIf
  std::vector<StmtPtr> elseBody;  // kIf
};

StmtPtr makeVarDecl(std::string name, ExprPtr init);
StmtPtr makeAssign(std::string name, ExprPtr value);
StmtPtr makeIf(ExprPtr cond, std::vector<StmtPtr> thenBody,
               std::vector<StmtPtr> elseBody = {});

// --- programs ----------------------------------------------------------------

struct Program {
  std::vector<StmtPtr> statements;

  Program() = default;
  Program(Program&&) = default;
  Program& operator=(Program&&) = default;
  Program(const Program&) = delete;
  Program& operator=(const Program&) = delete;
};

/// Names of variables declared with `var` in program order.
std::vector<std::string> declaredVars(const Program& p);

/// Every name referenced (read) anywhere in the program.
std::set<std::string> referencedNames(const Program& p);

/// Every name assigned (written) anywhere in the program, excluding
/// declarations.
std::set<std::string> assignedNames(const Program& p);

}  // namespace eblocks::behavior

#endif  // EBLOCKS_BEHAVIOR_AST_H_
