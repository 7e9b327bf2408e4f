// Interpreter for behavior programs, walking their nodes.
//
// The simulator evaluates a block's program on every activation; the same
// interpreter evaluates merged programmable-block programs, which is how we
// validate code generation ("the simulator's interpreter evaluates the
// tree in the same manner as a non-programmable block", Section 3.3).
// Variables are kept by slot: the caller holds one value per slot of the
// program.  Both simulators zero them at reset, so a name the program
// has not written yet reads 0.
#ifndef EBLOCKS_BEHAVIOR_INTERPRETER_H_
#define EBLOCKS_BEHAVIOR_INTERPRETER_H_

#include <cstdint>
#include <span>
#include <stdexcept>

#include "behavior/ast.h"

namespace eblocks::behavior {

/// Thrown on runtime faults: division or modulo by zero, and the one
/// quotient that overflows (INT64_MIN / -1, and INT64_MIN % -1).
class EvalError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Evaluates the expression at node `e` of `p`; `vars` holds one value per
/// slot of `p`.
std::int64_t evaluate(const Program& p, Index e,
                      std::span<const std::int64_t> vars);

/// Runs every non-declaration statement top to bottom.  Declarations are
/// skipped: persistent state is initialized once via initializeState().
void execute(const Program& p, std::span<std::int64_t> vars);

/// Runs the `var` declarations only (reset semantics): evaluates each
/// initializer and writes the variable.
void initializeState(const Program& p, std::span<std::int64_t> vars);

}  // namespace eblocks::behavior

#endif  // EBLOCKS_BEHAVIOR_INTERPRETER_H_
