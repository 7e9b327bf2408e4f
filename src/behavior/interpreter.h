// Interpreter for behavior programs, walking their nodes.
//
// The simulator evaluates a block's program on every activation; the same
// interpreter evaluates merged programmable-block programs, which is how we
// validate code generation ("the simulator's interpreter evaluates the
// tree in the same manner as a non-programmable block", Section 3.3).
// Variables are kept by name: a slot reads and writes p.names[slot].
#ifndef EBLOCKS_BEHAVIOR_INTERPRETER_H_
#define EBLOCKS_BEHAVIOR_INTERPRETER_H_

#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "behavior/ast.h"

namespace eblocks::behavior {

/// Thrown on runtime faults: unbound names, division by zero.
class EvalError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Variable store shared between activations of one block instance.
class Environment {
 public:
  /// Reads `name`; throws EvalError if unbound.
  std::int64_t get(const std::string& name) const;

  /// Binds or overwrites `name`.
  void set(const std::string& name, std::int64_t value);

  bool has(const std::string& name) const { return vars_.contains(name); }

  const std::unordered_map<std::string, std::int64_t>& values() const {
    return vars_;
  }

 private:
  std::unordered_map<std::string, std::int64_t> vars_;
};

/// Evaluates the expression at node `e` of `p` in `env`.
std::int64_t evaluate(const Program& p, Index e, const Environment& env);

/// Runs every non-declaration statement top to bottom.  Declarations are
/// skipped: persistent state is initialized once via initializeState().
void execute(const Program& p, Environment& env);

/// Runs the `var` declarations only (reset semantics): evaluates each
/// initializer and binds the variable.
void initializeState(const Program& p, Environment& env);

}  // namespace eblocks::behavior

#endif  // EBLOCKS_BEHAVIOR_INTERPRETER_H_
