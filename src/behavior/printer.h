// Pretty-printer: program -> DSL source.  Round-trips through the parser,
// which the tests rely on, and renders merged programs for humans and
// goldens.
#ifndef EBLOCKS_BEHAVIOR_PRINTER_H_
#define EBLOCKS_BEHAVIOR_PRINTER_H_

#include <string>
#include <vector>

#include "behavior/ast.h"

namespace eblocks::behavior {

/// Renders a whole program: one top-level statement per line, if/else
/// bodies indented by two spaces per level, compound operands
/// parenthesized and atoms bare.
std::string toSource(const Program& p);

/// Renders `p` with slot s spelled names[s] instead of p.names[s].
std::string toSource(const Program& p, const std::vector<std::string>& names);

}  // namespace eblocks::behavior

#endif  // EBLOCKS_BEHAVIOR_PRINTER_H_
