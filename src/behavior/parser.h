// Recursive-descent parser for the behavior DSL.
//
// Grammar (C-like precedence):
//   program   := stmt*
//   stmt      := 'var' IDENT '=' expr ';'
//              | IDENT '=' expr ';'
//              | 'if' '(' expr ')' block ('else' (block | if-stmt))?
//   block     := '{' stmt* '}'
//   expr      := or
//   or        := and ('||' and)*
//   and       := equality ('&&' equality)*
//   equality  := rel (('=='|'!=') rel)*
//   rel       := add (('<'|'<='|'>'|'>=') add)*
//   add       := mul (('+'|'-') mul)*
//   mul       := unary (('*'|'/'|'%') unary)*
//   unary     := ('!'|'-') unary | primary
//   primary   := INT | 'true' | 'false' | IDENT | '(' expr ')'
//
// The parser builds the flat form of behavior/ast.h: each name becomes a
// slot when first seen, and a node is appended after its children.
//
// Nesting is bounded, so that neither the parser nor any later recursive
// walk over a program's nodes (printer, C emitter, interpreter, batch
// simulator) can exhaust the stack on hostile input.  Every
// statement, `if` body level, unary or binary operator, operand, and
// parenthesized group is one level;
// `a + b + c` nests one level per operator, and an else-if one level per
// `else`.  Parentheses directly around an operator are part of that
// operator's level, which is exactly how the printer parenthesizes, so a
// printed program is never deeper than the text it was parsed from.
#ifndef EBLOCKS_BEHAVIOR_PARSER_H_
#define EBLOCKS_BEHAVIOR_PARSER_H_

#include <stdexcept>
#include <string>
#include <string_view>

#include "behavior/ast.h"

namespace eblocks::behavior {

/// The deepest nesting a program may have; deeper programs throw
/// ParseError.  `out = a;` is 2 levels deep (statement, operand); the
/// catalog's deepest behavior is 5.
inline constexpr int kMaxNestingDepth = 256;

/// Thrown on syntactically invalid programs.
class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& what, int line, int column);
  int line() const { return line_; }
  int column() const { return column_; }

 private:
  int line_, column_;
};

/// Parses a full behavior program.  Throws LexError / ParseError.
Program parse(std::string_view source);

/// Parses a single expression (useful in tests): a program with no
/// statements whose last node is the expression.
Program parseExpression(std::string_view source);

}  // namespace eblocks::behavior

#endif  // EBLOCKS_BEHAVIOR_PARSER_H_
