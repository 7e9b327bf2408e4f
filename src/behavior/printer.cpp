#include "behavior/printer.h"

#include <charconv>

namespace eblocks::behavior {

namespace {

// Appends into one caller-owned buffer: no string per node.
class Printer {
 public:
  Printer(const Program& p, const std::vector<std::string>& names,
          std::string& out)
      : p_(p), names_(names), out_(out) {}

  void stmt(Index s, int indent) {
    const Node& n = node(s);
    out_.append(static_cast<std::size_t>(indent) * 2, ' ');
    switch (n.kind) {
      case NodeKind::kVarDecl:
        out_ += "var ";
        [[fallthrough]];
      case NodeKind::kAssign:
        out_ += name(n.slot);
        out_ += " = ";
        expr(n.lhs);
        out_ += ';';
        return;
      case NodeKind::kIf:
        out_ += "if (";
        expr(n.lhs);
        out_ += ") {\n";
        body(n.then, indent);
        if (n.orElse != kNone) {
          out_ += " else {\n";
          body(n.orElse, indent);
        }
        return;
      default:
        break;
    }
    out_ += '?';
  }

 private:
  const Node& node(Index i) const {
    return p_.nodes[static_cast<std::size_t>(i)];
  }
  const std::string& name(Index slot) const {
    return names_[static_cast<std::size_t>(slot)];
  }

  void expr(Index e) {
    const Node& n = node(e);
    switch (n.kind) {
      case NodeKind::kIntLit: {
        char digits[24];
        const auto res =
            std::to_chars(digits, digits + sizeof(digits), n.value);
        out_.append(digits, res.ptr);
        return;
      }
      case NodeKind::kVarRef:
        out_ += name(n.slot);
        return;
      case NodeKind::kUnary:
        out_ += toString(n.uop);
        operand(n.lhs);
        return;
      case NodeKind::kBinary:
        operand(n.lhs);
        out_ += ' ';
        out_ += toString(n.bop);
        out_ += ' ';
        operand(n.rhs);
        return;
      default:
        break;
    }
    out_ += '?';
  }

  /// An operand: atoms bare, compound subexpressions parenthesized.
  void operand(Index e) {
    const NodeKind k = node(e).kind;
    if (k == NodeKind::kIntLit || k == NodeKind::kVarRef) return expr(e);
    out_ += '(';
    expr(e);
    out_ += ')';
  }

  /// An `if` body: one statement per line, then the closing brace.
  void body(Index first, int indent) {
    for (Index s = first; s != kNone; s = node(s).next) {
      stmt(s, indent + 1);
      out_ += '\n';
    }
    out_.append(static_cast<std::size_t>(indent) * 2, ' ');
    out_ += '}';
  }

  const Program& p_;
  const std::vector<std::string>& names_;
  std::string& out_;
};

}  // namespace

std::string toSource(const Program& p) { return toSource(p, p.names); }

std::string toSource(const Program& p, const std::vector<std::string>& names) {
  std::string out;
  // Merged Table-1 programs print at 31 bytes per top-level statement on
  // average, 37 at most.
  out.reserve(40 * p.top.size());
  Printer printer(p, names, out);
  for (const Index s : p.top) {
    printer.stmt(s, 0);
    out += '\n';
  }
  return out;
}

}  // namespace eblocks::behavior
