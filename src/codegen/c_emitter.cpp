#include "codegen/c_emitter.h"

#include <cctype>
#include <charconv>
#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace eblocks::codegen {

namespace {

using behavior::BinaryOp;
using behavior::Expr;
using behavior::ExprKind;
using behavior::Stmt;
using behavior::StmtKind;
using behavior::StmtPtr;
using behavior::UnaryOp;

class Emitter {
 public:
  Emitter(const MergedProgram& merged, const CEmitOptions& options)
      : merged_(merged),
        prefix_(options.symbolPrefix),
        macro_(upper(options.symbolPrefix)),
        options_(options) {
    // Each DSL name's C lvalue, resolved once per unit.  Earlier entries
    // win: tick, then state variables, then ports.
    const std::size_t ports =
        static_cast<std::size_t>(merged.inputCount() + merged.outputCount());
    portNames_.reserve(ports);  // the table keys view these: no regrowth
    lvalues_.reserve(1 + merged.program.statements.size() + ports);
    lvalues_.emplace("tick", LValue{LValue::Kind::kTick, 0});
    for (const StmtPtr& s : merged.program.statements)
      if (s->kind == StmtKind::kVarDecl) {
        lvalues_.emplace(s->name, LValue{LValue::Kind::kState, 0});
        hasState_ = true;
      }
    for (int k = 0; k < merged.inputCount(); ++k)
      lvalues_.emplace(portNames_.emplace_back("in" + std::to_string(k)),
                       LValue{LValue::Kind::kInput, k});
    for (int k = 0; k < merged.outputCount(); ++k)
      lvalues_.emplace(portNames_.emplace_back("out" + std::to_string(k)),
                       LValue{LValue::Kind::kOutput, k});
  }

  std::string run() {
    // Table-1 units run to about 400 bytes of boilerplate plus 46 per
    // top-level statement.
    out_.reserve(512 + 64 * merged_.program.statements.size());
    header();
    stateStruct();
    resetFunction();
    evalFunction();
    if (options_.emitMainSkeleton) mainSkeleton();
    if (options_.emitTestHarness) testHarness();
    return std::move(out_);
  }

 private:
  /// What a DSL name denotes in C: `tick`, `st-><name>`, or a port slot.
  struct LValue {
    enum class Kind : std::uint8_t { kTick, kState, kInput, kOutput };
    Kind kind;
    int port;  // kInput / kOutput
  };

  // The whole unit is appended into out_: no string per node or line.
  template <typename... Parts>
  void put(const Parts&... parts) {
    (putOne(parts), ...);
  }
  void putOne(std::string_view s) { out_ += s; }
  void putOne(char c) { out_ += c; }
  template <std::integral Int>
  void putOne(Int v) {
    char digits[24];
    const auto res = std::to_chars(digits, digits + sizeof(digits), v);
    out_.append(digits, res.ptr);
  }

  void cName(const std::string& name) {
    const auto it = lvalues_.find(name);
    if (it == lvalues_.end())
      throw CodegenError("emitC: unknown name '" + name +
                         "' (not a state variable, port, or tick)");
    switch (it->second.kind) {
      case LValue::Kind::kTick: return put("tick");
      case LValue::Kind::kState: return put("st->", name);
      case LValue::Kind::kInput: return put("in[", it->second.port, ']');
      case LValue::Kind::kOutput: return put("out[", it->second.port, ']');
    }
  }

  void expr(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kIntLit:
        return put(e.intValue);
      case ExprKind::kVarRef:
        return cName(e.name);
      case ExprKind::kUnary:
        put(e.uop == UnaryOp::kNot ? "!(" : "-(");
        expr(*e.lhs);
        return put(')');
      case ExprKind::kBinary:
        put('(');
        expr(*e.lhs);
        put(' ', toString(e.bop), ' ');
        expr(*e.rhs);
        return put(')');
    }
    throw CodegenError("emitC: unreachable expression kind");
  }

  void stmt(const Stmt& s, int depth) {
    const auto indent = static_cast<std::size_t>(depth) * 2;
    switch (s.kind) {
      case StmtKind::kVarDecl:
        break;  // handled by reset
      case StmtKind::kAssign:
        out_.append(indent, ' ');
        cName(s.name);
        put(" = ");
        expr(*s.expr);
        put(";\n");
        break;
      case StmtKind::kIf:
        out_.append(indent, ' ');
        put("if (");
        expr(*s.expr);
        put(") {\n");
        for (const StmtPtr& t : s.thenBody) stmt(*t, depth + 1);
        if (!s.elseBody.empty()) {
          out_.append(indent, ' ');
          put("} else {\n");
          for (const StmtPtr& t : s.elseBody) stmt(*t, depth + 1);
        }
        out_.append(indent, ' ');
        put("}\n");
        break;
    }
  }

  void header() {
    put("/* Generated by eblocks-synth: programmable block program.\n",
        " * Merged pre-defined blocks (evaluation order):\n");
    for (BlockId b : merged_.members) put(" *   - block id ", b, '\n');
    put(" * Ports: ", merged_.inputCount(), " input(s), ",
        merged_.outputCount(), " output(s).\n",
        " * Target: any C99 toolchain (paper prototype: PIC16F628).\n */\n",
        "#include <stdint.h>\n\n",
        "#define ", macro_, "_NUM_IN ", merged_.inputCount(), '\n',
        "#define ", macro_, "_NUM_OUT ", merged_.outputCount(), "\n\n");
  }

  void stateStruct() {
    put("typedef struct {\n");
    if (!hasState_) put("  int32_t unused_;\n");
    for (const StmtPtr& s : merged_.program.statements)
      if (s->kind == StmtKind::kVarDecl) put("  int32_t ", s->name, ";\n");
    put("} ", prefix_, "_state_t;\n\n");
  }

  void resetFunction() {
    put("void ", prefix_, "_reset(", prefix_, "_state_t* st) {\n");
    for (const StmtPtr& s : merged_.program.statements)
      if (s->kind == StmtKind::kVarDecl) {
        put("  st->", s->name, " = ");
        expr(*s->expr);
        put(";\n");
      }
    put("}\n\n");
  }

  void evalFunction() {
    put("void ", prefix_, "_eval(", prefix_, "_state_t* st,\n",
        "             const int32_t in[", macro_, "_NUM_IN],\n",
        "             int32_t out[", macro_, "_NUM_OUT],\n",
        "             int32_t tick) {\n");
    if (merged_.inputCount() == 0) put("  (void)in;\n");
    put("  (void)tick;\n");
    for (const StmtPtr& s : merged_.program.statements) stmt(*s, 1);
    put("}\n\n");
  }

  void mainSkeleton() {
    put("#ifdef ", macro_, "_FIRMWARE_MAIN\n",
        "/* Firmware skeleton: wire these to the eBlock serial packet\n",
        " * protocol of the physical platform. */\n",
        "extern int ", prefix_,
        "_rx_packet(int32_t* port, int32_t* value); /* nonzero on RX */\n",
        "extern void ", prefix_, "_tx_packet(int32_t port, int32_t value);\n",
        "extern int ", prefix_,
        "_timer_fired(void); /* nonzero once per tick period */\n\n",
        "int main(void) {\n",
        "  ", prefix_, "_state_t st;\n",
        "  int32_t in[", macro_, "_NUM_IN] = {0};\n",
        "  int32_t out[", macro_, "_NUM_OUT] = {0};\n",
        "  int32_t prev[", macro_, "_NUM_OUT] = {0};\n",
        "  ", prefix_, "_reset(&st);\n",
        "  for (;;) {\n",
        "    int32_t port, value;\n",
        "    int activity = 0;\n",
        "    while (", prefix_, "_rx_packet(&port, &value)) {\n",
        "      in[port] = value;\n      activity = 1;\n    }\n",
        "    int32_t tick = ", prefix_, "_timer_fired() ? 1 : 0;\n",
        "    if (activity || tick) {\n",
        "      if (tick) ", prefix_, "_eval(&st, in, out, 1);\n",
        "      ", prefix_, "_eval(&st, in, out, 0);\n",
        "      for (int32_t k = 0; k < ", macro_, "_NUM_OUT; ++k)\n",
        "        if (out[k] != prev[k]) { prev[k] = out[k]; ", prefix_,
        "_tx_packet(k, out[k]); }\n",
        "    }\n  }\n}\n",
        "#endif /* ", macro_, "_FIRMWARE_MAIN */\n\n");
  }

  void testHarness() {
    put("#ifdef ", macro_, "_TEST_HARNESS\n",
        "/* Reads commands from stdin: 'set <port> <value>', 'tick',\n",
        " * 'eval'; prints outputs after each command.  'setq' sets a\n",
        " * port quietly (no eval, no print) so multi-port updates can\n",
        " * be staged before a single eval -- the lockstep the\n",
        " * differential fuzz harness drives. */\n",
        "#include <stdio.h>\n",
        "#include <string.h>\n\n",
        "int main(void) {\n",
        "  ", prefix_, "_state_t st;\n",
        "  int32_t in[", macro_, "_NUM_IN + 1] = {0};\n",
        "  int32_t out[", macro_, "_NUM_OUT + 1] = {0};\n",
        "  ", prefix_, "_reset(&st);\n",
        "  char cmd[32];\n",
        "  while (scanf(\"%31s\", cmd) == 1) {\n",
        "    if (!strcmp(cmd, \"setq\")) {\n",
        "      int p; int v;\n",
        "      if (scanf(\"%d %d\", &p, &v) != 2) return 1;\n",
        "      in[p] = v;\n",
        "      continue;\n",
        "    } else if (!strcmp(cmd, \"set\")) {\n",
        "      int p; int v;\n",
        "      if (scanf(\"%d %d\", &p, &v) != 2) return 1;\n",
        "      in[p] = v;\n",
        "      ", prefix_, "_eval(&st, in, out, 0);\n",
        "    } else if (!strcmp(cmd, \"tick\")) {\n",
        "      ", prefix_, "_eval(&st, in, out, 1);\n",
        "      ", prefix_, "_eval(&st, in, out, 0);\n",
        "    } else if (!strcmp(cmd, \"eval\")) {\n",
        "      ", prefix_, "_eval(&st, in, out, 0);\n",
        "    } else { return 1; }\n",
        "    for (int k = 0; k < ", macro_, "_NUM_OUT; ++k)\n",
        "      printf(\"%d%c\", (int)out[k], k + 1 == ", macro_,
        "_NUM_OUT ? '\\n' : ' ');\n",
        "    if (", macro_, "_NUM_OUT == 0) printf(\"\\n\");\n",
        "    fflush(stdout);\n",
        "  }\n  return 0;\n}\n",
        "#endif /* ", macro_, "_TEST_HARNESS */\n");
  }

  static std::string upper(std::string s) {
    for (char& c : s)
      c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    return s;
  }

  const MergedProgram& merged_;
  const std::string& prefix_;  // of every emitted symbol
  const std::string macro_;    // the prefix upper-cased, for macros
  const CEmitOptions& options_;
  std::vector<std::string> portNames_;  // "in0".., "out0"..
  std::unordered_map<std::string_view, LValue> lvalues_;
  bool hasState_ = false;
  std::string out_;
};

}  // namespace

std::string emitC(const MergedProgram& merged, const CEmitOptions& options) {
  return Emitter(merged, options).run();
}

}  // namespace eblocks::codegen
