#include "codegen/c_emitter.h"

#include <cctype>
#include <charconv>
#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace eblocks::codegen {

namespace {

using behavior::Index;
using behavior::kNone;
using behavior::Node;
using behavior::NodeKind;
using behavior::UnaryOp;

/// k when `name` is `stem` followed by k in [0, count), spelled the way
/// std::to_string spells it; otherwise -1.
int portNumber(std::string_view name, std::string_view stem, int count) {
  if (!name.starts_with(stem)) return -1;
  name.remove_prefix(stem.size());
  int k = -1;
  const auto [end, ec] =
      std::from_chars(name.data(), name.data() + name.size(), k);
  if (ec != std::errc{} || end != name.data() + name.size() || k < 0 ||
      k >= count || (name.size() > 1 && name.front() == '0'))
    return -1;
  return k;
}

class Emitter {
 public:
  Emitter(const MergedProgram& merged, const CEmitOptions& options)
      : merged_(merged),
        program_(merged.program),
        prefix_(options.symbolPrefix),
        macro_(upper(options.symbolPrefix)),
        options_(options) {
    // Each slot's C lvalue, resolved once per unit: tick first, then
    // state variables, then the ports in<k> and out<k>.
    lvalues_.assign(program_.names.size(), LValue{});
    for (const Index s : program_.top)
      if (node(s).kind == NodeKind::kVarDecl) {
        lvalues_[static_cast<std::size_t>(node(s).slot)].kind =
            LValue::Kind::kState;
        hasState_ = true;
      }
    for (std::size_t s = 0; s < lvalues_.size(); ++s) {
      const std::string& name = program_.names[s];
      LValue& lv = lvalues_[s];
      if (name == "tick") {
        lv.kind = LValue::Kind::kTick;
      } else if (lv.kind == LValue::Kind::kUnknown) {
        const int in = portNumber(name, "in", merged.inputCount());
        const int out = portNumber(name, "out", merged.outputCount());
        if (in >= 0) lv = {LValue::Kind::kInput, in};
        if (out >= 0) lv = {LValue::Kind::kOutput, out};
      }
    }
  }

  std::string run() {
    // Table-1 units run to about 400 bytes of boilerplate plus 46 per
    // top-level statement.
    out_.reserve(512 + 64 * program_.top.size());
    header();
    stateStruct();
    resetFunction();
    evalFunction();
    if (options_.emitMainSkeleton) mainSkeleton();
    if (options_.emitTestHarness) testHarness();
    return std::move(out_);
  }

 private:
  /// What a slot denotes in C: `tick`, `st-><name>`, or a port.
  struct LValue {
    enum class Kind : std::uint8_t { kUnknown, kTick, kState, kInput, kOutput };
    Kind kind = Kind::kUnknown;
    int port = -1;  // kInput / kOutput
  };

  const Node& node(Index i) const {
    return program_.nodes[static_cast<std::size_t>(i)];
  }
  const std::string& name(Index slot) const {
    return program_.names[static_cast<std::size_t>(slot)];
  }

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

  void cName(Index slot) {
    const LValue& lv = lvalues_[static_cast<std::size_t>(slot)];
    switch (lv.kind) {
      case LValue::Kind::kUnknown: break;
      case LValue::Kind::kTick: return put("tick");
      case LValue::Kind::kState: return put("st->", name(slot));
      case LValue::Kind::kInput: return put("in[", lv.port, ']');
      case LValue::Kind::kOutput: return put("out[", lv.port, ']');
    }
    throw CodegenError("emitC: unknown name '" + name(slot) +
                       "' (not a state variable, port, or tick)");
  }

  void expr(Index e) {
    const Node& n = node(e);
    switch (n.kind) {
      case NodeKind::kIntLit:
        return put(n.value);
      case NodeKind::kVarRef:
        return cName(n.slot);
      case NodeKind::kUnary:
        put(n.uop == UnaryOp::kNot ? "!(" : "-(");
        expr(n.lhs);
        return put(')');
      case NodeKind::kBinary:
        put('(');
        expr(n.lhs);
        put(' ', toString(n.bop), ' ');
        expr(n.rhs);
        return put(')');
      default:
        break;
    }
    throw CodegenError("emitC: unreachable expression kind");
  }

  /// Statement `s` and, inside an `if` body, the ones chained after it.
  void stmts(Index s, int depth) {
    const auto indent = static_cast<std::size_t>(depth) * 2;
    for (; s != kNone; s = node(s).next) {
      const Node& n = node(s);
      if (n.kind == NodeKind::kAssign) {
        out_.append(indent, ' ');
        cName(n.slot);
        put(" = ");
        expr(n.lhs);
        put(";\n");
      } else if (n.kind == NodeKind::kIf) {
        out_.append(indent, ' ');
        put("if (");
        expr(n.lhs);
        put(") {\n");
        stmts(n.then, depth + 1);
        if (n.orElse != kNone) {
          out_.append(indent, ' ');
          put("} else {\n");
          stmts(n.orElse, depth + 1);
        }
        out_.append(indent, ' ');
        put("}\n");
      }
      // kVarDecl: handled by reset
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
    for (const Index s : program_.top)
      if (node(s).kind == NodeKind::kVarDecl)
        put("  int32_t ", name(node(s).slot), ";\n");
    put("} ", prefix_, "_state_t;\n\n");
  }

  void resetFunction() {
    put("void ", prefix_, "_reset(", prefix_, "_state_t* st) {\n");
    for (const Index s : program_.top)
      if (node(s).kind == NodeKind::kVarDecl) {
        put("  st->", name(node(s).slot), " = ");
        expr(node(s).lhs);
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
    for (const Index s : program_.top) stmts(s, 1);
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
  const behavior::Program& program_;
  const std::string& prefix_;  // of every emitted symbol
  const std::string macro_;    // the prefix upper-cased, for macros
  const CEmitOptions& options_;
  std::vector<LValue> lvalues_;  // per slot
  bool hasState_ = false;
  std::string out_;
};

}  // namespace

std::string emitC(const MergedProgram& merged, const CEmitOptions& options) {
  return Emitter(merged, options).run();
}

}  // namespace eblocks::codegen
