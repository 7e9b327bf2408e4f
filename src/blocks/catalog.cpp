#include "blocks/catalog.h"

#include <charconv>
#include <optional>
#include <stdexcept>
#include <string_view>

namespace eblocks::blocks {

namespace {

/// Replaces every occurrence of `${key}` in `tmpl`.
std::string substitute(std::string tmpl, const std::string& key,
                       const std::string& value) {
  const std::string needle = "${" + key + "}";
  std::size_t pos = 0;
  while ((pos = tmpl.find(needle, pos)) != std::string::npos) {
    tmpl.replace(pos, needle.size(), value);
    pos += value.size();
  }
  return tmpl;
}

BlockTypePtr makeType(std::string name, BlockClass cls,
                      std::vector<std::string> ins,
                      std::vector<std::string> outs, std::string src,
                      bool sequential = false, bool programmable = false) {
  auto type = std::make_shared<const BlockType>(
      std::move(name), cls, std::move(ins), std::move(outs), std::move(src),
      sequential, programmable);
  // Parse now, so a typo in the catalog fails fast, at startup; every
  // consumer then shares this one tree.
  (void)type->program();
  return type;
}

std::string truthTable2Source(unsigned tt) {
  std::string src;
  for (int a = 0; a <= 1; ++a)
    for (int b = 0; b <= 1; ++b) {
      const int bit = (tt >> (a * 2 + b)) & 1u;
      src += "if (a == " + std::to_string(a) + " && b == " +
             std::to_string(b) + ") { out = " + std::to_string(bit) + "; }\n";
    }
  return src;
}

std::string truthTable3Source(unsigned tt) {
  std::string src;
  for (int a = 0; a <= 1; ++a)
    for (int b = 0; b <= 1; ++b)
      for (int c = 0; c <= 1; ++c) {
        const int bit = (tt >> (a * 4 + b * 2 + c)) & 1u;
        src += "if (a == " + std::to_string(a) + " && b == " +
               std::to_string(b) + " && c == " + std::to_string(c) +
               ") { out = " + std::to_string(bit) + "; }\n";
      }
  return src;
}

constexpr char kPulseGenSource[] = R"(
var count = 0;
var prev = 0;
if (a == 1 && prev == 0) { count = ${N}; }
prev = a;
if (tick == 1 && count > 0) { count = count - 1; }
if (count > 0) { out = 1; } else { out = 0; }
)";

constexpr char kDelaySource[] = R"(
var target = 0;
var count = 0;
var q = 0;
if (a != target) { target = a; count = ${N}; }
if (tick == 1 && count > 0) { count = count - 1; }
if (count == 0) { q = target; }
out = q;
)";

constexpr char kProlongerSource[] = R"(
var count = 0;
if (a == 1) { count = ${N}; }
if (tick == 1 && a == 0 && count > 0) { count = count - 1; }
if (a == 1 || count > 0) { out = 1; } else { out = 0; }
)";

/// The number `text` spells in canonical decimal -- digits only, no
/// leading zero, within int range -- or nullopt.
std::optional<int> parseCount(std::string_view text) {
  if (text.empty() || text.front() < '0' || text.front() > '9' ||
      (text.front() == '0' && text.size() > 1))
    return std::nullopt;
  int value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

}  // namespace

Catalog::Catalog() {
  const auto sensor = [](const std::string& n) {
    return makeType(n, BlockClass::kSensor, {}, {"out"}, "out = env;\n");
  };
  add(sensor("button"));
  add(sensor("contact_switch"));
  add(sensor("light_sensor"));
  add(sensor("motion_sensor"));
  add(sensor("sound_sensor"));
  add(sensor("magnetic_sensor"));
  add(sensor("temperature_sensor"));

  const auto output = [](const std::string& n) {
    return makeType(n, BlockClass::kOutput, {"a"}, {},
                    "var display = 0;\ndisplay = a;\n");
  };
  add(output("led"));
  add(output("beeper"));
  add(output("relay"));

  // Named 2-input gates are aliases of logic2 truth tables.
  const auto gate2 = [](const std::string& n, unsigned tt) {
    return makeType(n, BlockClass::kCompute, {"a", "b"}, {"out"},
                    truthTable2Source(tt));
  };
  add(gate2("and2", 0b1000));
  add(gate2("or2", 0b1110));
  add(gate2("xor2", 0b0110));
  add(gate2("nand2", 0b0111));
  add(gate2("nor2", 0b0001));

  const auto gate3 = [](const std::string& n, unsigned tt) {
    return makeType(n, BlockClass::kCompute, {"a", "b", "c"}, {"out"},
                    truthTable3Source(tt));
  };
  add(gate3("and3", 0b10000000));
  add(gate3("or3", 0b11111110));
  add(gate3("majority3", 0b11101000));

  add(makeType("not", BlockClass::kCompute, {"a"}, {"out"}, "out = !a;\n"));
  add(makeType("yes", BlockClass::kCompute, {"a"}, {"out"}, "out = a;\n"));

  add(makeType("toggle", BlockClass::kCompute, {"a"}, {"out"},
               "var q = 0;\nvar prev = 0;\n"
               "if (a == 1 && prev == 0) { q = !q; }\n"
               "prev = a;\nout = q;\n",
               /*sequential=*/true));
  add(makeType("trip", BlockClass::kCompute, {"a"}, {"out"},
               "var q = 0;\nif (a == 1) { q = 1; }\nout = q;\n",
               /*sequential=*/true));
  add(makeType("trip_reset", BlockClass::kCompute, {"a", "r"}, {"out"},
               "var q = 0;\nif (a == 1) { q = 1; }\n"
               "if (r == 1) { q = 0; }\nout = q;\n",
               /*sequential=*/true));

  const auto comm = [](const std::string& n) {
    return makeType(n, BlockClass::kCommunication, {"a"}, {"out"},
                    "out = a;\n");
  };
  add(comm("rf_link"));
  add(comm("x10_link"));
}

void Catalog::add(BlockTypePtr t) {
  const std::string& name = t->name();
  if (!types_.emplace(name, std::move(t)).second)
    throw std::invalid_argument("catalog: duplicate type " + name);
}

template <typename Make>
BlockTypePtr Catalog::findOrMake(const std::string& name, Make&& make) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = types_.find(name);
  if (it != types_.end()) return it->second;
  BlockTypePtr t = make();
  if (t) types_.emplace(name, t);
  return t;
}

BlockTypePtr Catalog::resolve(const std::string& name) const {
  if (BlockTypePtr t = findOrMake(name, [] { return BlockTypePtr(); }))
    return t;
  // Parameterized families, materialized on demand.
  const auto suffix = [&](std::string_view prefix) -> std::optional<int> {
    if (!name.starts_with(prefix)) return std::nullopt;
    return parseCount(std::string_view(name).substr(prefix.size()));
  };
  if (const auto n = suffix("delay_")) return delay(*n);
  if (const auto n = suffix("pulse_")) return pulseGen(*n);
  if (const auto n = suffix("prolong_")) return prolonger(*n);
  if (const auto n = suffix("logic2_"))
    return logic2(static_cast<unsigned>(*n));
  if (const auto n = suffix("logic3_"))
    return logic3(static_cast<unsigned>(*n));
  if (const auto n = suffix("splitter")) return splitter(*n);
  if (name.starts_with("prog_")) {
    const std::string_view shape = std::string_view(name).substr(5);
    const std::size_t x = shape.find('x');
    if (x == std::string_view::npos) return nullptr;
    const auto inputs = parseCount(shape.substr(0, x));
    const auto outputs = parseCount(shape.substr(x + 1));
    if (inputs && outputs) return programmable(*inputs, *outputs);
  }
  return nullptr;
}

BlockTypePtr Catalog::get(const std::string& name) const {
  if (BlockTypePtr t = resolve(name)) return t;
  throw std::out_of_range("catalog: unknown block type '" + name + "'");
}

BlockTypePtr Catalog::find(const std::string& name) const {
  try {
    return resolve(name);
  } catch (const std::invalid_argument&) {
    return nullptr;  // a family name whose parameters are out of range
  }
}

std::vector<std::string> Catalog::names() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(types_.size());
  for (const auto& [name, type] : types_) out.push_back(name);
  return out;
}

BlockTypePtr Catalog::logic2(unsigned tt) const {
  if (tt > 0xf) throw std::invalid_argument("logic2: truth table > 4 bits");
  const std::string name = "logic2_" + std::to_string(tt);
  return findOrMake(name, [&] {
    return makeType(name, BlockClass::kCompute, {"a", "b"}, {"out"},
                    truthTable2Source(tt));
  });
}

BlockTypePtr Catalog::logic3(unsigned tt) const {
  if (tt > 0xff) throw std::invalid_argument("logic3: truth table > 8 bits");
  const std::string name = "logic3_" + std::to_string(tt);
  return findOrMake(name, [&] {
    return makeType(name, BlockClass::kCompute, {"a", "b", "c"}, {"out"},
                    truthTable3Source(tt));
  });
}

BlockTypePtr Catalog::splitter(int ways) const {
  if (ways < 2 || ways > 3)
    throw std::invalid_argument("splitter: 2 or 3 ways supported");
  const std::string name = "splitter" + std::to_string(ways);
  return findOrMake(name, [&] {
    std::vector<std::string> outs;
    std::string src;
    for (int i = 0; i < ways; ++i) {
      outs.push_back("out" + std::to_string(i));
      src += outs.back() + " = a;\n";
    }
    return makeType(name, BlockClass::kCompute, {"a"}, std::move(outs), src);
  });
}

BlockTypePtr Catalog::pulseGen(int ticks) const {
  if (ticks <= 0) throw std::invalid_argument("pulseGen: ticks must be > 0");
  const std::string name = "pulse_" + std::to_string(ticks);
  return findOrMake(name, [&] {
    return makeType(name, BlockClass::kCompute, {"a"}, {"out"},
                    substitute(kPulseGenSource, "N", std::to_string(ticks)),
                    /*sequential=*/true);
  });
}

BlockTypePtr Catalog::delay(int ticks) const {
  if (ticks < 0) throw std::invalid_argument("delay: ticks must be >= 0");
  const std::string name = "delay_" + std::to_string(ticks);
  return findOrMake(name, [&] {
    return makeType(name, BlockClass::kCompute, {"a"}, {"out"},
                    substitute(kDelaySource, "N", std::to_string(ticks)),
                    /*sequential=*/true);
  });
}

BlockTypePtr Catalog::prolonger(int ticks) const {
  if (ticks <= 0) throw std::invalid_argument("prolonger: ticks must be > 0");
  const std::string name = "prolong_" + std::to_string(ticks);
  return findOrMake(name, [&] {
    return makeType(name, BlockClass::kCompute, {"a"}, {"out"},
                    substitute(kProlongerSource, "N", std::to_string(ticks)),
                    /*sequential=*/true);
  });
}

BlockTypePtr Catalog::programmable(int inputs, int outputs) const {
  if (inputs < 1 || outputs < 1)
    throw std::invalid_argument("programmable: need at least 1x1 ports");
  if (inputs > kMaxProgrammablePorts || outputs > kMaxProgrammablePorts)
    throw std::invalid_argument(
        "programmable: at most " + std::to_string(kMaxProgrammablePorts) +
        " ports per side");
  const std::string name =
      "prog_" + std::to_string(inputs) + "x" + std::to_string(outputs);
  return findOrMake(name, [&] {
    std::vector<std::string> ins, outs;
    for (int i = 0; i < inputs; ++i) ins.push_back("in" + std::to_string(i));
    for (int i = 0; i < outputs; ++i)
      outs.push_back("out" + std::to_string(i));
    return std::make_shared<const BlockType>(
        name, BlockClass::kCompute, std::move(ins), std::move(outs),
        /*behaviorSource=*/"", /*sequential=*/true, /*programmable=*/true);
  });
}

const Catalog& defaultCatalog() {
  static const Catalog catalog;
  return catalog;
}

}  // namespace eblocks::blocks
