// BlockType::program(): each type's behavior is parsed once, lazily, and
// the one parsed program is shared by every caller on every thread.
#include "core/block.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "behavior/parser.h"
#include "behavior/printer.h"
#include "blocks/catalog.h"

namespace eblocks {
namespace {

constexpr int kThreads = 8;

BlockTypePtr computeType(std::string behavior) {
  return std::make_shared<const BlockType>(
      "t", BlockClass::kCompute, std::vector<std::string>{"a"},
      std::vector<std::string>{"out"}, std::move(behavior));
}

/// Every thread's program() address, all released at once so that the
/// first calls race.
std::vector<const behavior::Program*> raceFirstCall(const BlockType& type) {
  std::vector<const behavior::Program*> seen(kThreads, nullptr);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back([&, i] {
      start.arrive_and_wait();
      seen[static_cast<std::size_t>(i)] = &type.program();
    });
  for (std::thread& t : threads) t.join();
  return seen;
}

TEST(BlockProgram, ConcurrentFirstCallsShareOneTree) {
  for (int round = 0; round < 20; ++round) {
    const BlockTypePtr type =
        computeType("var q = 0;\nif (a == 1) { q = !q; }\nout = q;\n");
    const std::vector<const behavior::Program*> seen = raceFirstCall(*type);
    for (const behavior::Program* p : seen) EXPECT_EQ(p, seen.front());
    EXPECT_EQ(&type->program(), seen.front());
    EXPECT_EQ(behavior::toSource(*seen.front()),
              "var q = 0;\nif (a == 1) {\n  q = !q;\n}\nout = q;\n");
  }
}

TEST(BlockProgram, CatalogTypesShareOneTree) {
  const blocks::Catalog& cat = blocks::defaultCatalog();
  for (const BlockTypePtr& type :
       {cat.toggle(), cat.and2(), cat.delay(3), cat.get("logic3_77")}) {
    SCOPED_TRACE(type->name());
    const std::vector<const behavior::Program*> seen = raceFirstCall(*type);
    for (const behavior::Program* p : seen) EXPECT_EQ(p, seen.front());
    // Handed out again by the catalog: still the same type, same tree.
    EXPECT_EQ(&cat.get(type->name())->program(), seen.front());
  }
}

TEST(BlockProgram, MalformedTypeIsConstructibleAndThrowsOnEveryCall) {
  const BlockTypePtr type = computeType("out = a +;\n");
  EXPECT_EQ(type->behaviorSource(), "out = a +;\n");
  std::latch start(kThreads);
  std::vector<int> errors(kThreads, 0);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back([&, i] {
      start.arrive_and_wait();
      for (int call = 0; call < 2; ++call) {
        try {
          (void)type->program();
        } catch (const behavior::ParseError& e) {
          if (e.line() == 1 && e.column() == 10)
            ++errors[static_cast<std::size_t>(i)];
        }
      }
    });
  for (std::thread& t : threads) t.join();
  for (const int n : errors) EXPECT_EQ(n, 2);
  EXPECT_THROW((void)type->nameTable(), behavior::ParseError);
}

TEST(BlockProgram, NameTableBindsPortsStateAndTick) {
  const auto type = std::make_shared<const BlockType>(
      "t", BlockClass::kCompute, std::vector<std::string>{"a", "x"},
      std::vector<std::string>{"x"},
      "var q = 0;\nvar a = 1;\nvar r = 2;\nx = a + q + r + tick;\n");
  using Kind = behavior::NameBinding::Kind;
  const behavior::Program& program = type->program();
  const behavior::NameTable& bindings = type->nameTable();
  ASSERT_EQ(bindings.size(), program.names.size());  // one per slot
  const auto binding = [&](const std::string& name) {
    const auto it = std::ranges::find(program.names, name);
    EXPECT_NE(it, program.names.end()) << name;
    return bindings[static_cast<std::size_t>(it - program.names.begin())];
  };
  EXPECT_EQ(binding("a").kind, Kind::kInput);  // a port wins over a var
  EXPECT_EQ(binding("a").port, 0);
  EXPECT_EQ(binding("x").kind, Kind::kOutput);  // an output over an input
  EXPECT_EQ(binding("x").port, 0);
  EXPECT_EQ(binding("q").stateOrdinal, 0);
  EXPECT_EQ(binding("r").stateOrdinal, 1);  // `var a` takes no ordinal
  EXPECT_EQ(binding("tick").kind, Kind::kTick);
  EXPECT_EQ(program.names.size(), 5u);

  // A sensor's `env` is a slot of its own, bound to no port.
  const auto sensor = std::make_shared<const BlockType>(
      "s", BlockClass::kSensor, std::vector<std::string>{},
      std::vector<std::string>{"out"}, "out = env;\n");
  const behavior::Index env = sensor->slots().env;
  ASSERT_NE(env, behavior::kNone);
  EXPECT_EQ(sensor->program().names[static_cast<std::size_t>(env)], "env");
  EXPECT_EQ(sensor->nameTable()[static_cast<std::size_t>(env)].kind,
            Kind::kLocal);
  EXPECT_EQ(sensor->nameTable()[static_cast<std::size_t>(env)].stateOrdinal,
            -1);
}

TEST(BlockProgram, SlotsCoverEveryNameASimulatorWrites) {
  // Ports, `tick` and a sensor's `env` get a slot even where the text never
  // mentions them, after the text's own names; a name two ports share is
  // one slot.
  const auto type = std::make_shared<const BlockType>(
      "t", BlockClass::kCompute, std::vector<std::string>{"a", "b"},
      std::vector<std::string>{"b", "c"}, "c = a;\n");
  const behavior::Program& program = type->program();
  EXPECT_EQ(program.names,
            (std::vector<std::string>{"c", "a", "b", "tick"}));
  const BlockType::Slots& slots = type->slots();
  EXPECT_EQ(slots.inputs, (std::vector<behavior::Index>{1, 2}));
  EXPECT_EQ(slots.outputs, (std::vector<behavior::Index>{2, 0}));
  EXPECT_EQ(slots.tick, 3);
  EXPECT_EQ(slots.env, behavior::kNone);
  EXPECT_EQ(type->nameTable().size(), 4u);
  EXPECT_EQ(behavior::toSource(program), "c = a;\n");  // prints the text

  const auto sensor = std::make_shared<const BlockType>(
      "s", BlockClass::kSensor, std::vector<std::string>{},
      std::vector<std::string>{"out"}, "out = 1;\n");
  EXPECT_EQ(sensor->program().names,
            (std::vector<std::string>{"out", "tick", "env"}));
  EXPECT_EQ(sensor->slots().env, 2);
}

TEST(BlockProgram, OpenProgramThrowsOnEveryCall) {
  // A read of a name that no port, builtin, declaration or assignment
  // binds is rejected with the parse, like a parse error: the type stays
  // constructible, and every accessor throws, naming the name.
  const BlockTypePtr open = computeType("out = a + mystery;\n");
  for (int call = 0; call < 2; ++call) {
    try {
      (void)open->program();
      ADD_FAILURE() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("'mystery'"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW((void)open->nameTable(), std::invalid_argument);
  EXPECT_THROW((void)open->slots(), std::invalid_argument);
  // `env` is bound on sensors only.
  EXPECT_THROW((void)computeType("out = env;\n")->program(),
               std::invalid_argument);
  // Assigned anywhere is bound everywhere, even where a read comes first.
  EXPECT_NO_THROW(
      (void)computeType("out = m;\nif (a) { m = 1; }\n")->program());
  EXPECT_NO_THROW((void)computeType("out = a + tick;\n")->program());
}

}  // namespace
}  // namespace eblocks
