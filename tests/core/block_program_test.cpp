// BlockType::program(): each type's behavior is parsed once, lazily, and
// the one parsed program is shared by every caller on every thread.
#include "core/block.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <memory>
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
      "var q = 0;\nvar a = 1;\nvar r = 2;\nx = a + q + r + tick + env;\n");
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
  EXPECT_EQ(binding("env").kind, Kind::kLocal);
  EXPECT_EQ(binding("env").stateOrdinal, -1);
  EXPECT_EQ(program.names.size(), 6u);
}

}  // namespace
}  // namespace eblocks
