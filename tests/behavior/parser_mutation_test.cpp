// Seeded mutation loop over every catalog behavior text.  Each mutant must
// either parse and round-trip through the printer, or be rejected with
// LexError / ParseError -- never crash, hang, or throw anything else.
// Mutations: byte flips, truncation, span duplication, and nesting far
// past (and right at) the depth bound.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "behavior/lexer.h"
#include "behavior/parser.h"
#include "behavior/printer.h"
#include "blocks/catalog.h"

namespace eblocks::behavior {
namespace {

constexpr int kMutantsPerText = 200;

std::vector<std::string> catalogTexts() {
  const blocks::Catalog& cat = blocks::defaultCatalog();
  std::vector<std::string> names = cat.names();
  for (const char* family :
       {"delay_0", "delay_5", "pulse_3", "prolong_2", "logic2_6",
        "logic3_150", "splitter2", "splitter3"})
    names.push_back(family);
  std::vector<std::string> texts;
  for (const std::string& name : names) {
    const std::string& text = cat.get(name)->behaviorSource();
    if (!text.empty()) texts.push_back(text);
  }
  return texts;
}

/// Either a clean rejection, or a tree whose printed form re-parses to
/// itself.
void expectRoundTripOrRejected(const std::string& text) {
  Program p;
  try {
    p = parse(text);
  } catch (const LexError&) {
    return;
  } catch (const ParseError&) {
    return;
  }
  const std::string printed = toSource(p);
  Program again;
  ASSERT_NO_THROW(again = parse(printed)) << "mutant:\n" << text;
  EXPECT_EQ(toSource(again), printed) << "mutant:\n" << text;
}

class Mutator {
 public:
  explicit Mutator(std::uint32_t seed) : rng_(seed) {}

  std::string mutate(std::string text) {
    switch (pick(4)) {
      case 0:  // byte flips
        for (int n = 1 + pick(3); n > 0; --n)
          text[at(text)] ^= static_cast<char>(1 << pick(8));
        return text;
      case 1:  // truncation
        return text.substr(0, at(text));
      case 2: {  // span duplication
        const std::size_t from = at(text);
        const std::size_t len = 1 + pick(static_cast<int>(text.size() - from));
        const std::size_t to = at(text);
        return text.insert(to, text.substr(from, len));
      }
      default:
        return nest(std::move(text));
    }
  }

 private:
  /// Wraps the operand of an `=` in parentheses or a unary chain, mostly
  /// right around the bound, one time in 16 far past it.
  std::string nest(std::string text) {
    const std::size_t eq = text.find(" = ");
    if (eq == std::string::npos) return text;
    const std::size_t start = eq + 3;
    const std::size_t end = text.find(';', start);
    if (end == std::string::npos) return text;
    const int depth = pick(16) != 0 ? kMaxNestingDepth - 4 + pick(8)
                                    : 600 + pick(2000);
    std::string operand = text.substr(start, end - start);
    if (pick(2) == 0)
      operand = std::string(static_cast<std::size_t>(depth), '(') + operand +
                std::string(static_cast<std::size_t>(depth), ')');
    else
      operand = std::string(static_cast<std::size_t>(depth), '!') + operand;
    return text.replace(start, end - start, operand);
  }

  int pick(int n) {
    return std::uniform_int_distribution<int>(0, n - 1)(rng_);
  }
  std::size_t at(const std::string& text) {
    return static_cast<std::size_t>(pick(static_cast<int>(text.size())));
  }

  std::mt19937 rng_;
};

TEST(ParserMutation, EveryMutantRoundTripsOrIsRejected) {
  const std::vector<std::string> texts = catalogTexts();
  ASSERT_GT(texts.size(), 20u);
  Mutator mutator(20051);
  for (const std::string& text : texts) {
    expectRoundTripOrRejected(text);
    for (int i = 0; i < kMutantsPerText; ++i)
      expectRoundTripOrRejected(mutator.mutate(text));
    if (HasFailure()) break;
  }
}

}  // namespace
}  // namespace eblocks::behavior
