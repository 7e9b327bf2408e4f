// The strategy table: every partitioner reachable by name, engine
// options forwarded.
#include "partition/engine.h"

#include <gtest/gtest.h>

#include "designs/library.h"
#include "partition/exhaustive.h"
#include "partition/paredown.h"
#include "partition/verify.h"

namespace eblocks::partition {
namespace {

TEST(Engine, BuiltInsAreRegistered) {
  std::vector<std::string> names, typedNames;
  for (const Strategy& s : strategies()) {
    names.emplace_back(s.name);
    if (s.runTyped) typedNames.emplace_back(s.name);
    EXPECT_EQ(findStrategy(s.name), &s) << s.name;
    EXPECT_NE(s.run, nullptr) << s.name;
    EXPECT_FALSE(s.description.empty()) << s.name;
  }
  EXPECT_EQ(names,
            (std::vector<std::string>{"aggregation", "exhaustive", "fm",
                                      "greedy", "ladder", "lns", "paredown"}));
  EXPECT_EQ(typedNames,
            (std::vector<std::string>{"exhaustive", "fm", "paredown"}));
  EXPECT_EQ(findStrategy("no-such-strategy"), nullptr);
  EXPECT_EQ(findStrategy("aggregation")->runTyped, nullptr);
}

TEST(Engine, RunPartitionerMatchesDirectCalls) {
  const Network net = designs::figure5();
  const PartitionProblem problem(net, ProgBlockSpec{});
  const PartitionRun direct = pareDown(problem);
  const PartitionRun viaEngine = runPartitioner("paredown", problem);
  EXPECT_EQ(viaEngine.algorithm, "paredown");
  ASSERT_EQ(viaEngine.result.partitions.size(),
            direct.result.partitions.size());
  for (std::size_t i = 0; i < direct.result.partitions.size(); ++i)
    EXPECT_EQ(viaEngine.result.partitions[i].toVector(),
              direct.result.partitions[i].toVector());
}

TEST(Engine, UnknownNameThrowsListingRegistered) {
  const Network net = designs::figure5();
  const PartitionProblem problem(net, ProgBlockSpec{});
  try {
    runPartitioner("kernighan-lin", problem);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("kernighan-lin"), std::string::npos);
    EXPECT_NE(what.find("paredown"), std::string::npos);
    EXPECT_NE(what.find("exhaustive"), std::string::npos);
    EXPECT_NE(what.find("aggregation"), std::string::npos);
  }
  // A plain-only strategy is unknown to the multi-type problem.
  try {
    runPartitioner("greedy", problem, ProgCostModel::paperDefault());
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "unknown multi-type partitioning algorithm 'greedy' "
              "(registered: exhaustive, fm, paredown)");
  }
}

TEST(Engine, ExhaustiveStrategySeedsFromPareDownByDefault) {
  // The engine's exhaustive run must start from PareDown's bound: it
  // explores exactly what an explicitly-seeded serial search explores
  // and never more than an unseeded one.  (Since the warm-start PR a
  // tying seed no longer displaces the canonical optimum, so on designs
  // whose first DFS dive is already optimal the counts are equal.)
  const Network net = designs::figure5();
  const PartitionProblem problem(net, ProgBlockSpec{});

  EngineOptions engineOptions;
  engineOptions.threads = 1;
  const PartitionRun viaEngine =
      runPartitioner("exhaustive", problem, engineOptions);

  ExhaustiveOptions seeded;
  seeded.threads = 1;
  seeded.timeLimitSeconds = engineOptions.timeLimitSeconds;
  seeded.seed = pareDown(problem).result;
  const PartitionRun direct = exhaustiveSearch(problem, seeded);

  EXPECT_EQ(viaEngine.explored, direct.explored);
  EXPECT_EQ(viaEngine.result.totalAfter(8), 3);

  ExhaustiveOptions unseeded;
  unseeded.threads = 1;
  const PartitionRun plain = exhaustiveSearch(problem, unseeded);
  EXPECT_LE(viaEngine.explored, plain.explored);
  // Seeding is purely an accelerator: the returned optimum is the
  // unseeded search's, bit for bit.
  ASSERT_EQ(viaEngine.result.partitions.size(),
            plain.result.partitions.size());
  for (std::size_t i = 0; i < plain.result.partitions.size(); ++i)
    EXPECT_EQ(viaEngine.result.partitions[i].toVector(),
              plain.result.partitions[i].toVector());

  EngineOptions noSeed = engineOptions;
  noSeed.seedFromPareDown = false;
  const PartitionRun viaEngineUnseeded =
      runPartitioner("exhaustive", problem, noSeed);
  EXPECT_EQ(viaEngineUnseeded.explored, plain.explored);
}

TEST(Engine, TypedStrategiesRunTheCostModel) {
  const Network net = designs::figure5();
  const PartitionProblem problem(net, ProgBlockSpec{});
  const ProgCostModel model = ProgCostModel::paperDefault();
  const PartitionRun heuristic = runPartitioner("paredown", problem, model);
  EXPECT_EQ(heuristic.algorithm, "multitype-paredown");
  EXPECT_TRUE(verifyPartitioning(problem, model, heuristic.result).empty());

  EngineOptions engineOptions;
  engineOptions.threads = 1;
  const PartitionRun exact =
      runPartitioner("exhaustive", problem, model, engineOptions);
  EXPECT_EQ(exact.algorithm, "multitype-exhaustive");
  EXPECT_TRUE(exact.optimal);
  const MilliCostModel milli = toMilliCosts(model, 8);
  EXPECT_LE(milli.totalCost(exact.result, 8),
            milli.totalCost(heuristic.result, 8));
}

}  // namespace
}  // namespace eblocks::partition
