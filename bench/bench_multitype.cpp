// The paper's future-work experiment (Section 6): multiple programmable
// block types with varying costs.  Sweeps option portfolios and cost
// ratios over random designs and reports the achieved network cost.
//
// Usage: bench_multitype [designs-per-point]
#include <cstdio>
#include <cstdlib>

#include "partition/multitype.h"
#include "randgen/generator.h"

using namespace eblocks;
using namespace eblocks::partition;

namespace {

double averageCost(int inner, int designs, const ProgCostModel& model) {
  double total = 0;
  for (int d = 0; d < designs; ++d) {
    const Network net = randgen::randomNetwork(
        {.innerBlocks = inner,
         .seed = static_cast<std::uint32_t>(41 * inner + d)});
    const int n = static_cast<int>(net.innerBlocks().size());
    const PartitionRun run =
        multiTypePareDown(PartitionProblem(net, ProgBlockSpec{}), model);
    total += toMilliCosts(model, n).totalCost(run.result, n) / 1000.0;
  }
  return total / designs;
}

ProgCostModel portfolio(std::initializer_list<ProgBlockOption> options) {
  ProgCostModel m;
  m.options = options;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const int designs = argc > 1 ? std::atoi(argv[1]) : 40;

  std::printf("Multi-type partitioning (paper future work, Section 6); "
              "avg network cost, %d designs/point,\npre-defined block "
              "cost = 1.0\n\n", designs);

  const ProgCostModel only22 = portfolio({{"2x2", 2, 2, 1.5}});
  const ProgCostModel mix = portfolio(
      {{"2x2", 2, 2, 1.5}, {"3x2", 3, 2, 1.9}, {"4x4", 4, 4, 2.6}});
  const ProgCostModel bigOnly = portfolio({{"4x4", 4, 4, 2.6}});

  std::printf("Portfolio sweep:\n");
  std::printf("%5s | %12s %18s %12s\n", "Inner", "only 2x2",
              "2x2 + 3x2 + 4x4", "only 4x4");
  for (int n : {8, 12, 20, 30, 45}) {
    std::printf("%5d | %12.2f %18.2f %12.2f\n", n,
                averageCost(n, designs, only22),
                averageCost(n, designs, mix),
                averageCost(n, designs, bigOnly));
  }

  std::printf("\nCost-ratio sweep (2x2 block, cost relative to a "
              "pre-defined block):\n");
  std::printf("%5s |", "Inner");
  const double ratios[] = {1.1, 1.5, 1.9, 2.5, 3.5};
  for (double r : ratios) std::printf(" %8.1f", r);
  std::printf("\n");
  for (int n : {12, 30}) {
    std::printf("%5d |", n);
    for (double r : ratios) {
      const ProgCostModel m = portfolio({{"2x2", 2, 2, r}});
      std::printf(" %8.2f", averageCost(n, designs, m));
    }
    std::printf("\n");
  }
  std::printf("\n(ratios >= 2 make pair replacements uneconomical; the "
              "curve flattens toward\nthe do-nothing cost, reproducing the "
              "paper's premise that the programmable\nblock must cost less "
              "than two pre-defined blocks.)\n");
  return 0;
}
