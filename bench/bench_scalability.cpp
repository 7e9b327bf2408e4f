// Scalability of the partitioner family, plus the paper's Section-5.2
// claims.
//
// 1. Scaling curve (the heuristic-family tentpole): dense random
//    networks from 30 to 200 inner blocks -- an order of magnitude past
//    the exact search's ceiling -- through paredown, greedy, greedy+fm,
//    and a budgeted lns chain.  All four are deterministic (serial,
//    seeded, node-budgeted, no deadline), so their probe/node counts
//    are machine-independent regression signals.
// 2. Warm start: cold vs fm-seeded serial exhaustive search.  Dense
//    random designs show the measured node reduction; the two largest
//    tractable Table-1 rows document the structural equality (their
//    first DFS dive is already optimal, so the seed cannot prune
//    anything -- see docs/benchmarks.md).
// 3. The Section-5.2 PareDown curve ("465 inner nodes in 80 seconds on
//    a 2 GHz Athlon XP") and the Section-4.2 O(n^2) worst case.
//
// Usage: bench_scalability [max-inner] [--json=PATH]
//
// JSON records ("eblocks-bench/2", see docs/benchmarks.md) for parts 1
// and 2: `scale/n<inner>/<algo>` and `warm/<design>/{cold,seeded}`:
//   exact  nodes (probes for the heuristics), pruned, cost (blocks after)
//   info   seconds
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_json.h"
#include "blocks/catalog.h"
#include "designs/library.h"
#include "partition/exhaustive.h"
#include "partition/fm_refine.h"
#include "partition/greedy_seed.h"
#include "partition/lns.h"
#include "partition/paredown.h"
#include "randgen/generator.h"

using namespace eblocks;
using namespace eblocks::partition;

namespace {

void printRow(const char* algo, int n, const PartitionRun& run) {
  std::printf("  %-8s | %9d %9d %12llu %10.4fs\n", algo,
              run.result.totalAfter(n), run.result.programmableBlocks(),
              static_cast<unsigned long long>(run.explored), run.seconds);
}

void record(bench::BenchJson& json, const std::string& workload, int n,
            const PartitionRun& run) {
  json.add(workload, !run.timedOut,
           {{"nodes", run.explored},
            {"pruned", run.pruned},
            {"cost", run.result.totalAfter(n)}},
           {{"seconds", run.seconds}});
}

}  // namespace

int main(int argc, char** argv) {
  const std::string jsonPath = bench::BenchJson::extractPath(argc, argv);
  bench::BenchJson json("bench_scalability", jsonPath);
  const int maxInner = argc > 1 ? std::atoi(argv[1]) : 1000;

  std::printf("Heuristic family scaling curve (dense largeNetwork preset, "
              "edge counting)\n");
  std::printf("lns budget: 30 rounds x 20k repair nodes, no deadline -- "
              "deterministic\n\n");
  for (const int n : {30, 60, 100, 150, 200}) {
    if (n > maxInner) break;
    const Network net =
        randgen::randomNetwork(randgen::GeneratorOptions::largeNetwork(
            n, static_cast<std::uint32_t>(n)));
    const PartitionProblem problem(net, {});
    std::printf("inner=%d\n", n);
    std::printf("  %-8s | %9s %9s %12s %11s\n", "algo", "total", "prog",
                "probes", "time");

    const PartitionRun pd = pareDown(problem);
    printRow("paredown", n, pd);
    record(json, "scale/n" + std::to_string(n) + "/paredown", n, pd);

    const PartitionRun greedy = greedySeed(problem);
    printRow("greedy", n, greedy);
    record(json, "scale/n" + std::to_string(n) + "/greedy", n, greedy);

    PartitionRun fm = fmRefine(problem, greedy.result);
    fm.explored += greedy.explored;
    fm.seconds += greedy.seconds;
    printRow("fm", n, fm);
    record(json, "scale/n" + std::to_string(n) + "/fm", n, fm);

    LnsOptions lnsOptions;
    lnsOptions.timeLimitSeconds = 0;  // node-budgeted, not wall-clocked
    lnsOptions.maxRounds = 30;
    lnsOptions.repairNodeBudget = 20000;
    PartitionRun lns = lnsSearch(problem, fm.result, lnsOptions);
    lns.explored += fm.explored;
    lns.seconds += fm.seconds;
    printRow("fm+lns", n, lns);
    record(json, "scale/n" + std::to_string(n) + "/lns", n, lns);
  }

  const auto warmRow = [&](const std::string& name, const Network& net) {
    const PartitionProblem problem(net, {});
    const int n = problem.innerCount();
    ExhaustiveOptions cold;
    cold.threads = 1;
    const PartitionRun unseeded = exhaustiveSearch(problem, cold);
    ExhaustiveOptions warm = cold;
    warm.seed = fmRefine(problem, greedySeed(problem).result).result;
    const PartitionRun seeded = exhaustiveSearch(problem, warm);
    const double saved =
        unseeded.explored
            ? 100.0 *
                  static_cast<double>(unseeded.explored - seeded.explored) /
                  static_cast<double>(unseeded.explored)
            : 0.0;
    std::printf("%-22s | %9d %12llu %12llu %8.1f%%\n", name.c_str(),
                unseeded.result.totalAfter(n),
                static_cast<unsigned long long>(unseeded.explored),
                static_cast<unsigned long long>(seeded.explored), saved);
    record(json, "warm/" + name + "/cold", n, unseeded);
    record(json, "warm/" + name + "/seeded", n, seeded);
  };
  if (maxInner >= 16) {
    std::printf("\nWarm start: cold vs fm-seeded serial exhaustive "
                "(identical optimum, fewer nodes)\n");
    std::printf("%-22s | %9s %12s %12s %9s\n", "design", "optimum",
                "cold nodes", "warm nodes", "saved");
    for (const int n : {14, 16})
      for (const std::uint32_t seed : {2u, 3u})
        warmRow("rand_n" + std::to_string(n) + "_s" + std::to_string(seed),
                randgen::randomNetwork(
                    randgen::GeneratorOptions::largeNetwork(n, seed)));
    warmRow("podium_timer_3", designs::figure5());
    warmRow("noise_at_night", designs::byName("Noise At Night Detector"));
  }

  std::printf("\nPareDown scalability (Section 5.2; paper: 465 inner nodes "
              "in 80 s on a 2 GHz Athlon XP)\n\n");
  std::printf("%6s | %12s %14s %12s %9s\n", "Inner", "Time", "FitChecks",
              "Partitions", "Total");
  for (int n : {25, 50, 100, 200, 465, 700, 1000}) {
    if (n > maxInner) break;
    const auto net = randgen::randomNetwork(
        {.innerBlocks = n, .seed = static_cast<std::uint32_t>(n)});
    const PartitionProblem problem(net, {});
    const auto run = pareDown(problem);
    std::printf("%6d | %10.4fs %14llu %12d %9d\n", n, run.seconds,
                static_cast<unsigned long long>(run.explored),
                run.result.programmableBlocks(), run.result.totalAfter(n));
  }

  std::printf("\nWorst-case O(n^2) shape (independent unmergeable gates):\n");
  std::printf("%6s | %12s %14s %16s\n", "Inner", "Time", "FitChecks",
              "n*(n+1)/2 bound");
  for (int n : {50, 100, 200, 400}) {
    if (n > maxInner) break;
    // Independent 2-sensor gates: every candidate pares to single blocks.
    Network net;
    const auto& cat = blocks::defaultCatalog();
    for (int i = 0; i < n; ++i) {
      const std::string s = std::to_string(i);
      const auto a = net.addBlock("sa" + s, cat.button());
      const auto b = net.addBlock("sb" + s, cat.button());
      const auto g = net.addBlock("g" + s, cat.or2());
      const auto o = net.addBlock("o" + s, cat.led());
      net.connect(a, 0, g, 0);
      net.connect(b, 0, g, 1);
      net.connect(g, 0, o, 0);
    }
    const PartitionProblem problem(net, {});
    const auto run = pareDown(problem);
    std::printf("%6d | %10.4fs %14llu %16d\n", n, run.seconds,
                static_cast<unsigned long long>(run.explored),
                n * (n + 1) / 2 + n);
  }

  if (!json.write()) return 1;
  return 0;
}
