// Serial vs parallel branch-and-bound on the seeded random designs: wall
// time, explored nodes, and the (identical) optimum cost at each size --
// plus a multi-type spot check and an unbalanced hub-and-spoke tree.
//
// Workers share the incumbent bound through an atomic and carry the
// DFS-ordinal tie-break, so every *completed* parallel run is
// bit-identical to the serial search; the bench asserts that on every
// run (non-zero exit on mismatch).  Speedup therefore comes purely from
// wall-clock parallelism; the bench prints both times plus node counts
// so runs on different machines stay comparable.  On a multi-core host
// expect >= 2x at 4 threads on the largest sizes; on a single hardware
// thread both columns converge.
//
// The unbalanced workload is an unseeded deep tree whose strong
// incumbents live far from the serial DFS frontier.  Work-stealing keeps
// worker 0 on the serial frontier but hands thieves the *front* of a
// victim's deque, i.e. the subtrees farthest from it, so some worker
// reaches the incumbent region early and the published bound collapses
// the rest of the tree: the parallel run typically explores a fraction
// of serial's nodes.  The bench prints both runs' node counts and
// per-worker load balance and requires the identical result.
//
// Usage: bench_parallel_speedup [max-inner] [per-size] [threads] [limit-s]
//                               [--json=PATH]
//
// JSON records ("eblocks-bench/2", see docs/benchmarks.md), one per size,
// `random/n=<inner>/per=<designs>` (summed over the size's designs), and
// one for the unbalanced tree, `hub_spoke`:
//   exact  nodes, pruned, cost (blocks after)  of the serial runs --
//          exact only when every run completed, informational otherwise
//   info   seconds (serial), threads, parallel_nodes, parallel_seconds
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_json.h"
#include "blocks/catalog.h"
#include "partition/exhaustive.h"
#include "partition/multitype.h"
#include "partition/paredown.h"
#include "randgen/generator.h"

namespace {

using namespace eblocks;

/// max/mean of the per-worker explored-node counts: the
/// hardware-independent witness of load balance (1.0 = perfect).
double imbalance(const std::vector<std::uint64_t>& perWorker) {
  if (perWorker.empty()) return 1.0;
  std::uint64_t mx = 0, sum = 0;
  for (const std::uint64_t v : perWorker) {
    mx = std::max(mx, v);
    sum += v;
  }
  const double mean =
      static_cast<double>(sum) / static_cast<double>(perWorker.size());
  return mean > 0 ? static_cast<double>(mx) / mean : 1.0;
}

/// Same partitions, in the same order, under the same options.
bool identicalRuns(const partition::PartitionRun& a,
                   const partition::PartitionRun& b) {
  if (a.result.optionIndex != b.result.optionIndex ||
      a.result.partitions.size() != b.result.partitions.size())
    return false;
  for (std::size_t i = 0; i < a.result.partitions.size(); ++i)
    if (a.result.partitions[i].toVector() != b.result.partitions[i].toVector())
      return false;
  return true;
}

/// The unbalanced-tree workload: one 3-input hub placed first in DFS
/// order, fed by three input chains and feeding two output chains.  With
/// no seed the initial bound is the weak "replace nothing" incumbent, so
/// pruning depends entirely on incumbents discovered during the search.
Network hubAndSpoke(int chainLen) {
  const auto& cat = blocks::defaultCatalog();
  Network net("hub_spoke_" + std::to_string(chainLen));
  const BlockId hub = net.addBlock("hub", cat.or3());
  int id = 0;
  for (int c = 0; c < 3; ++c) {
    BlockId prev =
        net.addBlock(std::string("s").append(std::to_string(c)), cat.button());
    for (int i = 0; i < chainLen; ++i) {
      const BlockId b = net.addBlock(
          std::string("c").append(std::to_string(id++)), cat.inverter());
      net.connect(prev, 0, b, 0);
      prev = b;
    }
    net.connect(prev, 0, hub, c);
  }
  for (int c = 0; c < 2; ++c) {
    BlockId prev = hub;
    for (int i = 0; i < chainLen; ++i) {
      const BlockId b = net.addBlock(
          std::string("d").append(std::to_string(id++)), cat.inverter());
      net.connect(prev, 0, b, 0);
      prev = b;
    }
    net.connect(prev, 0,
                net.addBlock(std::string("led").append(std::to_string(c)),
                             cat.led()),
                0);
  }
  return net;
}

/// Serial vs work-stealing on the hub-and-spoke tree.  Returns false
/// when the parallel run diverges from a completed serial run or fails
/// to complete where serial did.
bool unbalancedTree(int threads, double limit,
                    eblocks::bench::BenchJson& json) {
  const Network net = hubAndSpoke(2);
  const int n = static_cast<int>(net.innerBlocks().size());
  const partition::PartitionProblem problem(net, {});

  partition::ExhaustiveOptions base;
  base.timeLimitSeconds = limit;  // no seed: the bound must be discovered
  // This workload measures how work-stealing copes with a *weakly
  // bounded* unbalanced tree, so the admissible pruning layer is
  // disabled here -- with it on, it collapses to a few thousand nodes
  // and both runs finish instantly (bench_exhaustive_blowup measures
  // that effect).
  base.pruningBound = false;

  partition::ExhaustiveOptions serialOptions = base;
  serialOptions.threads = 1;
  const auto serial = partition::exhaustiveSearch(problem, serialOptions);

  partition::ExhaustiveOptions stealOptions = base;
  stealOptions.threads = threads;
  const auto steal = partition::exhaustiveSearch(problem, stealOptions);

  std::printf("\nUnbalanced hub-and-spoke tree (%d inner, unseeded, "
              "unpruned, %d threads, limit %.0fs)\n", n, threads, limit);
  const auto row = [&](const char* label,
                       const partition::PartitionRun& run) {
    std::printf("  %-13s %8.3fs %14llu nodes  cost %2d  imbalance %.2f%s\n",
                label, run.seconds,
                static_cast<unsigned long long>(run.explored),
                run.result.totalAfter(n), imbalance(run.workerExplored),
                run.timedOut ? "  DID NOT FINISH" : "");
  };
  row("serial", serial);
  row("work-stealing", steal);
  // Steal timing varies the parallel node count, so it is informational.
  json.add("hub_spoke", !serial.timedOut,
           {{"nodes", serial.explored},
            {"pruned", serial.pruned},
            {"cost", serial.result.totalAfter(n)}},
           {{"seconds", serial.seconds},
            {"threads", threads},
            {"parallel_nodes", steal.explored},
            {"parallel_seconds", steal.seconds}});

  if (serial.timedOut) {
    std::printf("  serial hit the limit; raise [limit-s] to compare "
                "here\n");
    return true;
  }
  if (steal.timedOut) {
    std::printf("  ERROR: work-stealing hit the limit on a workload "
                "serial completed\n");
    return false;
  }
  if (!identicalRuns(serial, steal)) {
    std::printf("  ERROR: work-stealing diverged from serial\n");
    return false;
  }
  std::printf("  work-stealing vs serial: %.2fx time, %.2fx nodes\n",
              steal.seconds > 0 ? serial.seconds / steal.seconds : 0.0,
              steal.explored > 0 ? static_cast<double>(serial.explored) /
                                       static_cast<double>(steal.explored)
                                 : 0.0);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace eblocks;
  const std::string jsonPath = bench::BenchJson::extractPath(argc, argv);
  bench::BenchJson json("bench_parallel_speedup", jsonPath);
  const int maxInner = argc > 1 ? std::atoi(argv[1]) : 17;
  const int perSize = argc > 2 ? std::atoi(argv[2]) : 3;
  const int threads = argc > 3 ? std::atoi(argv[3])
                               : partition::resolveSearchThreads(0);
  const double limit = argc > 4 ? std::atof(argv[4]) : 60.0;

  std::printf("Parallel branch-and-bound speedup (PareDown-seeded "
              "exhaustive search, work-stealing scheduler)\n");
  std::printf("per size: %d random designs, %d worker threads vs serial, "
              "limit %.0fs each\n\n", perSize, threads, limit);
  std::printf("%5s | %12s %12s %8s | %14s %14s | %6s %4s\n", "Inner",
              "Serial(s)", "Parallel(s)", "Speedup", "SerialNodes",
              "ParallelNodes", "Cost", "Same");

  bool allIdentical = true;
  for (int n = 11; n <= maxInner; n += 2) {
    double serialTime = 0, parallelTime = 0;
    double serialNodes = 0, parallelNodes = 0;
    double serialPruned = 0;
    int cost = 0, costSum = 0;
    bool identical = true, completed = true;
    for (int d = 0; d < perSize; ++d) {
      const auto net = randgen::randomNetwork(
          {.innerBlocks = n,
           .seed = static_cast<std::uint32_t>(4242 * n + d)});
      const partition::PartitionProblem problem(net, {});
      const auto seed = partition::pareDown(problem).result;

      partition::ExhaustiveOptions serialOptions;
      serialOptions.threads = 1;
      serialOptions.timeLimitSeconds = limit;
      serialOptions.seed = seed;
      const auto serial =
          partition::exhaustiveSearch(problem, serialOptions);

      partition::ExhaustiveOptions parallelOptions = serialOptions;
      parallelOptions.threads = threads;
      const auto parallel =
          partition::exhaustiveSearch(problem, parallelOptions);

      serialTime += serial.seconds;
      parallelTime += parallel.seconds;
      serialNodes += static_cast<double>(serial.explored);
      parallelNodes += static_cast<double>(parallel.explored);
      serialPruned += static_cast<double>(serial.pruned);
      cost = parallel.result.totalAfter(n);
      costSum += cost;
      completed = completed && !serial.timedOut && !parallel.timedOut;
      identical = identical && identicalRuns(serial, parallel);
    }
    allIdentical = allIdentical && identical;
    std::printf("%5d | %12.4f %12.4f %7.2fx | %14.0f %14.0f | %6d %4s\n", n,
                serialTime / perSize, parallelTime / perSize,
                parallelTime > 0 ? serialTime / parallelTime : 0.0,
                serialNodes / perSize, parallelNodes / perSize, cost,
                identical ? "yes" : "NO");
    json.add("random/n=" + std::to_string(n) +
                 "/per=" + std::to_string(perSize),
             completed,
             {{"nodes", serialNodes},
              {"pruned", serialPruned},
              {"cost", costSum}},
             {{"seconds", serialTime},
              {"threads", threads},
              {"parallel_nodes", parallelNodes},
              {"parallel_seconds", parallelTime}});
  }

  // The multi-type search runs on the same kernel; spot-check one size,
  // down to the partitions and their chosen options.
  {
    partition::ProgCostModel model;
    model.preDefinedBlockCost = 1.0;
    model.options = {partition::ProgBlockOption{"prog_2x2", 2, 2, 1.5},
                     partition::ProgBlockOption{"prog_2x3", 2, 3, 2.0}};
    const auto net = randgen::randomNetwork({.innerBlocks = 12,
                                             .seed = 20260726});
    const partition::PartitionProblem problem(net, {});
    const int n = static_cast<int>(net.innerBlocks().size());
    partition::ExhaustiveOptions serialOptions;
    serialOptions.threads = 1;
    serialOptions.timeLimitSeconds = limit;
    const auto serial =
        partition::multiTypeExhaustive(problem, model, serialOptions);
    partition::ExhaustiveOptions parallelOptions = serialOptions;
    parallelOptions.threads = threads;
    const auto parallel =
        partition::multiTypeExhaustive(problem, model, parallelOptions);
    const bool same = identicalRuns(serial, parallel);
    allIdentical = allIdentical && same;
    std::printf("\nmulti-type @12 inner: serial %.4fs, parallel %.4fs "
                "(%.2fx), cost %.1f, identical: %s\n",
                serial.seconds, parallel.seconds,
                parallel.seconds > 0 ? serial.seconds / parallel.seconds
                                     : 0.0,
                partition::toMilliCosts(model, n).totalCost(parallel.result,
                                                            n) /
                    1000.0,
                same ? "yes" : "NO");
  }

  allIdentical = unbalancedTree(threads, limit, json) && allIdentical;
  allIdentical = json.write() && allIdentical;

  std::printf("\nall results identical to serial: %s\n",
              allIdentical ? "yes" : "NO");
  return allIdentical ? 0 : 1;
}
