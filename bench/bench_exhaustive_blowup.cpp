// Reproduces the Section-4.1 claim: exhaustive search's runtime "naturally
// increased exponentially" -- around a minute at 11 inner blocks on the
// paper's 2 GHz Athlon, unfinished after 4 hours at 14.  Modern hardware
// shifts the absolute numbers, but the exponential shape of the *unpruned*
// search (and the contrast with PareDown's microseconds) is the
// reproducible claim.  We report explored search nodes alongside time: the
// node counts are hardware-independent evidence of the blow-up.
//
// On top of the paper's table this bench ablates the admissible
// lower-bound layer (ExhaustiveOptions::pruningBound): each design runs
// the serial search with the bound off and on, asserts the results are
// bit-identical (non-zero exit on mismatch), and prints the node-count
// ratio.  Two workload families: the paper's edge-counting mode and
// kSignals, where the unpruned search has no irreducible-I/O rule at all
// and the bound bites hardest.
//
// Usage: bench_exhaustive_blowup [max-inner] [per-size] [limit-seconds]
//                                [--json=PATH]
//
// JSON records ("eblocks-bench/2", see docs/benchmarks.md), one per
// family and size, `<mode>/n=<inner>/per=<designs>`, summed over the
// size's designs:
//   exact  nodes, unpruned_nodes, pruned, cost (blocks after) -- exact
//          only when no run timed out, informational otherwise
//   info   seconds  of the pruned runs
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_json.h"
#include "partition/exhaustive.h"
#include "partition/paredown.h"
#include "randgen/generator.h"

namespace {

using namespace eblocks;

bool sameResult(const partition::PartitionRun& a,
                const partition::PartitionRun& b) {
  if (a.result.partitions.size() != b.result.partitions.size()) return false;
  for (std::size_t i = 0; i < a.result.partitions.size(); ++i)
    if (!(a.result.partitions[i] == b.result.partitions[i])) return false;
  return true;
}

/// One family = one counting mode over the seeded random designs.
/// Returns false when a completed pruned run diverged from unpruned.
bool runFamily(CountingMode mode, int maxInner, int perSize, double limit,
               bench::BenchJson& json) {
  std::printf("family=%s\n", toString(mode));
  std::printf("%5s | %15s %14s %7s %10s %8s | %12s | %12s\n", "Inner",
              "Unpruned.Nodes", "Pruned.Nodes", "Ratio", "PrunedSubt",
              "Timeouts", "Pruned.Time", "PD.Time");
  bool ok = true;
  for (int n = 6; n <= maxInner; ++n) {
    double unNodes = 0, prNodes = 0, prSubtrees = 0;
    double unTime = 0, prTime = 0, pdTime = 0;
    double cost = 0;
    int timeouts = 0;
    for (int d = 0; d < perSize; ++d) {
      const auto net = randgen::randomNetwork(
          {.innerBlocks = n, .seed = static_cast<std::uint32_t>(777 * n + d)});
      const partition::PartitionProblem problem(
          net, partition::ProgBlockSpec{.inputs = 2, .outputs = 2,
                                        .mode = mode});
      partition::ExhaustiveOptions unpruned;
      unpruned.timeLimitSeconds = limit;
      unpruned.threads = 1;  // the paper's plain serial search
      unpruned.pruningBound = false;
      const auto un = partition::exhaustiveSearch(problem, unpruned);

      partition::ExhaustiveOptions pruned = unpruned;
      pruned.pruningBound = true;
      const auto pr = partition::exhaustiveSearch(problem, pruned);

      unNodes += static_cast<double>(un.explored);
      prNodes += static_cast<double>(pr.explored);
      prSubtrees += static_cast<double>(pr.pruned);
      unTime += un.seconds;
      prTime += pr.seconds;
      cost += pr.result.totalAfter(n);
      timeouts += (un.timedOut ? 1 : 0) + (pr.timedOut ? 1 : 0);
      if (!un.timedOut && !pr.timedOut && !sameResult(un, pr)) {
        std::printf("!! n=%d seed=%u: pruned result diverged from unpruned\n",
                    n, 777 * n + d);
        ok = false;
      }
      const auto pd = partition::pareDown(problem);
      pdTime += pd.seconds;
    }
    std::printf("%5d | %15.0f %14.0f %6.1fx %10.0f %8d | %11.4fs | %10.6fs\n",
                n, unNodes / perSize, prNodes / perSize,
                prNodes > 0 ? unNodes / prNodes : 0.0,
                prSubtrees / perSize, timeouts, prTime / perSize,
                pdTime / perSize);
    json.add(std::string(toString(mode)) + "/n=" + std::to_string(n) +
                 "/per=" + std::to_string(perSize),
             timeouts == 0,
             {{"nodes", prNodes},
              {"unpruned_nodes", unNodes},
              {"pruned", prSubtrees},
              {"cost", cost}},
             {{"seconds", prTime}});
  }
  std::printf("\n");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string jsonPath = bench::BenchJson::extractPath(argc, argv);
  bench::BenchJson json("bench_exhaustive_blowup", jsonPath);
  const int maxInner = argc > 1 ? std::atoi(argv[1]) : 14;
  const int perSize = argc > 2 ? std::atoi(argv[2]) : 5;
  const double limit = argc > 3 ? std::atof(argv[3]) : 20.0;

  std::printf("Exhaustive-search blow-up (Section 4.1) and the admissible "
              "lower-bound ablation\n");
  std::printf("per size: %d random designs, limit %.0fs per run; serial, "
              "no PareDown seed (the paper's plain search); pruned and "
              "unpruned runs must return identical results\n\n",
              perSize, limit);

  bool ok = runFamily(CountingMode::kEdges, maxInner, perSize, limit, json);
  ok = runFamily(CountingMode::kSignals, maxInner, perSize, limit, json) &&
       ok;
  if (!json.write()) ok = false;
  if (ok) std::printf("pruned == unpruned on every completed run\n");
  return ok ? 0 : 1;
}
