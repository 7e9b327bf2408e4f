// Reproduces Table 1: exhaustive search vs PareDown on the 15 library
// designs.  Prints the paper's columns (inner blocks before/after,
// programmable blocks, time, block overhead, % overhead) plus the paper's
// reported values for side-by-side comparison.
//
// Usage: bench_table1 [exhaustive-time-limit-seconds] [--json=PATH]
//   Designs whose exhaustive run exceeds the limit print "--", like the
//   paper's rows for 19+ inner blocks.
//
// JSON records ("eblocks-bench/2", see docs/benchmarks.md), one per
// design, `table1/<design>`:
//   exact  paredown_cost    blocks after PareDown (serial, deterministic)
//   info   exhaustive_cost  blocks after the exhaustive search, present
//                           only when it proved optimality
//          nodes, pruned, seconds  of that parallel, time-limited search
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_json.h"
#include "designs/library.h"
#include "partition/exhaustive.h"
#include "partition/paredown.h"
#include "partition/verify.h"

namespace {

std::string ms(double seconds) {
  if (seconds < 0.001) return "<1ms";
  if (seconds < 1.0) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0fms", seconds * 1e3);
    return buf;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2fs", seconds);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string jsonPath =
      eblocks::bench::BenchJson::extractPath(argc, argv);
  eblocks::bench::BenchJson json("bench_table1", jsonPath);
  const double timeLimit = argc > 1 ? std::atof(argv[1]) : 60.0;
  std::printf("Table 1 reproduction: library designs, programmable block "
              "2x2, edge counting\n");
  std::printf("(exhaustive time limit: %.0fs; '--' = not finished, like the "
              "paper's missing rows)\n\n", timeLimit);
  std::printf(
      "%-26s %5s | %10s %9s %9s | %10s %9s %9s | %8s %9s | paper(E T/P, P T/P)\n",
      "Design", "Inner", "Exh.Total", "Exh.Prog", "Exh.Time", "PD.Total",
      "PD.Prog", "PD.Time", "Overhead", "%Overhead");

  for (const auto& entry : eblocks::designs::designLibrary()) {
    const eblocks::partition::PartitionProblem problem(entry.network, {});
    const int n = problem.innerCount();

    const auto pd = eblocks::partition::pareDown(problem);
    {
      const auto violations =
          eblocks::partition::verifyPartitioning(problem, pd.result);
      if (!violations.empty()) {
        std::printf("!! %s: PareDown result invalid: %s\n",
                    entry.name.c_str(), violations.front().c_str());
        return 1;
      }
    }

    eblocks::partition::ExhaustiveOptions exOptions;
    exOptions.timeLimitSeconds = timeLimit;
    exOptions.seed = pd.result;
    const auto ex = eblocks::partition::exhaustiveSearch(problem, exOptions);

    const int pdTotal = pd.result.totalAfter(n);
    const int pdProg = pd.result.programmableBlocks();
    char exTotal[16] = "--", exProg[16] = "--", exTime[16] = "--";
    char overhead[16] = "--", pctOverhead[16] = "--";
    if (ex.optimal) {
      std::snprintf(exTotal, sizeof exTotal, "%d", ex.result.totalAfter(n));
      std::snprintf(exProg, sizeof exProg, "%d",
                    ex.result.programmableBlocks());
      std::snprintf(exTime, sizeof exTime, "%s", ms(ex.seconds).c_str());
      const int over = pdTotal - ex.result.totalAfter(n);
      std::snprintf(overhead, sizeof overhead, "%d", over);
      std::snprintf(pctOverhead, sizeof pctOverhead, "%.0f%%",
                    ex.result.totalAfter(n) > 0
                        ? 100.0 * over / ex.result.totalAfter(n)
                        : 0.0);
    }
    const auto& paper = entry.paper;
    char paperCol[48];
    if (paper.exhaustiveTotal >= 0)
      std::snprintf(paperCol, sizeof paperCol, "(%d/%d, %d/%d)",
                    paper.exhaustiveTotal, paper.exhaustiveProg,
                    paper.paredownTotal, paper.paredownProg);
    else
      std::snprintf(paperCol, sizeof paperCol, "(--/--, %d/%d)",
                    paper.paredownTotal, paper.paredownProg);

    std::printf(
        "%-26s %5d | %10s %9s %9s | %10d %9d %9s | %8s %9s | %s\n",
        entry.name.c_str(), n, exTotal, exProg, exTime, pdTotal, pdProg,
        ms(pd.seconds).c_str(), overhead, pctOverhead, paperCol);

    std::string workload = "table1/" + entry.name;
    for (char& c : workload)
      if (c == ' ') c = '_';
    eblocks::bench::Values info = {{"nodes", ex.explored},
                                   {"pruned", ex.pruned},
                                   {"seconds", ex.seconds}};
    if (ex.optimal)
      info.emplace_back("exhaustive_cost", ex.result.totalAfter(n));
    json.add(workload, true, {{"paredown_cost", pdTotal}}, std::move(info));
  }
  return json.write() ? 0 : 1;
}
