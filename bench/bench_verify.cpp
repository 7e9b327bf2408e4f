// Verification throughput: per-stimulus scalar checkEquivalence vs the
// bit-parallel batch checker (sim/batch_equivalence.h) on a pinned corpus
// over the library designs.  The batch checker packs 64 stimulus lanes
// per machine word through the behavior interpreter, so the headline
// number is stimuli/second, printed with the measured batch/scalar ratio;
// docs/benchmarks.md records the measured figures.
//
// Usage: bench_verify [scripts] [events] [--json=PATH]
//   scripts  stimulus scripts per design (default 256)
//   events   events per script (default 40)
//
// JSON records ("eblocks-bench/2", see docs/benchmarks.md), one per
// design, `verify/<design>`:
//   exact  steps  stimulus steps checked (identical for the scalar and
//                 batch sweeps by the verdict-identity contract -- any
//                 drift is a checker regression, not noise)
//   info   scalar_seconds, batch_seconds, speedup
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_json.h"
#include "designs/library.h"
#include "sim/batch_equivalence.h"
#include "sim/equivalence.h"
#include "sim/stimulus.h"

namespace {

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string jsonPath =
      eblocks::bench::BenchJson::extractPath(argc, argv);
  eblocks::bench::BenchJson json("bench_verify", jsonPath);
  const int scripts = argc > 1 ? std::atoi(argv[1]) : 256;
  const int events = argc > 2 ? std::atoi(argv[2]) : 40;
  constexpr std::uint32_t kCorpusSeed = 2026;

  std::printf("Equivalence-check throughput: scalar vs batch (%d scripts x "
              "%d events per design)\n\n", scripts, events);
  std::printf("%-26s %8s | %10s %12s | %10s %12s | %8s\n", "Design", "Steps",
              "Scalar[s]", "Scalar st/s", "Batch[s]", "Batch st/s",
              "Speedup");

  double scalarTotal = 0.0, batchTotal = 0.0;
  std::uint64_t stimuliTotal = 0;
  std::uint32_t seed = kCorpusSeed;
  for (const auto& entry : eblocks::designs::designLibrary()) {
    const eblocks::Network& net = entry.network;
    const std::vector<eblocks::sim::Stimulus> corpus =
        eblocks::sim::randomStimulusCorpus(net, scripts, events, seed++);
    std::uint64_t steps = 0;
    for (const auto& s : corpus) steps += s.steps().size();

    const double s0 = now();
    std::uint64_t mismatches = 0;
    for (const auto& s : corpus)
      if (eblocks::sim::checkEquivalence(net, net, s)) ++mismatches;
    const double scalarSec = now() - s0;

    const double b0 = now();
    if (eblocks::sim::batchCheckEquivalence(net, net, corpus)) ++mismatches;
    const double batchSec = now() - b0;

    if (mismatches) {
      std::fprintf(stderr, "bench_verify: self-check mismatch on '%s'\n",
                   entry.name.c_str());
      return 1;
    }

    const double n = static_cast<double>(corpus.size());
    const double speedup = batchSec > 0 ? scalarSec / batchSec : 0.0;
    std::printf("%-26s %8llu | %10.4f %12.0f | %10.4f %12.0f | %7.1fx\n",
                entry.name.c_str(), static_cast<unsigned long long>(steps),
                scalarSec, n / scalarSec, batchSec, n / batchSec, speedup);
    scalarTotal += scalarSec;
    batchTotal += batchSec;
    stimuliTotal += corpus.size();

    json.add("verify/" + entry.name, true, {{"steps", steps}},
             {{"scalar_seconds", scalarSec},
              {"batch_seconds", batchSec},
              {"speedup", speedup}});
  }

  const double overall = batchTotal > 0 ? scalarTotal / batchTotal : 0.0;
  std::printf("\nOverall: %llu stimuli; scalar %.0f st/s, batch %.0f st/s, "
              "speedup %.1fx\n",
              static_cast<unsigned long long>(stimuliTotal),
              stimuliTotal / scalarTotal, stimuliTotal / batchTotal, overall);
  return json.write() ? 0 : 1;
}
