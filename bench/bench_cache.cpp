// Solution-cache payoff: cold exact synthesis vs cache-served synthesis
// on a repeated + renamed design mix (cache/solution_store.h).
//
// Two workload tiers, one shared store:
//
//  - The Table-1 designs, each requested `repeats` times alternating the
//    original network with freshly relabeled isomorphic copies -- the mix
//    a design team iterating on one system produces.  These designs are
//    small enough that the fixed synthesis overhead (verification gate,
//    codegen) dominates both paths, so their story is the HIT RATE:
//    renamed copies must hit through the canonical hash.
//  - Scaled networks (randgen largeNetwork presets, pinned seeds) where
//    the exact branch-and-bound runs 10^6+ nodes.  Here the search is
//    the cost, the cache deletes it, and the headline speedup lives.
//    Acceptance bar: >=100x mean-cold over mean-hit on this tier.
//
// Every repeat must be an exact hit, and every hit is checked against the
// cold run: identical binary frame on verbatim repeats, identical cost on
// renamed ones.  Any miss or mismatch fails the bench.
//
// Usage: bench_cache [repeats] [--json=PATH]
//   repeats  cache-served requests per design (default 32)
//
// JSON records ("eblocks-bench/2", see docs/benchmarks.md):
//   cache/<design>  one per design
//     exact  nodes, pruned, inner_after  of the cold run (seeded serial
//            search; inner_after = inner blocks after synthesis)
//     info   cold_seconds, hit_seconds (mean over the repeats), speedup
//   cache/mix       the whole repeated+renamed mix
//     info   hits, hit_rate, scaled_speedup (the scaled tier's
//            mean-cold over mean-hit)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_json.h"
#include "cache/solution_store.h"
#include "designs/library.h"
#include "io/binary.h"
#include "randgen/generator.h"
#include "synth/synthesizer.h"

namespace {

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct MixResult {
  double coldSec = 0.0;  ///< one cold synthesis, no cache
  double hitSec = 0.0;   ///< mean cache-served synthesis over the repeats
  bool ok = false;
};

/// One design's repeated+renamed mix against the shared store: cold run,
/// populate, then `repeats` requests alternating verbatim and relabeled.
MixResult runMix(const std::string& name, const eblocks::Network& net,
                 eblocks::synth::SynthOptions options, int repeats,
                 eblocks::bench::BenchJson& json) {
  using eblocks::synth::CacheOutcome;
  MixResult mix;

  const auto cache = options.cache;
  options.cache = nullptr;
  const double c0 = now();
  const eblocks::synth::SynthResult cold =
      eblocks::synth::synthesize(net, options);
  mix.coldSec = now() - c0;
  const std::string coldFrame = eblocks::io::writeNetworkBinary(cold.network);

  options.cache = cache;
  (void)eblocks::synth::synthesize(net, options);  // populate

  double warmSec = 0.0;
  for (int r = 0; r < repeats; ++r) {
    const bool renamed = (r % 2) != 0;
    const eblocks::Network request =
        renamed ? eblocks::randgen::relabeledCopy(
                      net, static_cast<std::uint32_t>(r))
                : net;
    const double w0 = now();
    const eblocks::synth::SynthResult hit =
        eblocks::synth::synthesize(request, options);
    warmSec += now() - w0;

    if (hit.cacheOutcome != CacheOutcome::kHit) {
      std::fprintf(stderr, "bench_cache: '%s' repeat %d missed\n",
                   name.c_str(), r);
      return mix;
    }
    const bool identical =
        renamed ? hit.innerAfter == cold.innerAfter &&
                      hit.programmableBlocks == cold.programmableBlocks
                : eblocks::io::writeNetworkBinary(hit.network) == coldFrame;
    if (!identical) {
      std::fprintf(stderr, "bench_cache: '%s' repeat %d not identical\n",
                   name.c_str(), r);
      return mix;
    }
  }
  mix.hitSec = warmSec / repeats;
  mix.ok = true;

  const double speedup = mix.hitSec > 0 ? mix.coldSec / mix.hitSec : 0.0;
  std::printf("%-26s %10s %10llu | %12.6f %12.6f | %8.0fx\n", name.c_str(),
              options.algorithm.c_str(),
              static_cast<unsigned long long>(cold.run.explored), mix.coldSec,
              mix.hitSec, speedup);

  json.add("cache/" + name, true,
           {{"nodes", cold.run.explored},
            {"pruned", cold.run.pruned},
            {"inner_after", cold.innerAfter}},
           {{"cold_seconds", mix.coldSec},
            {"hit_seconds", mix.hitSec},
            {"speedup", speedup}});
  return mix;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string jsonPath =
      eblocks::bench::BenchJson::extractPath(argc, argv);
  eblocks::bench::BenchJson json("bench_cache", jsonPath);
  const int repeats = argc > 1 ? std::atoi(argv[1]) : 32;

  const auto store = std::make_shared<eblocks::cache::SolutionStore>(
      eblocks::cache::StoreOptions{});

  std::printf("Solution cache: cold exact synthesis vs cache hits "
              "(%d repeats per design, half renamed)\n\n", repeats);
  std::printf("%-26s %10s %10s | %12s %12s | %9s\n", "Design", "Algo",
              "Explored", "Cold[s]", "Hit[s]", "Speedup");

  for (const auto& entry : eblocks::designs::designLibrary()) {
    eblocks::synth::SynthOptions options;
    // Designs past the exhaustive horizon ride along under the
    // deterministic fm heuristic; the exact-search story is below.
    options.algorithm = entry.innerBlocks <= 16 ? "exhaustive" : "fm";
    options.engine.threads = 1;
    options.cache = store;
    if (!runMix(entry.name, entry.network, options, repeats, json).ok)
      return 1;
  }

  // The headline tier: pinned scaled networks where the exact search
  // runs long enough to dominate, so hit latency is pure savings.
  struct Scaled { int inner; std::uint32_t seed; };
  double coldTotal = 0.0, hitTotal = 0.0;
  int scaledCount = 0;
  for (const Scaled& s : {Scaled{20, 36}, Scaled{22, 7}, Scaled{23, 7}}) {
    const eblocks::Network net = eblocks::randgen::randomNetwork(
        eblocks::randgen::GeneratorOptions::largeNetwork(s.inner, s.seed));
    eblocks::synth::SynthOptions options;
    options.algorithm = "exhaustive";
    options.engine.threads = 1;
    options.cache = store;
    const std::string name = "scaled/n=" + std::to_string(s.inner) +
                             "/seed=" + std::to_string(s.seed);
    const MixResult mix = runMix(name, net, options, repeats, json);
    if (!mix.ok) return 1;
    coldTotal += mix.coldSec;
    hitTotal += mix.hitSec;
    ++scaledCount;
  }

  const auto stats = store->stats();
  const double rate =
      stats.hits + stats.misses > 0
          ? static_cast<double>(stats.hits) / (stats.hits + stats.misses)
          : 0.0;
  const double overall = hitTotal > 0 ? coldTotal / hitTotal : 0.0;
  std::printf("\nMix: %llu hits / %llu lookups (%.1f%% hit rate).  Scaled "
              "tier: mean cold %.4fs, mean hit %.6fs, speedup %.0fx "
              "(acceptance bar: >=100x)\n",
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.hits + stats.misses),
              100.0 * rate, coldTotal / scaledCount, hitTotal / scaledCount,
              overall);
  if (overall < 100.0) {
    std::fprintf(stderr, "bench_cache: scaled-tier speedup %.0fx is below "
                         "the 100x acceptance bar\n", overall);
    return 1;
  }

  json.add("cache/mix", false,
           {{"hits", stats.hits},
            {"hit_rate", rate},
            {"scaled_speedup", overall}});
  return json.write() ? 0 : 1;
}
