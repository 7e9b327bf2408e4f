// Batch equivalence checking: the verification-throughput layer.
//
// These are drop-in batch analogs of sim/equivalence.h: the same verdicts,
// computed ~kLanes scripts at a time through the bit-parallel
// BatchSimulator.  The contract, by construction, is *verdict identity*:
//
//   batchCheckEquivalence(ref, cand, scripts) ==
//       the first non-null result of checkEquivalence(ref, cand, s)
//       for s in scripts, in order (including thrown exceptions).
//
// The batch pass only *detects* which lanes diverge (or hit a behavior
// fault); the earliest diverging script is then replayed through the
// scalar Simulator, which produces today's exact Mismatch report -- field
// for field what a sequential scalar loop would have returned.  A chunk
// whose batch pass throws SimError (an event budget overflow, or a
// behavior BlockType rejects, which fails both simulators' constructors)
// falls back to the scalar loop, which then throws or reports exactly as
// a sequential loop would.
#ifndef EBLOCKS_SIM_BATCH_EQUIVALENCE_H_
#define EBLOCKS_SIM_BATCH_EQUIVALENCE_H_

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sim/batch_simulator.h"
#include "sim/equivalence.h"

namespace eblocks::sim {

/// Checks `candidate` against `reference` on every script, kLanes scripts
/// per batch pass.  Returns the first mismatch in script order, exactly as
/// a sequential loop of checkEquivalence calls would.  Throws
/// std::invalid_argument when sensor/output name sets differ.
std::optional<Mismatch> batchCheckEquivalence(const Network& reference,
                                              const Network& candidate,
                                              std::span<const Stimulus> scripts,
                                              SimOptions opts = {});

/// Batch analog of fuzzEquivalence: same seed derivation (fuzzRoundSeed),
/// same scripts, same verdict -- rounds are packed kLanes per pass.
std::optional<Mismatch> batchFuzzEquivalence(const Network& reference,
                                             const Network& candidate,
                                             int rounds, int eventsPerRound,
                                             std::uint32_t seed,
                                             SimOptions opts = {});

/// Like batchFuzzEquivalence, but returns the reproduction bundle
/// (round, derived seed, serialized script) on failure.
std::optional<FuzzFailure> batchFuzzEquivalenceDetailed(
    const Network& reference, const Network& candidate, int rounds,
    int eventsPerRound, std::uint32_t seed, SimOptions opts = {});

/// One (reference, candidate) pair of a verification corpus.
struct EquivalencePair {
  const Network* reference = nullptr;
  const Network* candidate = nullptr;
  std::string label;  ///< reported back in the verdict
};

/// Per-pair outcome; nullopt mismatch means the pair is equivalent on
/// every script.
struct PairVerdict {
  std::string label;
  std::optional<Mismatch> mismatch;
};

/// Checks a whole corpus of pairs against a shared script set; one
/// verdict per pair, in corpus order.
std::vector<PairVerdict> batchCheckCorpus(
    std::span<const EquivalencePair> pairs,
    std::span<const Stimulus> scripts, SimOptions opts = {});

}  // namespace eblocks::sim

#endif  // EBLOCKS_SIM_BATCH_EQUIVALENCE_H_
