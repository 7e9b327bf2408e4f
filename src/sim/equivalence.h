// Behavioral equivalence checking between two networks.
//
// Synthesis must preserve observable behavior: for any stimulus, both the
// original (pre-defined blocks) and the synthesized (programmable blocks)
// network must show the same output-block values once packets settle.
// Output blocks are matched by instance name; sensors likewise.
#ifndef EBLOCKS_SIM_EQUIVALENCE_H_
#define EBLOCKS_SIM_EQUIVALENCE_H_

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/stimulus.h"

namespace eblocks::sim {

/// A detected behavioral divergence.
struct Mismatch {
  int stepIndex = 0;          ///< stimulus step after which outputs differ
  std::string output;         ///< output block instance name
  std::int64_t expected = 0;  ///< value in the reference network
  std::int64_t actual = 0;    ///< value in the network under test
  std::string describe() const;
};

/// The output blocks of both networks paired up by instance name, in name
/// order: the outputs every checker compares.  Throws
/// std::invalid_argument when the networks' sensor or output name sets
/// differ.
std::vector<std::pair<BlockId, BlockId>> pairOutputs(const Network& reference,
                                                     const Network& candidate);

/// Runs `script` against both networks and compares all output blocks at
/// every step boundary.  Returns the first mismatch, or nullopt when the
/// networks agree everywhere.  Throws std::invalid_argument when the
/// networks' sensor/output names do not correspond.
std::optional<Mismatch> checkEquivalence(const Network& reference,
                                         const Network& candidate,
                                         const Stimulus& script,
                                         SimOptions opts = {});

/// Fuzz variant: `rounds` random scripts of `eventsPerRound` events.
std::optional<Mismatch> fuzzEquivalence(const Network& reference,
                                        const Network& candidate, int rounds,
                                        int eventsPerRound,
                                        std::uint32_t seed,
                                        SimOptions opts = {});

/// Derives the stimulus seed of fuzz round `round` from the loop seed.
/// Shared by the scalar and batch fuzz loops so both generate identical
/// scripts round-for-round.
std::uint32_t fuzzRoundSeed(std::uint32_t seed, int round);

/// A fuzz mismatch plus everything needed to reproduce it without the
/// original fuzz loop: the failing round, its derived stimulus seed, and
/// the serialized script (Stimulus::fromText round-trips it).
struct FuzzFailure {
  Mismatch mismatch;
  int round = 0;
  std::uint32_t roundSeed = 0;
  std::string script;

  std::string describe() const;
  /// Self-contained repro file: a commented header plus the script text.
  /// Feeding the whole artifact back to Stimulus::fromText replays it.
  std::string artifact() const;
};

/// Like fuzzEquivalence, but returns the reproduction bundle on failure.
std::optional<FuzzFailure> fuzzEquivalenceDetailed(const Network& reference,
                                                   const Network& candidate,
                                                   int rounds,
                                                   int eventsPerRound,
                                                   std::uint32_t seed,
                                                   SimOptions opts = {});

}  // namespace eblocks::sim

#endif  // EBLOCKS_SIM_EQUIVALENCE_H_
