#include "sim/batch_equivalence.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace eblocks::sim {

namespace {

BatchSimOptions toBatchOptions(const SimOptions& opts) {
  BatchSimOptions b;
  b.hopLatency = opts.hopLatency;
  b.maxEventsPerSettle = opts.maxEventsPerSettle;
  return b;
}

/// The scalar loop the batch pass must be verdict-identical to.  Also the
/// fallback when the batch simulator rejects a network or overflows its
/// event budget.
std::optional<std::pair<std::size_t, Mismatch>> scalarSweep(
    const Network& reference, const Network& candidate,
    std::span<const Stimulus> scripts, const SimOptions& opts,
    std::size_t base) {
  for (std::size_t i = 0; i < scripts.size(); ++i)
    if (auto m = checkEquivalence(reference, candidate, scripts[i], opts))
      return std::make_pair(base + i, *m);
  return std::nullopt;
}

/// One batch pass over at most kLanes scripts.  Returns the global index
/// (base + lane) and Mismatch of the earliest diverging script.
std::optional<std::pair<std::size_t, Mismatch>> checkChunk(
    const Network& reference, const Network& candidate,
    std::span<const Stimulus> scripts,
    const std::vector<std::pair<BlockId, BlockId>>& outputs,
    const SimOptions& opts, std::size_t base) {
  LaneMask flagged = 0;
  try {
    BatchSimulator refSim(reference, toBatchOptions(opts));
    BatchSimulator candSim(candidate, toBatchOptions(opts));
    const BatchScript refScript = packStimuli(reference, scripts);
    const BatchScript candScript = packStimuli(candidate, scripts);
    refSim.reset(refScript.allLanes());
    candSim.reset(candScript.allLanes());
    for (std::size_t i = 0; i < refScript.steps.size(); ++i) {
      refSim.apply(refScript.steps[i]);
      candSim.apply(candScript.steps[i]);
      for (const auto& [refOut, candOut] : outputs)
        flagged |= laneDiff(refSim.outputLanes(refOut),
                            candSim.outputLanes(candOut)) &
                   refScript.activeAtStep[i];
    }
    // Faulted lanes carry unspecified values; resolve them by scalar
    // replay like any diverging lane (the replay re-raises the fault
    // exactly where a sequential scalar loop would have).
    flagged |= refSim.faultedLanes() | candSim.faultedLanes();
  } catch (const SimError&) {
    return scalarSweep(reference, candidate, scripts, opts, base);
  } catch (const std::invalid_argument&) {
    // e.g. a script naming a sensor neither network has: the scalar loop
    // reports this through Simulator::setSensor's SimError instead.
    return scalarSweep(reference, candidate, scripts, opts, base);
  }
  // Replay diverging scripts in script order: the first one the scalar
  // checker confirms is exactly what the sequential loop would return.
  for (std::size_t lane = 0; lane < scripts.size(); ++lane) {
    if (!((flagged >> lane) & 1u)) continue;
    if (auto m = checkEquivalence(reference, candidate, scripts[lane], opts))
      return std::make_pair(base + lane, *m);
    // A lane can be flagged without a scalar mismatch only through fault
    // quarantine; checkEquivalence then threw, so reaching here means the
    // scalar run is clean -- keep scanning.
  }
  return std::nullopt;
}

/// Chunked driver shared by every public entry point.
std::optional<std::pair<std::size_t, Mismatch>> checkScriptsIndexed(
    const Network& reference, const Network& candidate,
    std::span<const Stimulus> scripts, SimOptions opts) {
  const auto outputs = pairOutputs(reference, candidate);

  opts.recordTrace = false;  // scalar replays pay no tracing either
  for (std::size_t offset = 0; offset < scripts.size();
       offset += static_cast<std::size_t>(kLanes)) {
    const std::size_t count = std::min(static_cast<std::size_t>(kLanes),
                                       scripts.size() - offset);
    if (auto m = checkChunk(reference, candidate,
                            scripts.subspan(offset, count), outputs, opts,
                            offset))
      return m;
  }
  return std::nullopt;
}

std::vector<Stimulus> fuzzScripts(const Network& reference, int rounds,
                                  int eventsPerRound, std::uint32_t seed) {
  std::vector<Stimulus> scripts;
  scripts.reserve(static_cast<std::size_t>(std::max(0, rounds)));
  for (int r = 0; r < rounds; ++r)
    scripts.push_back(
        randomStimulus(reference, eventsPerRound, fuzzRoundSeed(seed, r)));
  return scripts;
}

}  // namespace

std::optional<Mismatch> batchCheckEquivalence(const Network& reference,
                                              const Network& candidate,
                                              std::span<const Stimulus> scripts,
                                              SimOptions opts) {
  if (auto m = checkScriptsIndexed(reference, candidate, scripts, opts))
    return m->second;
  return std::nullopt;
}

std::optional<Mismatch> batchFuzzEquivalence(const Network& reference,
                                             const Network& candidate,
                                             int rounds, int eventsPerRound,
                                             std::uint32_t seed,
                                             SimOptions opts) {
  const auto scripts = fuzzScripts(reference, rounds, eventsPerRound, seed);
  if (auto m = checkScriptsIndexed(reference, candidate, scripts, opts))
    return m->second;
  return std::nullopt;
}

std::optional<FuzzFailure> batchFuzzEquivalenceDetailed(
    const Network& reference, const Network& candidate, int rounds,
    int eventsPerRound, std::uint32_t seed, SimOptions opts) {
  const auto scripts = fuzzScripts(reference, rounds, eventsPerRound, seed);
  const auto m = checkScriptsIndexed(reference, candidate, scripts, opts);
  if (!m) return std::nullopt;
  const int round = static_cast<int>(m->first);
  FuzzFailure f;
  f.mismatch = m->second;
  f.round = round;
  f.roundSeed = fuzzRoundSeed(seed, round);
  f.script = scripts[m->first].toText();
  return f;
}

std::vector<PairVerdict> batchCheckCorpus(
    std::span<const EquivalencePair> pairs,
    std::span<const Stimulus> scripts, SimOptions opts) {
  std::vector<PairVerdict> verdicts;
  verdicts.reserve(pairs.size());
  for (const EquivalencePair& p : pairs)
    verdicts.push_back(PairVerdict{
        p.label,
        batchCheckEquivalence(*p.reference, *p.candidate, scripts, opts)});
  return verdicts;
}

}  // namespace eblocks::sim
