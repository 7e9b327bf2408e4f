#include "sim/equivalence.h"

#include <algorithm>
#include <stdexcept>
#include <string_view>

namespace eblocks::sim {

std::string Mismatch::describe() const {
  return "after step " + std::to_string(stepIndex) + ", output '" + output +
         "': reference=" + std::to_string(expected) +
         " candidate=" + std::to_string(actual);
}

namespace {

using Named = std::pair<std::string_view, BlockId>;

/// Every block of `net` that `pred` selects, by name.
std::vector<Named> byName(const Network& net,
                          bool (Network::*pred)(BlockId) const) {
  std::vector<Named> out;
  for (BlockId b = 0; b < net.blockCount(); ++b)
    if ((net.*pred)(b)) out.emplace_back(net.block(b).name, b);
  std::ranges::sort(out);
  return out;
}

bool sameNames(const std::vector<Named>& a, const std::vector<Named>& b) {
  return std::ranges::equal(a, b, {}, &Named::first, &Named::first);
}

}  // namespace

std::vector<std::pair<BlockId, BlockId>> pairOutputs(
    const Network& reference, const Network& candidate) {
  if (!sameNames(byName(reference, &Network::isSensor),
                 byName(candidate, &Network::isSensor)))
    throw std::invalid_argument(
        "checkEquivalence: sensor sets differ between networks");
  const auto ref = byName(reference, &Network::isOutput);
  const auto cand = byName(candidate, &Network::isOutput);
  if (!sameNames(ref, cand))
    throw std::invalid_argument(
        "checkEquivalence: output sets differ between networks");
  std::vector<std::pair<BlockId, BlockId>> out;
  out.reserve(ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i)
    out.emplace_back(ref[i].second, cand[i].second);
  return out;
}

std::optional<Mismatch> checkEquivalence(const Network& reference,
                                         const Network& candidate,
                                         const Stimulus& script,
                                         SimOptions opts) {
  // Equivalence runs never read the trace; don't pay for recording it.
  opts.recordTrace = false;
  const auto outputs = pairOutputs(reference, candidate);
  Simulator refSim(reference, opts);
  Simulator candSim(candidate, opts);
  const auto& steps = script.steps();
  for (int i = 0; i < static_cast<int>(steps.size()); ++i) {
    const StimulusStep& s = steps[static_cast<std::size_t>(i)];
    if (s.kind == StimulusStep::Kind::kSetSensor) {
      refSim.setSensor(s.sensor, s.value);
      refSim.settle();
      candSim.setSensor(s.sensor, s.value);
      candSim.settle();
    } else {
      refSim.tick();
      candSim.tick();
    }
    for (const auto& [refOut, candOut] : outputs) {
      const std::int64_t e = refSim.outputValue(refOut);
      const std::int64_t a = candSim.outputValue(candOut);
      if (e != a) return Mismatch{i, reference.block(refOut).name, e, a};
    }
  }
  return std::nullopt;
}

std::uint32_t fuzzRoundSeed(std::uint32_t seed, int round) {
  return seed + static_cast<std::uint32_t>(round) * 9973u;
}

std::optional<Mismatch> fuzzEquivalence(const Network& reference,
                                        const Network& candidate, int rounds,
                                        int eventsPerRound, std::uint32_t seed,
                                        SimOptions opts) {
  for (int r = 0; r < rounds; ++r) {
    const Stimulus script =
        randomStimulus(reference, eventsPerRound, fuzzRoundSeed(seed, r));
    if (auto m = checkEquivalence(reference, candidate, script, opts)) return m;
  }
  return std::nullopt;
}

std::string FuzzFailure::describe() const {
  return mismatch.describe() + " (fuzz round " + std::to_string(round) +
         ", stimulus seed " + std::to_string(roundSeed) + ")";
}

std::string FuzzFailure::artifact() const {
  std::string out;
  out += "# eblocks fuzz failure\n";
  out += "# round: " + std::to_string(round) + "\n";
  out += "# stimulus seed: " + std::to_string(roundSeed) + "\n";
  out += "# " + mismatch.describe() + "\n";
  out += script;
  return out;
}

std::optional<FuzzFailure> fuzzEquivalenceDetailed(const Network& reference,
                                                   const Network& candidate,
                                                   int rounds,
                                                   int eventsPerRound,
                                                   std::uint32_t seed,
                                                   SimOptions opts) {
  for (int r = 0; r < rounds; ++r) {
    const std::uint32_t rs = fuzzRoundSeed(seed, r);
    const Stimulus script = randomStimulus(reference, eventsPerRound, rs);
    if (auto m = checkEquivalence(reference, candidate, script, opts)) {
      FuzzFailure f;
      f.mismatch = *m;
      f.round = r;
      f.roundSeed = rs;
      f.script = script.toText();
      return f;
    }
  }
  return std::nullopt;
}

}  // namespace eblocks::sim
