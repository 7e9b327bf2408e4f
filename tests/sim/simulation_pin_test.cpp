// Bit-identity pin of both simulators: every value the scalar Simulator
// and the BatchSimulator report over seeded random stimuli, on the
// Figure-5 and garage designs, the 15 Table-1 designs and 20 seeded random
// designs, and on each one's paredown-synthesized network (2x2, both
// counting modes).  The digests were recorded before both simulators moved
// onto the shared slot form of behavior programs (BlockType::program), so
// they pin that move as behavior-neutral.
//
// On a mismatch the test prints its actual digests in source form; paste
// them over the recorded ones only when a behavior change is intended.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "designs/library.h"
#include "randgen/generator.h"
#include "sim/batch_simulator.h"
#include "sim/simulator.h"
#include "sim/stimulus.h"
#include "synth/synthesizer.h"

namespace eblocks::sim {
namespace {

constexpr int kScripts = 64;
constexpr int kEvents = 24;

/// FNV-1a-64 over values and byte strings; a string is terminated by a
/// NUL so that item boundaries are part of the digest.
class Fnv1a64 {
 public:
  void add(std::int64_t v) {
    for (int i = 0; i < 8; ++i)
      step(static_cast<unsigned char>(static_cast<std::uint64_t>(v) >> (8 * i)));
  }
  void add(std::string_view bytes) {
    for (const char c : bytes) step(static_cast<unsigned char>(c));
    step(0);
  }
  std::uint64_t value() const { return h_; }

 private:
  void step(unsigned char c) {
    h_ ^= c;
    h_ *= 0x100000001b3ull;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string hex(std::uint64_t v) {
  char text[24];
  std::snprintf(text, sizeof(text), "0x%016" PRIx64 "ull", v);
  return text;
}

/// Figure 5, the garage system, the 15 Table-1 designs, then 20 seeded
/// random designs of 4..16 inner blocks.
std::vector<Network> pinnedDesigns() {
  std::vector<Network> out;
  out.push_back(designs::figure5());
  out.push_back(designs::garageOpenAtNight());
  for (designs::DesignEntry& e : designs::designLibrary())
    out.push_back(std::move(e.network));
  for (std::uint32_t i = 0; i < 20; ++i) {
    randgen::GeneratorOptions options;
    options.innerBlocks = 4 + static_cast<int>(i % 13);
    options.seed = 9100 + i;
    out.push_back(randgen::randomNetwork(options));
  }
  return out;
}

std::vector<BlockId> outputBlocks(const Network& net) {
  std::vector<BlockId> out;
  for (BlockId b = 0; b < net.blockCount(); ++b)
    if (net.isOutput(b)) out.push_back(b);
  return out;
}

/// The names probed at a script's end: every port, then every name the
/// program's nodes read or write, in node order.
std::vector<std::string> probedNames(const BlockType& t) {
  std::vector<std::string> names = t.inputNames();
  names.insert(names.end(), t.outputNames().begin(), t.outputNames().end());
  const behavior::Program& p = t.program();
  for (const behavior::Node& n : p.nodes)
    if (n.slot != behavior::kNone)
      names.push_back(p.names[static_cast<std::size_t>(n.slot)]);
  return names;
}

void digestScalar(const Network& net, const std::vector<Stimulus>& scripts,
                  Fnv1a64& h) {
  const std::vector<BlockId> outputs = outputBlocks(net);
  std::vector<std::vector<std::string>> probes;
  for (BlockId b = 0; b < net.blockCount(); ++b)
    probes.push_back(probedNames(*net.block(b).type));
  Simulator sim(net);
  for (const Stimulus& script : scripts) {
    sim.reset();
    try {
      for (const StimulusStep& s : script.steps()) {
        if (s.kind == StimulusStep::Kind::kSetSensor)
          sim.apply(s.sensor, s.value);
        else
          sim.tick();
        for (const BlockId o : outputs) h.add(sim.outputValue(o));
      }
    } catch (const SimError& e) {
      h.add(e.what());
    }
    for (const TraceEntry& t : sim.trace()) {
      h.add(static_cast<std::int64_t>(t.time));
      h.add(static_cast<std::int64_t>(t.block));
      h.add(t.value);
    }
    h.add(static_cast<std::int64_t>(sim.packetsDelivered()));
    h.add(static_cast<std::int64_t>(sim.activations()));
    for (BlockId b = 0; b < net.blockCount(); ++b)
      for (const std::string& name : probes[b]) h.add(sim.probe(b, name));
  }
}

void digestBatch(const Network& net, const std::vector<Stimulus>& scripts,
                 Fnv1a64& h) {
  const std::vector<BlockId> outputs = outputBlocks(net);
  try {
    BatchSimulator batch(net);
    const BatchScript packed = packStimuli(net, scripts);
    batch.reset(packed.allLanes());
    for (const BatchStep& step : packed.steps) {
      batch.apply(step);
      for (const BlockId o : outputs) {
        const LaneVector& v = batch.outputLanes(o);
        for (int lane = 0; lane < packed.laneCount; ++lane) h.add(v.lane(lane));
      }
    }
    h.add(static_cast<std::int64_t>(batch.packetsDelivered()));
    h.add(static_cast<std::int64_t>(batch.activations()));
    h.add(static_cast<std::int64_t>(batch.faultedLanes()));
  } catch (const SimError& e) {
    h.add(e.what());
  }
}

struct PinRow {
  const char* networks;
  std::uint64_t scalar;
  std::uint64_t batch;
};

// clang-format off
const PinRow kPinned[] = {
    {"designs", 0xedb9e0284951c829ull, 0xef37497d2bf4c41aull},
    {"paredown-edges", 0xfe45e70ac5635bd5ull, 0x6cb60b71af30d5e0ull},
    {"paredown-signals", 0x39dc7a407c9ccbddull, 0xb9be110392ff333cull},
};
// clang-format on

TEST(SimulationPin, BothSimulatorsAsRecorded) {
  const std::vector<Network> designs = pinnedDesigns();
  ASSERT_EQ(designs.size(), 37u);
  std::string table;  // the actual digests, in kPinned's source form
  for (const PinRow& want : kPinned) {
    const std::string_view kind = want.networks;
    Fnv1a64 scalar, batch;
    for (std::size_t i = 0; i < designs.size(); ++i) {
      const std::vector<Stimulus> scripts = randomStimulusCorpus(
          designs[i], kScripts, kEvents, 5000 + static_cast<std::uint32_t>(i));
      Network synthesized;
      const Network* net = &designs[i];
      if (kind != "designs") {
        synth::SynthOptions options;
        options.spec = {2, 2,
                        kind == "paredown-edges" ? CountingMode::kEdges
                                                 : CountingMode::kSignals};
        options.emitC = false;
        synthesized = synth::synthesize(designs[i], options).network;
        net = &synthesized;
      }
      digestScalar(*net, scripts, scalar);
      digestBatch(*net, scripts, batch);
    }
    EXPECT_EQ(want.scalar, scalar.value()) << want.networks;
    EXPECT_EQ(want.batch, batch.value()) << want.networks;
    table += "    {\"" + std::string(kind) + "\", " + hex(scalar.value()) +
             ", " + hex(batch.value()) + "},\n";
  }
  if (HasFailure()) ADD_FAILURE() << "actual table:\n" << table;
}

}  // namespace
}  // namespace eblocks::sim
