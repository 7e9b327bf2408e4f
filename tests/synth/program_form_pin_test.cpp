// Byte-identity pin of everything built from behavior programs: how every
// catalog type prints, the structure hashes of the Table-1 and seeded
// random designs, and every artifact synthesize() produces for those
// designs under paredown, fm and aggregation, in both counting modes, on
// 2x2 and 3x3 programmable blocks.  The digests were recorded before
// programs moved to the flat, slot-resolved form (behavior/ast.h), so they
// pin that move as output-neutral.
//
// On a mismatch a test prints its actual digests in source form; paste
// them over the recorded ones only when an output change is intended.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "behavior/printer.h"
#include "blocks/catalog.h"
#include "cache/canonical_hash.h"
#include "codegen/c_emitter.h"
#include "designs/library.h"
#include "io/binary.h"
#include "randgen/generator.h"
#include "synth/synthesizer.h"

namespace eblocks::synth {
namespace {

/// FNV-1a-64 over a sequence of byte strings; each item is terminated by
/// a NUL so that item boundaries are part of the digest.
class Fnv1a64 {
 public:
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

/// The 15 Table-1 designs, then 40 seeded random designs of 4..20 inner
/// blocks.
std::vector<Network> pinnedDesigns() {
  std::vector<Network> out;
  for (designs::DesignEntry& e : designs::designLibrary())
    out.push_back(std::move(e.network));
  for (std::uint32_t i = 0; i < 40; ++i) {
    randgen::GeneratorOptions options;
    options.innerBlocks = 4 + static_cast<int>(i % 17);
    options.seed = 7000 + i;
    out.push_back(randgen::randomNetwork(options));
  }
  return out;
}

TEST(ProgramFormPin, CatalogTypesPrintAsRecorded) {
  const blocks::Catalog catalog;  // a fresh one: names() lists only its own
  std::vector<std::string> names = catalog.names();
  for (int tt = 0; tt < 16; ++tt)
    names.push_back("logic2_" + std::to_string(tt));
  for (int tt = 0; tt < 256; ++tt)
    names.push_back("logic3_" + std::to_string(tt));
  names.push_back("splitter2");
  names.push_back("splitter3");
  for (const char* family : {"delay_", "pulse_", "prolong_"})
    for (int ticks = 1; ticks <= 8; ++ticks)
      names.push_back(family + std::to_string(ticks));
  Fnv1a64 printed;
  for (const std::string& name : names) {
    printed.add(name);
    printed.add(behavior::toSource(catalog.get(name)->program()));
  }
  EXPECT_EQ(names.size(), 323u);
  EXPECT_EQ(hex(printed.value()), "0xb303c6c7939d68d6ull");
}

TEST(ProgramFormPin, StructureHashesAsRecorded) {
  Fnv1a64 hashes;
  for (const Network& net : pinnedDesigns())
    hashes.add(cache::toHex(cache::structureHash(net)));
  EXPECT_EQ(hex(hashes.value()), "0xc9a26262c245e4eeull");
}

struct Digests {
  std::uint64_t network = 0;  ///< writeNetworkBinary(result.network)
  std::uint64_t cSource = 0;  ///< every block's cSource, in block order
  std::uint64_t fullC = 0;    ///< emitC with skeleton, harness, prefix
  std::uint64_t printed = 0;  ///< toSource(merged.program) per block
};

struct PinRow {
  const char* algorithm;
  Digests digests;
};

// clang-format off
const PinRow kPinned[] = {
    {"paredown", {0x0d7901b65f0cf042ull, 0x91ee1d438e4e6111ull, 0xb5eeaaf493d3faceull, 0x74132941fc1497c8ull}},
    {"fm", {0xa8a3a391b1ea6345ull, 0x771d7879a35f7ec1ull, 0x15200274b2636f3eull, 0xc5de17d19b713f2eull}},
    {"aggregation", {0xe311bb7fed603f63ull, 0x16e61c19f49acc78ull, 0xd8eb54033a6033abull, 0x59d692a2213815f3ull}},
};
// clang-format on

TEST(ProgramFormPin, SynthesisArtifactsAsRecorded) {
  const std::vector<Network> nets = pinnedDesigns();
  codegen::CEmitOptions full;
  full.symbolPrefix = "pin";
  full.emitMainSkeleton = true;
  full.emitTestHarness = true;
  std::string table;  // the actual digests, in kPinned's source form
  for (const PinRow& want : kPinned) {
    Fnv1a64 network, cSource, fullC, printed;
    for (const Network& net : nets)
      for (const CountingMode mode :
           {CountingMode::kEdges, CountingMode::kSignals})
        for (const int ports : {2, 3}) {
          SynthOptions options;
          options.algorithm = want.algorithm;
          options.spec = {ports, ports, mode};
          const SynthResult r = synthesize(net, options);
          network.add(io::writeNetworkBinary(r.network));
          for (const SynthesizedBlock& b : r.blocks) {
            cSource.add(b.cSource);
            fullC.add(codegen::emitC(b.merged, full));
            printed.add(behavior::toSource(b.merged.program));
          }
        }
    const Digests got{network.value(), cSource.value(), fullC.value(),
                      printed.value()};
    EXPECT_EQ(want.digests.network, got.network) << want.algorithm;
    EXPECT_EQ(want.digests.cSource, got.cSource) << want.algorithm;
    EXPECT_EQ(want.digests.fullC, got.fullC) << want.algorithm;
    EXPECT_EQ(want.digests.printed, got.printed) << want.algorithm;
    table += "    {\"" + std::string(want.algorithm) + "\", {" +
             hex(got.network) + ", " + hex(got.cSource) + ", " +
             hex(got.fullC) + ", " + hex(got.printed) + "}},\n";
  }
  if (HasFailure()) ADD_FAILURE() << "actual table:\n" << table;
}

}  // namespace
}  // namespace eblocks::synth
