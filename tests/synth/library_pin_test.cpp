// Whole-library byte-identity pin: FNV-1a-64 digests of everything
// synthesize() produces for the 15 Table-1 designs under paredown, in both
// port-counting modes.  Any change to partitioning, merge renaming, the
// printer, the C emitter, or the network frame encoding moves a digest.
// The table was recorded before the behavior pipeline moved to shared,
// parse-once programs, so it also pins that move as output-neutral.
//
// On a mismatch the test prints the full table in source form; paste it
// over kPinned only when an output change is intended.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "behavior/printer.h"
#include "codegen/c_emitter.h"
#include "designs/library.h"
#include "io/binary.h"
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

struct Digests {
  std::uint64_t network = 0;  ///< writeNetworkBinary(result.network)
  std::uint64_t cSource = 0;  ///< every block's cSource, in block order
  std::uint64_t fullC = 0;    ///< emitC with skeleton, harness, prefix
  std::uint64_t printed = 0;  ///< toSource(merged.program) per block
};

struct PinRow {
  const char* design;
  CountingMode mode;
  Digests digests;
};

Digests digestsOf(const Network& net, CountingMode mode) {
  SynthOptions options;
  options.algorithm = "paredown";
  options.spec.mode = mode;
  const SynthResult r = synthesize(net, options);
  codegen::CEmitOptions full;
  full.symbolPrefix = "pin";
  full.emitMainSkeleton = true;
  full.emitTestHarness = true;
  Fnv1a64 network, cSource, fullC, printed;
  network.add(io::writeNetworkBinary(r.network));
  for (const SynthesizedBlock& b : r.blocks) {
    cSource.add(b.cSource);
    fullC.add(codegen::emitC(b.merged, full));
    printed.add(behavior::toSource(b.merged.program));
  }
  return {network.value(), cSource.value(), fullC.value(), printed.value()};
}

const char* modeName(CountingMode m) {
  return m == CountingMode::kEdges ? "CountingMode::kEdges"
                                   : "CountingMode::kSignals";
}

// clang-format off
const PinRow kPinned[] = {
    {"Ignition Illuminator", CountingMode::kEdges,
     {0x4af7674ffb8b0442ull, 0x383551d4493d937dull, 0x62ccbc265ea7af74ull, 0xc92518e2f823f0bdull}},
    {"Ignition Illuminator", CountingMode::kSignals,
     {0x4af7674ffb8b0442ull, 0x383551d4493d937dull, 0x62ccbc265ea7af74ull, 0xc92518e2f823f0bdull}},
    {"Night Lamp Controller", CountingMode::kEdges,
     {0xc205a60cd9c1a373ull, 0x383551d4493d937dull, 0x62ccbc265ea7af74ull, 0xc92518e2f823f0bdull}},
    {"Night Lamp Controller", CountingMode::kSignals,
     {0xc205a60cd9c1a373ull, 0x383551d4493d937dull, 0x62ccbc265ea7af74ull, 0xc92518e2f823f0bdull}},
    {"Entry Gate Detector", CountingMode::kEdges,
     {0xd00f052dacc73e18ull, 0x070e2359e219b309ull, 0xdef9cc56374977e6ull, 0x7f221b53a6f254cfull}},
    {"Entry Gate Detector", CountingMode::kSignals,
     {0xd00f052dacc73e18ull, 0x070e2359e219b309ull, 0xdef9cc56374977e6ull, 0x7f221b53a6f254cfull}},
    {"Carpool Alert", CountingMode::kEdges,
     {0x41506e92b47fc6b2ull, 0x5e955694145406deull, 0x97912dc01a3047b1ull, 0x4d1fc20ebb5b0e80ull}},
    {"Carpool Alert", CountingMode::kSignals,
     {0x41506e92b47fc6b2ull, 0x5e955694145406deull, 0x97912dc01a3047b1ull, 0x4d1fc20ebb5b0e80ull}},
    {"Cafeteria Food Alert", CountingMode::kEdges,
     {0x2fc90d130de5b0aeull, 0xd3bdd040bccd9cfeull, 0x7e909d526baee593ull, 0x548bee7cf09b988dull}},
    {"Cafeteria Food Alert", CountingMode::kSignals,
     {0x2fc90d130de5b0aeull, 0xd3bdd040bccd9cfeull, 0x7e909d526baee593ull, 0x548bee7cf09b988dull}},
    {"Podium Timer 2", CountingMode::kEdges,
     {0xcb06b720f9c1b4daull, 0x26ede02ee1df5746ull, 0x70c7cc35f1c71653ull, 0xc7220142b6db4194ull}},
    {"Podium Timer 2", CountingMode::kSignals,
     {0xcb06b720f9c1b4daull, 0x26ede02ee1df5746ull, 0x70c7cc35f1c71653ull, 0xc7220142b6db4194ull}},
    {"Any Window Open Alarm", CountingMode::kEdges,
     {0xa92dfa40c27efdaeull, 0xcbf29ce484222325ull, 0xcbf29ce484222325ull, 0xcbf29ce484222325ull}},
    {"Any Window Open Alarm", CountingMode::kSignals,
     {0xa92dfa40c27efdaeull, 0xcbf29ce484222325ull, 0xcbf29ce484222325ull, 0xcbf29ce484222325ull}},
    {"Two Button Light", CountingMode::kEdges,
     {0x18a1d152428c926eull, 0x85370a7acc2344e7ull, 0x24d2176e0914f15eull, 0xc5c3194618018484ull}},
    {"Two Button Light", CountingMode::kSignals,
     {0x18a1d152428c926eull, 0x85370a7acc2344e7ull, 0x24d2176e0914f15eull, 0xc5c3194618018484ull}},
    {"Doorbell Extender 1", CountingMode::kEdges,
     {0xb8067a07b732cd31ull, 0xcbf29ce484222325ull, 0xcbf29ce484222325ull, 0xcbf29ce484222325ull}},
    {"Doorbell Extender 1", CountingMode::kSignals,
     {0xb8067a07b732cd31ull, 0xcbf29ce484222325ull, 0xcbf29ce484222325ull, 0xcbf29ce484222325ull}},
    {"Doorbell Extender 2", CountingMode::kEdges,
     {0x0f49a141c1e0e84bull, 0xcbf29ce484222325ull, 0xcbf29ce484222325ull, 0xcbf29ce484222325ull}},
    {"Doorbell Extender 2", CountingMode::kSignals,
     {0x0f49a141c1e0e84bull, 0xcbf29ce484222325ull, 0xcbf29ce484222325ull, 0xcbf29ce484222325ull}},
    {"Podium Timer 3", CountingMode::kEdges,
     {0xc17ee05d749a7239ull, 0x619b466e36647f74ull, 0x7313db67b0caf26cull, 0x9aef42b0d359c243ull}},
    {"Podium Timer 3", CountingMode::kSignals,
     {0x9e08f94046f6ca60ull, 0xb7cd43ae2c8e996eull, 0xf45a1cf86c84ea7aull, 0x08973ce647667602ull}},
    {"Noise At Night Detector", CountingMode::kEdges,
     {0x321049e0f8e1b593ull, 0x8d00b5064ac04571ull, 0x15da17ea1e066c37ull, 0xd67e24c14fa2b2d1ull}},
    {"Noise At Night Detector", CountingMode::kSignals,
     {0x321049e0f8e1b593ull, 0x8d00b5064ac04571ull, 0x15da17ea1e066c37ull, 0xd67e24c14fa2b2d1ull}},
    {"Two-Zone Security", CountingMode::kEdges,
     {0x37de7f81a0565aa4ull, 0xdd52e4eaf0786cbeull, 0x9c89d0180e45895eull, 0x16c255f5fa287b18ull}},
    {"Two-Zone Security", CountingMode::kSignals,
     {0x25c0acc04395654aull, 0xdd780755e1d0eb68ull, 0x1ef6894142a62300ull, 0xc25686a29070ab4eull}},
    {"Motion on Property Alert", CountingMode::kEdges,
     {0xac135072d79e0b88ull, 0xcbf29ce484222325ull, 0xcbf29ce484222325ull, 0xcbf29ce484222325ull}},
    {"Motion on Property Alert", CountingMode::kSignals,
     {0xac135072d79e0b88ull, 0xcbf29ce484222325ull, 0xcbf29ce484222325ull, 0xcbf29ce484222325ull}},
    {"Timed Passage", CountingMode::kEdges,
     {0x88fc8216919aade8ull, 0x024cf70bc824b82bull, 0x9f4d7c5a07e74da1ull, 0x7323df1697af2865ull}},
    {"Timed Passage", CountingMode::kSignals,
     {0x88fc8216919aade8ull, 0x024cf70bc824b82bull, 0x9f4d7c5a07e74da1ull, 0x7323df1697af2865ull}},
};
// clang-format on

TEST(LibraryPin, EveryTableOneArtifactIsByteIdentical) {
  const std::vector<designs::DesignEntry> lib = designs::designLibrary();
  ASSERT_EQ(std::size(kPinned), 2 * lib.size());
  std::string table;  // the actual digests, in kPinned's source form
  bool same = true;
  for (std::size_t i = 0; i < std::size(kPinned); ++i) {
    const PinRow& want = kPinned[i];
    const designs::DesignEntry& e = lib[i / 2];
    ASSERT_EQ(e.name, want.design);
    const Digests got = digestsOf(e.network, want.mode);
    const std::string where = e.name + " / " + modeName(want.mode);
    EXPECT_EQ(want.digests.network, got.network) << where << ": network frame";
    EXPECT_EQ(want.digests.cSource, got.cSource) << where << ": cSource";
    EXPECT_EQ(want.digests.fullC, got.fullC) << where << ": full C unit";
    EXPECT_EQ(want.digests.printed, got.printed)
        << where << ": printed program";
    same = same && want.digests.network == got.network &&
           want.digests.cSource == got.cSource &&
           want.digests.fullC == got.fullC &&
           want.digests.printed == got.printed;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "    {\"%s\", %s,\n     {0x%016" PRIx64 "ull, 0x%016" PRIx64
                  "ull, 0x%016" PRIx64 "ull, 0x%016" PRIx64 "ull}},\n",
                  e.name.c_str(), modeName(want.mode), got.network,
                  got.cSource, got.fullC, got.printed);
    table += line;
  }
  if (!same) ADD_FAILURE() << "actual table:\n" << table;
}

}  // namespace
}  // namespace eblocks::synth
