// Round-trip and rejection battery for the binary format (io/binary.h).
//
// Two properties carry the solution cache's correctness:
//   1. Fidelity -- every design the pipeline produces (Table-1 designs,
//      random corpora including the largeNetwork presets, synthesized
//      networks with embedded programmable types) survives
//      text -> binary -> text and binary -> Network -> binary
//      bit-identically.
//   2. Rejection -- a damaged frame (truncated at ANY length, ANY single
//      bit flipped, wrong magic/version/tag) is a clean BinaryError,
//      never a silent misparse.  The whole file runs under the ASan/
//      UBSan CI job, so "never UB" is machine-checked, not asserted.
//
// The golden-fixture tests at the bottom pin the byte-exact frames of two
// paper designs under tests/data/ -- any unversioned format change fails
// there first -- and the version tests document the compatibility policy
// (readers accept [kBinaryMinVersion, kBinaryVersion], reject outside).
#include "io/binary.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "designs/library.h"
#include "io/netlist.h"
#include "randgen/generator.h"
#include "synth/synthesizer.h"

namespace eblocks::io {
namespace {

std::string goldenPath(const std::string& file) {
  return std::string(EBLOCKS_TEST_DATA_DIR) + "/" + file;
}

std::string readFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "";
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Recomputes the trailer with the production digest, so a test can
// tamper with a frame and the damage under test (and not the checksum)
// is what the reader rejects.
std::string resealed(std::string frame) {
  const std::uint64_t h = fnv1a64(
      std::string_view(frame).substr(0, frame.size() - 8));
  for (int i = 0; i < 8; ++i)
    frame[frame.size() - 8 + static_cast<std::size_t>(i)] =
        static_cast<char>((h >> (8 * i)) & 0xff);
  return frame;
}

void expectNetworkRoundTrip(const Network& net, const std::string& label) {
  const std::string frame = writeNetworkBinary(net);
  const Network parsed = readNetworkBinary(frame);
  // binary -> Network -> binary is bit-identical...
  EXPECT_EQ(writeNetworkBinary(parsed), frame) << label;
  // ...and so is the netlist text on either side.
  EXPECT_EQ(writeNetlist(parsed), writeNetlist(net)) << label;
}

TEST(BinaryNetwork, RoundTripsEveryTable1Design) {
  for (const auto& e : designs::designLibrary())
    expectNetworkRoundTrip(e.network, e.name);
  expectNetworkRoundTrip(designs::figure5(), "figure5");
  expectNetworkRoundTrip(designs::garageOpenAtNight(), "garage");
}

TEST(BinaryNetwork, TextToBinaryToTextIsIdentity) {
  for (const auto& e : designs::designLibrary()) {
    const std::string text = writeNetlist(e.network);
    EXPECT_EQ(binaryToNetlist(netlistToBinary(text)), text) << e.name;
  }
}

// 50 random designs: 35 across the Table-2 size range plus 15 from the
// largeNetwork preset (the 100+-inner regime the heuristic partitioners
// target).
TEST(BinaryNetwork, RoundTrips50RandomDesigns) {
  for (int i = 0; i < 35; ++i) {
    randgen::GeneratorOptions options;
    options.innerBlocks = 3 + (i * 7) % 43;
    options.seed = 1000 + static_cast<std::uint32_t>(i);
    expectNetworkRoundTrip(randgen::randomNetwork(options),
                           "random#" + std::to_string(i));
  }
  for (int i = 0; i < 15; ++i) {
    const auto options = randgen::GeneratorOptions::largeNetwork(
        60 + i * 5, 2000 + static_cast<std::uint32_t>(i));
    expectNetworkRoundTrip(randgen::randomNetwork(options),
                           "large#" + std::to_string(i));
  }
}

// Synthesized networks embed programmable types with merged behavior
// programs -- the case the text netlist cannot express (its writer
// throws).  The binary format must round-trip them bit-identically.
TEST(BinaryNetwork, RoundTripsSynthesizedProgrammableBlocks) {
  synth::SynthOptions options;
  options.algorithm = "paredown";
  const synth::SynthResult result =
      synth::synthesize(designs::garageOpenAtNight(), options);
  ASSERT_GT(result.programmableBlocks, 0);
  EXPECT_THROW(writeNetlist(result.network), NetlistError);

  const std::string frame = writeNetworkBinary(result.network);
  const Network parsed = readNetworkBinary(frame);
  EXPECT_EQ(writeNetworkBinary(parsed), frame);
  ASSERT_EQ(parsed.blockCount(), result.network.blockCount());
  for (BlockId b = 0; b < parsed.blockCount(); ++b) {
    EXPECT_EQ(parsed.block(b).name, result.network.block(b).name);
    EXPECT_EQ(parsed.block(b).type->behaviorSource(),
              result.network.block(b).type->behaviorSource());
    EXPECT_EQ(parsed.block(b).type->programmable(),
              result.network.block(b).type->programmable());
  }
}

TEST(BinaryPartitionRun, RoundTripsBitIdentically) {
  partition::PartitionRun run;
  run.algorithm = "exhaustive";
  BitSet a(12), b(12);
  a.set(1); a.set(2); a.set(7);
  b.set(3); b.set(11);
  run.result.partitions = {a, b};
  run.seconds = 0.03125;
  run.optimal = true;
  run.explored = 12345;
  run.pruned = 678;
  run.workerExplored = {6000, 6345};
  run.workerPruned = {300, 378};

  const std::string frame = writePartitionRunBinary(run);
  const partition::PartitionRun parsed = readPartitionRunBinary(frame);
  EXPECT_EQ(parsed.algorithm, run.algorithm);
  ASSERT_EQ(parsed.result.partitions.size(), run.result.partitions.size());
  EXPECT_EQ(parsed.result.partitions[0], run.result.partitions[0]);
  EXPECT_EQ(parsed.result.partitions[1], run.result.partitions[1]);
  EXPECT_EQ(parsed.seconds, run.seconds);
  EXPECT_EQ(parsed.optimal, run.optimal);
  EXPECT_EQ(parsed.timedOut, run.timedOut);
  EXPECT_EQ(parsed.explored, run.explored);
  EXPECT_EQ(parsed.pruned, run.pruned);
  EXPECT_EQ(parsed.workerExplored, run.workerExplored);
  EXPECT_EQ(parsed.workerPruned, run.workerPruned);
  EXPECT_EQ(writePartitionRunBinary(parsed), frame);
}

TEST(BinaryPartitionRun, RoundTripsEmptyPartitioning) {
  partition::PartitionRun run;
  run.algorithm = "paredown";
  const std::string frame = writePartitionRunBinary(run);
  const partition::PartitionRun parsed = readPartitionRunBinary(frame);
  EXPECT_TRUE(parsed.result.partitions.empty());
  EXPECT_EQ(writePartitionRunBinary(parsed), frame);
}

// --- rejection ------------------------------------------------------------

TEST(BinaryRejection, EveryTruncationThrows) {
  const std::string frame =
      writeNetworkBinary(designs::garageOpenAtNight());
  for (std::size_t len = 0; len < frame.size(); ++len)
    EXPECT_THROW(readNetworkBinary(frame.substr(0, len)), BinaryError)
        << "truncated to " << len << " bytes";
}

TEST(BinaryRejection, EverySingleBitFlipThrows) {
  const std::string frame =
      writeNetworkBinary(designs::garageOpenAtNight());
  for (std::size_t bit = 0; bit < frame.size() * 8; ++bit) {
    std::string damaged = frame;
    damaged[bit / 8] = static_cast<char>(
        static_cast<std::uint8_t>(damaged[bit / 8]) ^ (1u << (bit % 8)));
    EXPECT_THROW(readNetworkBinary(damaged), BinaryError)
        << "bit " << bit << " flipped undetected";
  }
}

TEST(BinaryRejection, EverySingleBitFlipThrowsOnPartitionRun) {
  partition::PartitionRun run;
  run.algorithm = "fm";
  BitSet p(8);
  p.set(0); p.set(5);
  run.result.partitions = {p};
  const std::string frame = writePartitionRunBinary(run);
  for (std::size_t bit = 0; bit < frame.size() * 8; ++bit) {
    std::string damaged = frame;
    damaged[bit / 8] = static_cast<char>(
        static_cast<std::uint8_t>(damaged[bit / 8]) ^ (1u << (bit % 8)));
    EXPECT_THROW(readPartitionRunBinary(damaged), BinaryError)
        << "bit " << bit << " flipped undetected";
  }
}

/// A run frame over `universe` blocks whose partitions carry the given
/// member varints verbatim: the first absolute, then gaps.
std::string craftedRun(
    std::uint64_t universe,
    const std::vector<std::vector<std::uint64_t>>& partitions) {
  BinaryWriter w;
  w.str("paredown");
  w.varint(universe);
  w.varint(partitions.size());
  for (const std::vector<std::uint64_t>& members : partitions) {
    w.varint(members.size());
    for (const std::uint64_t m : members) w.varint(m);
  }
  w.f64(0.0);
  w.u8(0);
  for (int i = 0; i < 4; ++i) w.varint(0);  // explored, pruned, workers
  return w.finish(SectionTag::kPartitionRun);
}

TEST(BinaryRejection, HostileRunUniversesThrow) {
  // 2^64 - 1 once wrapped BitSet's word count to 0 (a write past an empty
  // vector); 2^52 asked for 2^46 words and threw std::bad_alloc.
  for (const std::uint64_t universe :
       {~std::uint64_t{0}, std::uint64_t{1} << 52, kMaxRunUniverse + 1})
    EXPECT_THROW(readPartitionRunBinary(craftedRun(universe, {{1000}})),
                 BinaryError)
        << universe;
  // At both bounds the frame decodes; one partition more exceeds the
  // word budget.
  const std::uint64_t fits = kMaxRunWords / ((kMaxRunUniverse + 63) / 64);
  const std::vector<std::vector<std::uint64_t>> atBound(fits, {1000});
  const partition::PartitionRun run =
      readPartitionRunBinary(craftedRun(kMaxRunUniverse, atBound));
  ASSERT_EQ(run.result.partitions.size(), fits);
  EXPECT_EQ(run.result.partitions[0].toVector(),
            std::vector<std::uint32_t>{1000});
  std::vector<std::vector<std::uint64_t>> past = atBound;
  past.push_back({1000});
  EXPECT_THROW(readPartitionRunBinary(craftedRun(kMaxRunUniverse, past)),
               BinaryError);
}

TEST(BinaryRejection, MemberGapsThatWrapThrow) {
  // Members {50, 50 + (2^64 - 40)}: the gap wraps to member 10, below its
  // predecessor, inside a universe of 100.
  EXPECT_THROW(readPartitionRunBinary(craftedRun(100, {{50, ~0ull - 39}})),
               BinaryError);
}

TEST(BinaryRejection, WrongMagicThrows) {
  std::string frame = writeNetworkBinary(designs::garageOpenAtNight());
  frame[0] = 'X';
  EXPECT_THROW(readNetworkBinary(resealed(std::move(frame))), BinaryError);
}

TEST(BinaryRejection, WrongSectionTagThrows) {
  const std::string frame =
      writeNetworkBinary(designs::garageOpenAtNight());
  EXPECT_THROW(readPartitionRunBinary(frame), BinaryError);
}

TEST(BinaryRejection, NonzeroReservedByteThrows) {
  std::string frame = writeNetworkBinary(designs::garageOpenAtNight());
  frame[7] = 1;
  EXPECT_THROW(readNetworkBinary(resealed(std::move(frame))), BinaryError);
}

TEST(BinaryRejection, EmptyAndGarbageInputThrow) {
  EXPECT_THROW(readNetworkBinary(""), BinaryError);
  EXPECT_THROW(readNetworkBinary("not a frame at all"), BinaryError);
  EXPECT_THROW(readNetworkBinary(std::string(1024, '\xff')), BinaryError);
}

// --- versioning policy ------------------------------------------------------
//
// Readers accept [kBinaryMinVersion, kBinaryVersion].  A layout change
// bumps kBinaryVersion and either keeps a decode path for the old layout
// or raises kBinaryMinVersion, so out-of-window frames fail with a clear
// version message -- never a misparse.  These tests hold both edges of
// the window in place; docs/formats.md states the policy in prose.

TEST(BinaryVersioning, OlderThanMinVersionRejected) {
  // Version 0 predates kBinaryMinVersion: a correctly-checksummed frame
  // claiming it must still be rejected, by version and not by checksum.
  BinaryWriter w;
  w.str("stale");
  const std::string frame =
      w.finish(SectionTag::kNetwork, /*version=*/kBinaryMinVersion - 1);
  try {
    readNetworkBinary(frame);
    FAIL() << "version 0 frame was accepted";
  } catch (const BinaryError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(BinaryVersioning, NewerThanCurrentVersionRejected) {
  BinaryWriter w;
  w.str("from the future");
  const std::string frame =
      w.finish(SectionTag::kNetwork, /*version=*/kBinaryVersion + 1);
  try {
    readNetworkBinary(frame);
    FAIL() << "future-version frame was accepted";
  } catch (const BinaryError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

// --- golden fixtures --------------------------------------------------------
//
// The pinned byte-exact frames of two paper designs.  If an intentional
// format change lands, bump kBinaryVersion and regenerate these files in
// the same commit (scripts in the files' header comment are not needed:
// write writeNetworkBinary() output for the two designs); if this test
// fails WITHOUT a version bump, the change silently broke every frame
// already on disk -- fix the code, not the fixture.

TEST(BinaryGolden, GarageFrameIsPinned) {
  const std::string golden = readFileOrEmpty(goldenPath("garage.eblk"));
  ASSERT_FALSE(golden.empty()) << "missing fixture " << goldenPath("garage.eblk");
  EXPECT_EQ(writeNetworkBinary(designs::garageOpenAtNight()), golden);
  const Network parsed = readNetworkBinary(golden);
  EXPECT_EQ(writeNetlist(parsed),
            writeNetlist(designs::garageOpenAtNight()));
}

TEST(BinaryGolden, Figure5FrameIsPinned) {
  const std::string golden = readFileOrEmpty(goldenPath("figure5.eblk"));
  ASSERT_FALSE(golden.empty()) << "missing fixture "
                               << goldenPath("figure5.eblk");
  EXPECT_EQ(writeNetworkBinary(designs::figure5()), golden);
  const Network parsed = readNetworkBinary(golden);
  EXPECT_EQ(writeNetlist(parsed), writeNetlist(designs::figure5()));
}

}  // namespace
}  // namespace eblocks::io
