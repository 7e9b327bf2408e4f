// Seeded mutation loop over the run-frame decoder (io::
// readPartitionRunBinary).  Inputs are the run frames of PareDown on
// every Table-1 design; each mutant overwrites, inserts or deletes bytes
// of the payload, or replaces one varint with an extreme value, and is
// then re-sealed so the checksum passes.  Every mutant must decode or be
// rejected with BinaryError -- never crash, and never throw anything
// else (a hostile universe once did both: tests/io/
// binary_roundtrip_test.cpp's HostileRunUniversesThrow).
#include <gtest/gtest.h>

#include <exception>
#include <string>
#include <vector>

#include "designs/library.h"
#include "frame_mutator.h"
#include "io/binary.h"
#include "partition/engine.h"

namespace eblocks::io {
namespace {

constexpr std::uint32_t kSeed = 20250;
constexpr int kMutants = 2000;

TEST(RunFrameMutation, EveryMutantDecodesOrThrowsBinaryError) {
  std::vector<std::string> payloads;
  std::vector<std::vector<std::size_t>> varints;
  for (const auto& e : designs::designLibrary()) {
    const partition::PartitionProblem problem(e.network, {});
    const std::string frame = writePartitionRunBinary(
        partition::runPartitioner("paredown", problem));
    payloads.push_back(testutil::payloadOf(frame, SectionTag::kPartitionRun));
    varints.push_back(testutil::runVarintOffsets(frame));
  }

  testutil::FrameMutator mutator(kSeed);
  int decoded = 0;
  for (int c = 0; c < kMutants; ++c) {
    const std::size_t i = mutator.pick(payloads.size());
    const std::string mutant = testutil::sealed(
        SectionTag::kPartitionRun, mutator.mutate(payloads[i], varints[i]));
    try {
      readPartitionRunBinary(mutant);
      ++decoded;
    } catch (const BinaryError&) {
    } catch (const std::exception& ex) {
      ADD_FAILURE() << "mutant " << c << " threw " << ex.what();
    }
  }
  // Both outcomes occur: the loop reaches past the first check.
  EXPECT_GT(decoded, 0);
  EXPECT_LT(decoded, kMutants);
}

}  // namespace
}  // namespace eblocks::io
