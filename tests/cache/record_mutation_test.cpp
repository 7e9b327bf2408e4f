// Seeded mutation loop over the solution-record decoder, driven through
// the store the way a damaged or hostile record file reaches it: the
// file sits under its own key name, the store indexes it at open, and a
// lookup or near miss decodes it.  Inputs are the records of PareDown on
// every Table-1 design.  A mutant damages either the nested run frame
// (re-sealed, then the record around it) or the record payload itself
// (then re-sealed), by the mutations of tests/io/frame_mutator.h.  Every
// call must return a miss or a run that verifyPartitioning accepts, and
// throw nothing.
#include <gtest/gtest.h>

#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "../io/frame_mutator.h"
#include "cache/solution_store.h"
#include "designs/library.h"
#include "io/binary.h"
#include "partition/engine.h"
#include "partition/verify.h"

namespace eblocks::cache {
namespace {

namespace fs = std::filesystem;
using io::SectionTag;

constexpr std::uint32_t kSeed = 20251;
constexpr int kMutants = 2000;

/// One design's stored record, split where a mutation aims.
struct Sample {
  Network net;
  std::string fileName;
  std::string payload;  ///< the record payload
  /// Offsets in `payload` of the port-budget and run-length varints.
  std::vector<std::size_t> varints;
  std::string prefix;      ///< the payload before the run length
  std::string runPayload;  ///< the nested run frame's payload
  std::vector<std::size_t> runVarints;
};

std::string readAll(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string freshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "eblocks_records_" + name;
  fs::remove_all(dir);
  return dir;
}

/// Stores `net`'s 2x2 PareDown run in the fresh directory `dirName` and
/// splits the one record file it writes.  (ctest runs each test in its
/// own process, concurrently, so no two tests share a directory.)
Sample sampleOf(const Network& net, const std::string& dirName) {
  const std::string dir = freshDir(dirName);
  {
    SolutionStore store{StoreOptions{dir}};
    const partition::PartitionProblem problem(net, {});
    store.insert(net, "paredown", {}, {},
                 partition::runPartitioner("paredown", problem));
  }
  Sample s{net, "", "", {}, "", "", {}};
  std::string record;
  for (const auto& de : fs::directory_iterator(dir)) {
    s.fileName = de.path().filename().string();
    record = readAll(de.path());
  }
  fs::remove_all(dir);

  io::BinaryReader r(record, SectionTag::kSolutionRecord);
  const std::size_t size = r.remaining();
  const auto varint = [&] {
    s.varints.push_back(size - r.remaining());
    return r.varint();
  };
  r.u64();  // structure hash
  r.u64();
  r.u64();  // options fingerprint
  varint();  // port budget
  varint();
  r.u8();  // counting mode
  r.u8();  // convexity
  const std::size_t prefixLen = size - r.remaining();
  const std::string run(r.bytes(static_cast<std::size_t>(varint())));
  s.payload = io::testutil::payloadOf(record, SectionTag::kSolutionRecord);
  s.prefix = s.payload.substr(0, prefixLen);
  s.runPayload = io::testutil::payloadOf(run, SectionTag::kPartitionRun);
  s.runVarints = io::testutil::runVarintOffsets(run);
  return s;
}

/// The record of `s` around another nested run frame.
std::string withRun(const Sample& s, const std::string& run) {
  return io::testutil::sealed(
      SectionTag::kSolutionRecord,
      s.prefix + io::testutil::varintBytes(run.size()) + run);
}

void writeRecord(const std::string& dir, const Sample& s,
                 const std::string& record) {
  fs::create_directories(dir);
  std::ofstream(fs::path(dir) / s.fileName, std::ios::binary) << record;
}

TEST(RecordMutation, EveryMutantIsAMissOrAVerifiedRun) {
  std::vector<Sample> samples;
  for (const auto& e : designs::designLibrary())
    samples.push_back(sampleOf(e.network, "mutants_sample"));

  const std::string dir = freshDir("mutants");
  io::testutil::FrameMutator mutator(kSeed);
  partition::ProgBlockSpec loose;
  loose.inputs = 3;
  loose.outputs = 3;
  int served = 0;
  for (int c = 0; c < kMutants; ++c) {
    const Sample& s = samples[mutator.pick(samples.size())];
    writeRecord(dir, s,
                mutator.pick(2) == 0
                    ? withRun(s, io::testutil::sealed(
                                     SectionTag::kPartitionRun,
                                     mutator.mutate(s.runPayload,
                                                    s.runVarints)))
                    : io::testutil::sealed(
                          SectionTag::kSolutionRecord,
                          mutator.mutate(s.payload, s.varints)));
    try {
      SolutionStore store{StoreOptions{dir}};
      // Even mutants go through an exact lookup, odd ones through the
      // near-miss walk of the structure's key range.
      const partition::ProgBlockSpec spec =
          c % 2 == 0 ? partition::ProgBlockSpec{} : loose;
      std::optional<partition::Partitioning> result;
      if (c % 2 == 0) {
        if (auto hit = store.lookup(s.net, "paredown", spec, {}))
          result = std::move(hit->result);
      } else {
        result = store.nearMiss(s.net, spec, {});
      }
      if (result) {
        ++served;
        const partition::PartitionProblem problem(s.net, spec);
        EXPECT_TRUE(partition::verifyPartitioning(problem, *result).empty())
            << "mutant " << c << " served an invalid partitioning";
      }
    } catch (const std::exception& ex) {
      ADD_FAILURE() << "mutant " << c << " threw " << ex.what();
    }
    fs::remove_all(dir);
  }
  // Both outcomes occur: some mutants leave a servable record.
  EXPECT_GT(served, 0);
  EXPECT_LT(served, kMutants);
}

TEST(RecordMutation, AHostileRunUniverseIsOneCorruptMiss) {
  // A record under its own key name whose run claims a universe of 2^64
  // - 1 blocks once crashed the first lookup; 2^52 made every lookup
  // throw std::bad_alloc past the store.
  const Network net = designs::garageOpenAtNight();
  const Sample s = sampleOf(net, "hostile_sample");
  for (const std::uint64_t universe : {~0ull, 1ull << 52}) {
    const std::string dir = freshDir("hostile");
    writeRecord(dir, s,
                withRun(s, io::testutil::sealed(
                               SectionTag::kPartitionRun,
                               io::testutil::withVarint(
                                   s.runPayload, s.runVarints[1],
                                   universe))));
    SolutionStore store{StoreOptions{dir}};
    ASSERT_EQ(store.recordCount(), 1u);  // the prefix indexes fine
    EXPECT_FALSE(store.lookup(net, "paredown", {}, {}).has_value());
    EXPECT_EQ(store.stats().corrupt, 1u);
    EXPECT_EQ(store.recordCount(), 0u);
    EXPECT_FALSE(fs::exists(fs::path(dir) / s.fileName));
    fs::remove_all(dir);
  }
}

}  // namespace
}  // namespace eblocks::cache
