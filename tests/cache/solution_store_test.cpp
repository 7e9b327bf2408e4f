// The solution store's correctness battery (cache/solution_store.h).
//
// The cache's promise: a hit on a request that keeps the stored
// declaration order (a verbatim repeat, a renamed-in-place copy) is
// observably identical to synthesis without the cache -- bit-identical
// networks, programs, and partitions -- just faster; a reordered copy
// gets the stored run carried over by canonical position and verified.
// Exact hits are compared byte-for-byte against fresh runs (Table-1
// designs and a 25-design random corpus), and everything the cache
// serves over a sweep of strategies, modes and reordered copies is
// pinned by digest; near-miss warm starts must preserve bit-identity
// while exploring fewer-or-equal nodes (the engine's warm-start
// contract); renamed variants must hit through the canonical hash;
// damaged and old-layout record files must degrade to a miss, never a
// crash; and eight threads hammering a single store must be clean under
// the TSan CI job (which runs every cache.* test).
#include "cache/solution_store.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/failpoint.h"
#include "designs/library.h"
#include "io/binary.h"
#include "partition/engine.h"
#include "randgen/generator.h"
#include "synth/synthesizer.h"

namespace eblocks::cache {
namespace {

namespace fs = std::filesystem;

void expectSamePartitions(const partition::Partitioning& a,
                          const partition::Partitioning& b) {
  ASSERT_EQ(a.partitions.size(), b.partitions.size());
  for (std::size_t i = 0; i < a.partitions.size(); ++i)
    EXPECT_EQ(a.partitions[i].toVector(), b.partitions[i].toVector());
}

/// Bit-identical synthesis results: same binary network frame, same
/// partitions, same generated C.
void expectBitIdentical(const synth::SynthResult& a,
                        const synth::SynthResult& b,
                        const std::string& label) {
  EXPECT_EQ(io::writeNetworkBinary(a.network),
            io::writeNetworkBinary(b.network))
      << label;
  expectSamePartitions(a.run.result, b.run.result);
  ASSERT_EQ(a.blocks.size(), b.blocks.size()) << label;
  for (std::size_t i = 0; i < a.blocks.size(); ++i)
    EXPECT_EQ(a.blocks[i].cSource, b.blocks[i].cSource) << label;
}

/// A fresh empty directory under the test temp root.
std::string freshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "eblocks_store_" + name;
  fs::remove_all(dir);
  return dir;
}

partition::PartitionRun runFor(const Network& net,
                               const std::string& algorithm,
                               const partition::ProgBlockSpec& spec = {},
                               const partition::EngineOptions& engine = {}) {
  const partition::PartitionProblem problem(net, spec);
  return partition::runPartitioner(algorithm, problem, engine);
}

// --- exact hits are bit-identical -----------------------------------------

TEST(SolutionStore, ExactHitBitIdenticalOnTable1) {
  const auto store = std::make_shared<SolutionStore>(StoreOptions{});
  for (const auto& e : designs::designLibrary()) {
    synth::SynthOptions options;
    options.algorithm = e.innerBlocks <= 16 ? "exhaustive" : "fm";
    options.engine.threads = 1;

    const synth::SynthResult fresh = synth::synthesize(e.network, options);

    options.cache = store;
    // The first pass may itself HIT: the library contains a semantically
    // identical pair ("Ignition Illuminator" / "Night Lamp Controller"),
    // and serving one's record for the other is the cache working as
    // designed -- bit-identity below is the contract either way.
    const synth::SynthResult cold = synth::synthesize(e.network, options);
    const synth::SynthResult warm = synth::synthesize(e.network, options);
    EXPECT_EQ(warm.cacheOutcome, synth::CacheOutcome::kHit) << e.name;

    expectBitIdentical(cold, fresh, e.name);
    expectBitIdentical(warm, fresh, e.name);
  }
  EXPECT_GE(store->stats().hits, designs::designLibrary().size());
}

TEST(SolutionStore, ExactHitBitIdenticalOn25RandomDesigns) {
  const auto store = std::make_shared<SolutionStore>(StoreOptions{});
  for (int i = 0; i < 25; ++i) {
    randgen::GeneratorOptions gen;
    gen.innerBlocks = 4 + (i * 3) % 25;
    gen.seed = 9000 + static_cast<std::uint32_t>(i);
    const Network net = randgen::randomNetwork(gen);
    const std::string label = "random#" + std::to_string(i);

    synth::SynthOptions options;
    options.algorithm = "fm";
    const synth::SynthResult fresh = synth::synthesize(net, options);

    options.cache = store;
    (void)synth::synthesize(net, options);  // populate
    const synth::SynthResult warm = synth::synthesize(net, options);
    EXPECT_EQ(warm.cacheOutcome, synth::CacheOutcome::kHit) << label;
    expectBitIdentical(warm, fresh, label);
  }
}

// --- renamed variants hit through the canonical hash -----------------------

TEST(SolutionStore, RenamedReorderedVariantHits) {
  const auto store = std::make_shared<SolutionStore>(StoreOptions{});
  const Network original = designs::garageOpenAtNight();

  synth::SynthOptions options;
  options.algorithm = "exhaustive";
  options.engine.threads = 1;
  options.cache = store;
  const synth::SynthResult first = synth::synthesize(original, options);
  EXPECT_NE(first.cacheOutcome, synth::CacheOutcome::kHit);

  for (std::uint32_t seed = 1; seed <= 3; ++seed) {
    const Network variant = randgen::relabeledCopy(original, seed, "blk");
    const synth::SynthResult hit = synth::synthesize(variant, options);
    EXPECT_EQ(hit.cacheOutcome, synth::CacheOutcome::kHit)
        << "variant seed " << seed;
    // The placed result is verified inside synthesize(); equal cost
    // proves the hit carried the stored optimum, not just any solution.
    EXPECT_EQ(hit.innerAfter, first.innerAfter);
    EXPECT_EQ(hit.programmableBlocks, first.programmableBlocks);
  }
  EXPECT_EQ(store->stats().hits, 3u);
}

// --- what the cache serves is pinned ------------------------------------------

/// FNV-1a-64 over everything a cached synthesize() call hands back.
struct Fnv1a64 {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  void add(std::string_view bytes) {
    add(bytes.size());
    for (const char c : bytes) {
      hash ^= static_cast<std::uint8_t>(c);
      hash *= 0x100000001b3ull;
    }
  }
  void add(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (value >> (8 * i)) & 0xff;
      hash *= 0x100000001b3ull;
    }
  }
  void add(const synth::SynthResult& r) {
    add(io::writeNetworkBinary(r.network));
    partition::PartitionRun run = r.run;
    run.seconds = 0.0;
    add(io::writePartitionRunBinary(run));
    for (const synth::SynthesizedBlock& b : r.blocks) add(b.cSource);
    add(static_cast<std::uint64_t>(r.cacheOutcome));
  }
  void add(const StoreStats& s) {
    for (const std::uint64_t v : {s.hits, s.misses, s.warmStarts, s.inserts,
                                  s.evictions, s.corrupt, s.writeFailures})
      add(v);
  }
};

/// The same blocks and arcs in the same declaration order, every
/// instance renamed.
Network renamedInPlace(const Network& source) {
  Network out(source.name() + "_renamed");
  for (BlockId b = 0; b < source.blockCount(); ++b)
    out.addBlock(std::to_string(b) + "x", source.block(b).type);
  for (const Connection& c : source.connections()) out.connect(c.from, c.to);
  return out;
}

TEST(SolutionStore, ServedResultsMatchTheRecordedDigests) {
  // Every strategy the store caches, in both counting modes, at 2x2 and
  // then 3x3 on one store per strategy and mode, over the Table-1 designs
  // (exhaustive only on those with <= 13 inner blocks) and 25 random
  // ones: each design verbatim, then three reordered copies (hits carried
  // over from the verbatim run), then a renamed-in-place copy, whose hit
  // must also be byte-identical to a fresh run.  The digests hash network
  // frames, run frames (seconds zeroed), C sources and cache outcomes of
  // every call, plus each store's final counters.  Any change to them is
  // a change in what the cache serves.
  std::vector<Network> sweep;
  for (const auto& e : designs::designLibrary()) sweep.push_back(e.network);
  for (std::uint32_t seed = 1; seed <= 25; ++seed)
    sweep.push_back(randgen::randomNetwork(
        {.innerBlocks = 4 + static_cast<int>(seed % 9), .seed = 3100 + seed}));

  std::vector<std::uint64_t> digests;
  for (const char* algorithm :
       {"paredown", "aggregation", "greedy", "fm", "exhaustive"}) {
    Fnv1a64 served;
    for (const CountingMode mode :
         {CountingMode::kEdges, CountingMode::kSignals}) {
      const auto store = std::make_shared<SolutionStore>(StoreOptions{});
      for (const int budget : {2, 3}) {
        synth::SynthOptions options;
        options.algorithm = algorithm;
        options.spec = {.inputs = budget, .outputs = budget, .mode = mode};
        options.engine.threads = 1;
        synth::SynthOptions cached = options;
        cached.cache = store;
        for (const Network& net : sweep) {
          if (options.algorithm == "exhaustive" &&
              net.innerBlocks().size() > 13)
            continue;
          served.add(synth::synthesize(net, cached));
          for (std::uint32_t seed = 1; seed <= 3; ++seed)
            served.add(
                synth::synthesize(randgen::relabeledCopy(net, seed), cached));
          const Network renamed = renamedInPlace(net);
          const synth::SynthResult hit = synth::synthesize(renamed, cached);
          EXPECT_EQ(hit.cacheOutcome, synth::CacheOutcome::kHit)
              << algorithm << " " << net.name();
          expectBitIdentical(hit, synth::synthesize(renamed, options),
                             std::string(algorithm) + " " + net.name());
          served.add(hit);
        }
      }
      served.add(store->stats());
    }
    digests.push_back(served.hash);
  }
  const std::vector<std::uint64_t> recorded = {
      0x7f6e1eed4003876dull, 0xd03ac1f8c5cd90e0ull, 0x7788c596661f0c04ull,
      0x8867dae2373d9aa5ull, 0x3debd702262a19a4ull};
  EXPECT_EQ(digests, recorded) << std::hex << digests[0] << " " << digests[1]
                               << " " << digests[2] << " " << digests[3]
                               << " " << digests[4];
}

// --- near-miss warm starts ---------------------------------------------------

TEST(SolutionStore, NearMissWarmStartKeepsBitIdentityWithFewerNodes) {
  const Network net = randgen::randomNetwork(
      randgen::GeneratorOptions::largeNetwork(14, 5));

  synth::SynthOptions tight;
  tight.algorithm = "exhaustive";
  tight.engine.threads = 1;

  synth::SynthOptions loose = tight;
  loose.spec.inputs = 3;
  loose.spec.outputs = 3;

  // Cacheless baseline for the loose request.
  const synth::SynthResult baseline = synth::synthesize(net, loose);

  // Store the tight-budget solution, then make the loose request: the
  // exact key differs (different spec) but the structure matches and the
  // stored budget is <= the requested one -> warm start.
  const auto store = std::make_shared<SolutionStore>(StoreOptions{});
  tight.cache = store;
  (void)synth::synthesize(net, tight);
  loose.cache = store;
  const synth::SynthResult warm = synth::synthesize(net, loose);

  EXPECT_EQ(warm.cacheOutcome, synth::CacheOutcome::kWarmStart);
  expectBitIdentical(warm, baseline, "near-miss warm start");
  EXPECT_LE(warm.run.explored, baseline.run.explored);
  EXPECT_EQ(store->stats().warmStarts, 1u);
}

TEST(SolutionStore, NearMissIsNotLookedUpForStrategiesWithoutIncumbent) {
  // PareDown never reads EngineOptions::initialIncumbent, so a stored
  // 2x2 solution is no warm start for a 3x3 PareDown request: the
  // request is a plain miss, and the store is never asked for one.
  for (const auto& e : designs::designLibrary()) {
    const auto store = std::make_shared<SolutionStore>(StoreOptions{});
    synth::SynthOptions tight;
    tight.emitC = false;
    tight.cache = store;
    synth::SynthOptions loose = tight;
    loose.spec.inputs = 3;
    loose.spec.outputs = 3;
    (void)synth::synthesize(e.network, tight);
    EXPECT_EQ(synth::synthesize(e.network, loose).cacheOutcome,
              synth::CacheOutcome::kMiss)
        << e.name;
    EXPECT_EQ(store->stats().warmStarts, 0u) << e.name;
  }
}

TEST(SolutionStore, NearMissRefusesTighterBudgetsAndOtherModes) {
  const Network net = designs::garageOpenAtNight();
  const auto store = std::make_shared<SolutionStore>(StoreOptions{});

  partition::ProgBlockSpec loose;
  loose.inputs = 3;
  loose.outputs = 3;
  store->insert(net, "exhaustive", loose, {},
                runFor(net, "exhaustive", loose));

  // A 3x3 solution is not necessarily valid at 2x2: no warm start.
  EXPECT_FALSE(store->nearMiss(net, partition::ProgBlockSpec{}, {}));

  // Same budget, different counting mode: no warm start either.
  partition::ProgBlockSpec signals = loose;
  signals.mode = CountingMode::kSignals;
  EXPECT_FALSE(store->nearMiss(net, signals, {}));
}

// --- cacheability policy ------------------------------------------------------

TEST(SolutionStore, RefusesTimedOutAndNondeterministicRuns) {
  const Network net = designs::garageOpenAtNight();
  SolutionStore store{StoreOptions{}};

  partition::PartitionRun run = runFor(net, "paredown");
  partition::PartitionRun timedOut = run;
  timedOut.timedOut = true;
  store.insert(net, "paredown", {}, {}, timedOut);
  EXPECT_EQ(store.recordCount(), 0u);

  // lns driven by the wall clock (rounds == 0) is not reproducible.
  store.insert(net, "lns", {}, {}, run);
  EXPECT_EQ(store.recordCount(), 0u);

  // Names outside the cacheable set never qualify.
  store.insert(net, "my_custom_strategy", {}, {}, run);
  EXPECT_EQ(store.recordCount(), 0u);

  // Fixed-round lns does qualify.
  partition::EngineOptions lns;
  lns.lnsRounds = 4;
  store.insert(net, "lns", {}, lns, run);
  EXPECT_EQ(store.recordCount(), 1u);
}

// --- persistence ---------------------------------------------------------------

TEST(SolutionStore, RecordsSurviveAcrossStoreInstances) {
  const std::string dir = freshDir("persist");
  const Network net = designs::garageOpenAtNight();
  const partition::PartitionRun run = runFor(net, "paredown");

  {
    SolutionStore store{StoreOptions{dir}};
    store.insert(net, "paredown", {}, {}, run);
    EXPECT_EQ(store.recordCount(), 1u);
  }

  SolutionStore reopened{StoreOptions{dir}};
  EXPECT_EQ(reopened.recordCount(), 1u);
  const auto hit = reopened.lookup(net, "paredown", {}, {});
  ASSERT_TRUE(hit.has_value());
  expectSamePartitions(hit->result, run.result);
  EXPECT_EQ(hit->explored, run.explored);
  fs::remove_all(dir);
}

// --- corruption degrades to a miss ----------------------------------------------

TEST(SolutionStore, CorruptRecordFilesDegradeToMissNotCrash) {
  const Network net = designs::garageOpenAtNight();
  const partition::PartitionRun run = runFor(net, "paredown");

  const auto damage = [&](const std::string& mode,
                          void (*vandal)(const fs::path&)) {
    const std::string dir = freshDir("corrupt_" + mode);
    {
      SolutionStore store{StoreOptions{dir}};
      store.insert(net, "paredown", {}, {}, run);
    }
    fs::path victim;
    for (const auto& de : fs::directory_iterator(dir))
      if (de.path().extension() == ".eblk") victim = de.path();
    ASSERT_FALSE(victim.empty()) << mode;
    vandal(victim);

    // Reopening over the damage: the record is dropped, not trusted.
    SolutionStore reopened{StoreOptions{dir}};
    EXPECT_EQ(reopened.recordCount(), 0u) << mode;
    EXPECT_GE(reopened.stats().corrupt, 1u) << mode;
    EXPECT_FALSE(reopened.lookup(net, "paredown", {}, {}).has_value())
        << mode;
    // And the store still works: a re-insert serves hits again.
    reopened.insert(net, "paredown", {}, {}, run);
    EXPECT_TRUE(reopened.lookup(net, "paredown", {}, {}).has_value())
        << mode;
    fs::remove_all(dir);
  };

  damage("truncated", [](const fs::path& p) {
    fs::resize_file(p, fs::file_size(p) / 2);
  });
  damage("bitflip", [](const fs::path& p) {
    std::fstream f(p, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(0, std::ios::end);
    const std::streamoff mid = f.tellg() / 2;
    f.seekg(mid);
    char c = 0;
    f.get(c);
    f.seekp(mid);
    f.put(static_cast<char>(c ^ 0x40));
  });
  damage("garbage", [](const fs::path& p) {
    std::ofstream f(p, std::ios::binary | std::ios::trunc);
    f << "this is not an EBLK frame";
  });
}

TEST(SolutionStore, RotAfterIndexingIsAMissOnTheLiveStore) {
  const std::string dir = freshDir("liverot");
  const Network net = designs::garageOpenAtNight();
  SolutionStore store{StoreOptions{dir}};
  store.insert(net, "paredown", {}, {}, runFor(net, "paredown"));

  for (const auto& de : fs::directory_iterator(dir))
    if (de.path().extension() == ".eblk")
      fs::resize_file(de.path(), fs::file_size(de.path()) / 3);

  // Same store instance, already-indexed entry, rotten file: miss.
  EXPECT_FALSE(store.lookup(net, "paredown", {}, {}).has_value());
  EXPECT_GE(store.stats().corrupt, 1u);
  fs::remove_all(dir);
}

TEST(SolutionStore, RecordsOfTheOldLayoutAreRetiredAtOpen) {
  // tests/data/old_solution_record.eblk is the garage design's 2x2
  // paredown record as the previous layout wrote it (a stored network,
  // partitions by block id), under the file name its key derived then.
  // The key now folds in the layout revision, so the file is misnamed.
  const std::string dir = freshDir("oldlayout");
  fs::create_directories(dir);
  const fs::path old =
      fs::path(dir) / "c324ed6689e42a89a55aaf38db215e4f.eblk";
  fs::copy_file(
      fs::path(EBLOCKS_TEST_DATA_DIR) / "old_solution_record.eblk", old);

  SolutionStore store{StoreOptions{dir}};
  EXPECT_FALSE(fs::exists(old));
  EXPECT_EQ(store.stats().corrupt, 1u);
  const Network net = designs::garageOpenAtNight();
  EXPECT_FALSE(store.lookup(net, "paredown", {}, {}).has_value());
  store.insert(net, "paredown", {}, {}, runFor(net, "paredown"));
  EXPECT_TRUE(store.lookup(net, "paredown", {}, {}).has_value());
  fs::remove_all(dir);
}

TEST(SolutionStore, LeftoverTempFilesAreSweptAtOpen) {
  const std::string dir = freshDir("tmpsweep");
  fs::create_directories(dir);
  const fs::path leftover = fs::path(dir) / "deadbeef.eblk.tmp7";
  std::ofstream(leftover, std::ios::binary) << "half-written";
  ASSERT_TRUE(fs::exists(leftover));

  SolutionStore store{StoreOptions{dir}};
  EXPECT_FALSE(fs::exists(leftover));
  EXPECT_EQ(store.recordCount(), 0u);
  fs::remove_all(dir);
}

// --- LRU byte budget --------------------------------------------------------------

TEST(SolutionStore, EvictsLeastRecentlyUsedWhenOverBudget) {
  const Network a = designs::garageOpenAtNight();
  const Network b = designs::figure5();
  const Network c = designs::byName("Noise At Night Detector");
  const partition::PartitionRun runA = runFor(a, "paredown");
  const partition::PartitionRun runB = runFor(b, "paredown");
  const partition::PartitionRun runC = runFor(c, "paredown");

  // Measure the three record sizes with an unlimited store.
  std::uint64_t total = 0;
  {
    SolutionStore sizer{StoreOptions{}};
    sizer.insert(a, "paredown", {}, {}, runA);
    sizer.insert(b, "paredown", {}, {}, runB);
    sizer.insert(c, "paredown", {}, {}, runC);
    ASSERT_EQ(sizer.recordCount(), 3u);
    total = sizer.totalBytes();
  }

  // A budget one byte short of all three forces exactly one eviction --
  // and touching A after inserting B makes B the LRU victim.
  StoreOptions capped;
  capped.maxBytes = total - 1;
  SolutionStore store{capped};
  store.insert(a, "paredown", {}, {}, runA);
  store.insert(b, "paredown", {}, {}, runB);
  EXPECT_TRUE(store.lookup(a, "paredown", {}, {}).has_value());
  store.insert(c, "paredown", {}, {}, runC);

  EXPECT_EQ(store.stats().evictions, 1u);
  EXPECT_TRUE(store.lookup(a, "paredown", {}, {}).has_value());
  EXPECT_TRUE(store.lookup(c, "paredown", {}, {}).has_value());
  EXPECT_FALSE(store.lookup(b, "paredown", {}, {}).has_value());
}

TEST(SolutionStore, ReopenedAtItsOwnTotalBytesEvictsNothing) {
  // Opening charges each record what inserting it did, so a budget equal
  // to the store's own total holds every record.
  const std::string dir = freshDir("reopen_budget");
  std::uint64_t total = 0;
  std::size_t records = 0;
  {
    SolutionStore store{StoreOptions{dir}};
    for (const auto& e : designs::designLibrary())
      store.insert(e.network, "paredown", {}, {},
                   runFor(e.network, "paredown"));
    total = store.totalBytes();
    records = store.recordCount();
  }
  StoreOptions exact{dir};
  exact.maxBytes = total;
  SolutionStore reopened{exact};
  EXPECT_EQ(reopened.stats().evictions, 0u);
  EXPECT_EQ(reopened.recordCount(), records);
  EXPECT_EQ(reopened.totalBytes(), total);
  fs::remove_all(dir);
}

// --- concurrency ------------------------------------------------------------------

TEST(SolutionStore, EightThreadsHammerOneStore) {
  // Four designs, runs precomputed serially; the threads exercise only
  // the store (insert / exact lookup / renamed-variant lookup / near
  // miss), concurrently, against one on-disk instance.
  const std::string dir = freshDir("hammer");
  std::vector<Network> nets;
  std::vector<partition::PartitionRun> runs;
  for (int i = 0; i < 4; ++i) {
    randgen::GeneratorOptions gen;
    gen.innerBlocks = 6 + i * 2;
    gen.seed = 4200 + static_cast<std::uint32_t>(i);
    nets.push_back(randgen::randomNetwork(gen));
    runs.push_back(runFor(nets.back(), "fm"));
  }
  partition::ProgBlockSpec loose;
  loose.inputs = 3;
  loose.outputs = 3;

  SolutionStore store{StoreOptions{dir}};
  std::vector<std::thread> workers;
  for (int t = 0; t < 8; ++t)
    workers.emplace_back([&, t] {
      for (int i = 0; i < 30; ++i) {
        const std::size_t d = static_cast<std::size_t>((t + i) % 4);
        store.insert(nets[d], "fm", {}, {}, runs[d]);
        const auto hit = store.lookup(nets[d], "fm", {}, {});
        if (hit) {
          // Never a wrong answer, only ever the stored one.
          if (hit->result.partitions.size() !=
              runs[d].result.partitions.size())
            ADD_FAILURE() << "lookup returned a foreign result";
        }
        const Network variant = randgen::relabeledCopy(
            nets[d], static_cast<std::uint32_t>(t * 100 + i));
        (void)store.lookup(variant, "fm", {}, {});
        (void)store.nearMiss(nets[d], loose, {});
      }
    });
  for (std::thread& w : workers) w.join();

  const StoreStats s = store.stats();
  EXPECT_EQ(s.corrupt, 0u);
  EXPECT_EQ(store.recordCount(), 4u);
  // Every iteration after the first insert of each design must hit, in
  // both original and relabeled form: 8 threads x 30 iters x 2 lookups.
  EXPECT_GE(s.hits, 8u * 30u * 2u - 8u);
  fs::remove_all(dir);
}

// --- failpoint regressions: injected IO faults degrade to a miss ----------
//
// The atomic-write contract under fault: any failure between open() and
// rename() -- ENOSPC, a short write, fsync, the rename itself -- counts
// one writeFailure, deletes the tmp file, and the caller never sees an
// error.  A *torn* write that lies about success is the one fault the
// writer cannot catch; the checksum catches it at read time and the
// record degrades to a miss.  core/failpoint.h is the injection vehicle.

namespace fp = core::failpoint;

/// Disarms every failpoint on scope exit, so a failing ASSERT cannot
/// leak an armed site into the rest of the suite.
struct FailpointGuard {
  FailpointGuard() { fp::clearAll(); }
  ~FailpointGuard() { fp::clearAll(); }
};

TEST(SolutionStore, FailpointEnospcIsADegradedToMissNeverAnError) {
  const FailpointGuard guard;
  const std::string dir = freshDir("fp_enospc");
  const Network net = designs::figure5();
  const partition::PartitionRun run = runFor(net, "paredown");

  SolutionStore store{StoreOptions{dir}};
  ASSERT_TRUE(fp::install("cache.tmp.write=error:enospc*once"));
  store.insert(net, "paredown", {}, {}, run);  // must not throw
  EXPECT_EQ(store.stats().writeFailures, 1u);
  // The failed insert left nothing behind -- no record, no tmp litter.
  EXPECT_EQ(fs::exists(dir) ? std::distance(fs::directory_iterator(dir),
                                            fs::directory_iterator{})
                            : 0,
            0);
  // Degraded to a miss; the next insert (disk healthy again) lands.
  store.insert(net, "paredown", {}, {}, run);
  const auto hit = store.lookup(net, "paredown", {}, {});
  ASSERT_TRUE(hit.has_value());
  expectSamePartitions(hit->result, run.result);
  fs::remove_all(dir);
}

TEST(SolutionStore, FailpointShortWriteFsyncAndRenameAllDegradeToMiss) {
  const FailpointGuard guard;
  const Network net = designs::figure5();
  const partition::PartitionRun run = runFor(net, "paredown");
  const char* schedules[] = {
      "cache.tmp.write=partial:4*once",  // short write, not at EOF
      "cache.fsync=error:eio*once",      // durability barrier fails
      "cache.rename=error:eio*once",     // publish fails
  };
  int i = 0;
  for (const char* schedule : schedules) {
    const std::string dir = freshDir("fp_write" + std::to_string(i++));
    SolutionStore store{StoreOptions{dir}};
    ASSERT_TRUE(fp::install(schedule)) << schedule;
    store.insert(net, "paredown", {}, {}, run);
    EXPECT_EQ(store.stats().writeFailures, 1u) << schedule;
    EXPECT_EQ(store.recordCount(), 0u) << schedule;
    // No tmp file may survive a failed write -- the open()-time sweep
    // must never be the thing that saves us.
    for (const auto& entry : fs::directory_iterator(dir))
      ADD_FAILURE() << schedule << " left " << entry.path();
    fp::clearAll();
    fs::remove_all(dir);
  }
}

TEST(SolutionStore, FailpointTornRecordIsNeverServed) {
  const FailpointGuard guard;
  const std::string dir = freshDir("fp_torn");
  const Network net = designs::figure5();
  const partition::PartitionRun run = runFor(net, "paredown");
  {
    SolutionStore store{StoreOptions{dir}};
    // The write tears to 8 bytes but reports success: the record is
    // published damaged, exactly like a crash between write and fsync
    // on a lying disk.
    ASSERT_TRUE(fp::install("cache.tmp.torn=partial:8*once"));
    store.insert(net, "paredown", {}, {}, run);
    EXPECT_EQ(store.stats().writeFailures, 0u);  // the writer was lied to
  }
  fp::clearAll();
  // A fresh store indexes the directory; the torn record must degrade
  // to a miss (counted corrupt), never be served, never crash.
  SolutionStore reopened{StoreOptions{dir}};
  const auto hit = reopened.lookup(net, "paredown", {}, {});
  EXPECT_FALSE(hit.has_value());
  EXPECT_GE(reopened.stats().corrupt + reopened.stats().misses, 1u);
  fs::remove_all(dir);
}

TEST(SolutionStore, FailpointReadFaultsDegradeToMissThenRecover) {
  const FailpointGuard guard;
  const std::string dir = freshDir("fp_read");
  const Network net = designs::figure5();
  const partition::PartitionRun run = runFor(net, "paredown");
  SolutionStore store{StoreOptions{dir}};
  store.insert(net, "paredown", {}, {}, run);

  ASSERT_TRUE(fp::install("cache.read=error:eio*once"));
  EXPECT_FALSE(store.lookup(net, "paredown", {}, {}).has_value());

  ASSERT_TRUE(fp::install("cache.read=partial:6*once"));
  EXPECT_FALSE(store.lookup(net, "paredown", {}, {}).has_value());

  ASSERT_TRUE(fp::install("cache.record.decode=error*once"));
  EXPECT_FALSE(store.lookup(net, "paredown", {}, {}).has_value());

  // All faults cleared: if the read faults dropped the entry, the next
  // insert restores it; either way the store still works.
  fp::clearAll();
  store.insert(net, "paredown", {}, {}, run);
  const auto healthy = store.lookup(net, "paredown", {}, {});
  ASSERT_TRUE(healthy.has_value());
  expectSamePartitions(healthy->result, run.result);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace eblocks::cache
