// The chaos harness (docs/robustness.md): randomized failpoint
// schedules against a live in-process daemon over real sockets.
//
// Each round seeds a deterministic schedule generator, arms a random
// mix of failure sites -- benign faults (partial reads/writes, EINTR,
// delays) may recur forever; destructive faults (connection resets,
// ENOSPC, torn cache records) are bounded triggers -- then drives
// concurrent retrying clients through it.  The invariants, every round:
//
//   - no crash, no hang (the test completing under its ctest timeout);
//   - every answered request is BYTE-IDENTICAL to the fault-free
//     baseline -- a torn or corrupt cache record may cost a recompute
//     but may never change an answer;
//   - every accepted job is answered exactly once (checked against the
//     server's counters after the drain);
//   - the server still serves cleanly once the schedule is disarmed.
//
// Failing rounds print their seed: EBLOCKS_CHAOS_SEED replays one seed,
// EBLOCKS_CHAOS_ROUNDS widens the sweep (the nightly soak runs 100;
// scripts/run_chaos.sh sweeps >= 50 seeds across processes).
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "../server/server_test_util.h"
#include "core/failpoint.h"
#include "designs/library.h"
#include "server/client.h"
#include "server/server.h"

namespace eblocks::server {
namespace {

namespace fp = core::failpoint;
namespace fs = std::filesystem;
using testutil::paredownRequest;
using testutil::quickOptions;

constexpr int kCallTimeoutMs = 30000;

int envInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  return value && value[0] ? std::atoi(value) : fallback;
}

struct FailpointGuard {
  FailpointGuard() { fp::clearAll(); }
  ~FailpointGuard() { fp::clearAll(); }
};

/// Deterministic schedule generator: same seed, same schedule, same
/// injected-fault sequence (every random trigger embeds the seed too).
class ScheduleGen {
 public:
  explicit ScheduleGen(std::uint32_t seed) : state_(seed ? seed : 1u) {}

  std::uint32_t next() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 17;
    state_ ^= state_ << 5;
    return state_;
  }
  std::uint32_t range(std::uint32_t lo, std::uint32_t hi) {  // inclusive
    return lo + next() % (hi - lo + 1);
  }
  bool chance(std::uint32_t percent) { return next() % 100 < percent; }

  std::string schedule(std::uint32_t seed) {
    std::vector<std::string> entries;
    // Benign faults: may recur for the whole round.  server.poll MUST
    // stay EINTR (any other errno is the loop's unrecoverable exit).
    if (chance(60))
      entries.push_back("server.read=partial:" +
                        std::to_string(range(1, 16)) + "*every-" +
                        std::to_string(range(2, 5)));
    if (chance(60))
      entries.push_back("server.write=partial:" +
                        std::to_string(range(1, 16)) + "*every-" +
                        std::to_string(range(2, 5)));
    if (chance(50))
      entries.push_back("client.send=partial:" +
                        std::to_string(range(1, 8)) + "*every-" +
                        std::to_string(range(2, 5)));
    if (chance(50))
      entries.push_back("client.recv=error:eintr*every-" +
                        std::to_string(range(2, 6)));
    if (chance(40))
      entries.push_back("server.poll=error:eintr*every-" +
                        std::to_string(range(3, 7)));
    if (chance(30))
      entries.push_back("client.recv=delay:" + std::to_string(range(1, 3)) +
                        "*rand-" + std::to_string(range(5, 20)) + "-" +
                        std::to_string(seed));
    // Destructive faults: bounded triggers only, so the round always
    // has a path to completion.
    if (chance(40))
      entries.push_back("client.recv=error:econnreset*times-" +
                        std::to_string(range(1, 2)));
    if (chance(25))
      entries.push_back("client.connect=error*times-" +
                        std::to_string(range(1, 2)));
    if (chance(25))
      entries.push_back("server.accept=error:emfile*once");
    // Cache faults: writes fail (degraded-to-miss), records tear
    // (checksum catches them), reads die (recompute).
    if (chance(50))
      entries.push_back("cache.tmp.write=error:enospc*times-" +
                        std::to_string(range(1, 3)));
    if (chance(30)) entries.push_back("cache.fsync=error:eio*once");
    if (chance(30)) entries.push_back("cache.rename=error:eio*once");
    if (chance(40))
      entries.push_back("cache.tmp.torn=partial:" +
                        std::to_string(range(4, 32)) + "*once");
    if (chance(30))
      entries.push_back("cache.read=error:eio*times-" +
                        std::to_string(range(1, 2)));
    if (chance(20)) entries.push_back("cache.record.decode=error*once");

    std::string joined;
    for (const std::string& entry : entries) {
      if (!joined.empty()) joined += ";";
      joined += entry;
    }
    return joined;
  }

 private:
  std::uint32_t state_;
};

/// The fault-free reference: (request content) -> the two result frames.
struct Baseline {
  SynthRequest request;  ///< id is rewritten per submission
  std::string networkFrame;
  std::string runFrame;
};

TEST(Chaos, RandomizedSchedulesKeepAnswersByteIdentical) {
  const FailpointGuard guard;
  const int rounds = envInt("EBLOCKS_CHAOS_ROUNDS", 5);
  const std::uint32_t baseSeed =
      static_cast<std::uint32_t>(envInt("EBLOCKS_CHAOS_SEED", 1));

  // Tagged with the pid: ctest runs this test both on its own and in the
  // integration.ChaosSchedules sweep, concurrently under `ctest -j`.
  std::string cacheDir = ::testing::TempDir() + "eblocks_chaos_cache_";
  cacheDir += std::to_string(static_cast<long>(::getpid()));
  fs::remove_all(cacheDir);
  ServerOptions options = quickOptions(2, 8);
  options.cacheEnabled = true;
  options.cacheDir = cacheDir;
  // Replays would mask recomputation: this test wants every submission
  // to run the full pipeline (cache included) under fault and still
  // produce identical bytes.  The replay path gets its own chaos test.
  options.idempotencyBytes = 0;
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  // Fault-free baselines, computed through the same server (first pass
  // also warms the disk cache, so chaos rounds exercise hits AND the
  // degraded paths when reads fail).
  const auto library = designs::designLibrary();
  ASSERT_GE(library.size(), 3u);
  std::vector<Baseline> baselines;
  {
    Client client;
    ASSERT_TRUE(client.connectTo("127.0.0.1", server.port(), &error))
        << error;
    std::uint64_t id = 1;
    for (int d = 0; d < 3; ++d) {
      SynthRequest request =
          paredownRequest(id++, library[static_cast<std::size_t>(d)].network);
      request.useCache = true;
      const CallResult result = client.call(request, kCallTimeoutMs);
      ASSERT_TRUE(result.ok()) << library[static_cast<std::size_t>(d)].name;
      baselines.push_back(Baseline{request, result.response->networkFrame,
                                   result.response->runFrame});
    }
    SynthRequest exact = paredownRequest(id++, designs::figure5());
    exact.algorithm = "exhaustive";
    exact.useCache = true;
    const CallResult result = client.call(exact, kCallTimeoutMs);
    ASSERT_TRUE(result.ok());
    baselines.push_back(Baseline{exact, result.response->networkFrame,
                                 result.response->runFrame});
  }

  for (int round = 0; round < rounds; ++round) {
    const std::uint32_t seed = baseSeed + static_cast<std::uint32_t>(round);
    ScheduleGen gen(seed * 2654435761u);
    const std::string schedule = gen.schedule(seed);
    SCOPED_TRACE("chaos seed " + std::to_string(seed) + " schedule '" +
                 schedule + "'");
    ASSERT_TRUE(fp::install(schedule, &error)) << error;

    constexpr int kClients = 3;
    constexpr int kRequestsPerClient = 3;
    std::atomic<int> failures{0};
    std::vector<std::thread> workers;
    for (int c = 0; c < kClients; ++c) {
      workers.emplace_back([&, c, seed] {
        Client client;
        std::string connectError;
        RetryPolicy policy;
        policy.maxAttempts = 10;
        policy.initialBackoffMs = 5.0;
        policy.maxBackoffMs = 200.0;
        policy.attemptTimeoutMs = kCallTimeoutMs;
        policy.rngSeed = seed + static_cast<std::uint32_t>(c);
        if (!client.connectTo("127.0.0.1", server.port(), &connectError)) {
          // An injected connect refusal; callWithRetry reconnects.
          client.close();
        }
        for (int i = 0; i < kRequestsPerClient; ++i) {
          const Baseline& base = baselines[static_cast<std::size_t>(
              (c * kRequestsPerClient + i) % static_cast<int>(
                                                 baselines.size()))];
          SynthRequest request = base.request;
          request.id = static_cast<std::uint64_t>(1000 + c * 100 + i);
          const CallResult result = client.callWithRetry(request, policy);
          if (!result.ok()) {
            ++failures;
            ADD_FAILURE() << "chaos seed " << seed << " client " << c
                          << " request " << i << ": "
                          << (result.error ? result.error->message
                                           : "no reply after retries");
            continue;
          }
          // The core invariant: same bytes as the fault-free run.  A
          // cache fault may force a recompute, which legitimately
          // differs in wall-clock seconds -- so the run frame is
          // compared modulo time, like expectBitIdentical does.
          if (result.response->networkFrame != base.networkFrame ||
              testutil::runFrameModuloTime(result.response->runFrame) !=
                  testutil::runFrameModuloTime(base.runFrame)) {
            ++failures;
            ADD_FAILURE() << "chaos seed " << seed
                          << ": answer diverged from baseline";
          }
        }
      });
    }
    for (std::thread& w : workers) w.join();
    fp::clearAll();
    ASSERT_EQ(failures.load(), 0) << "chaos seed " << seed << " failed";
    // Disarmed, the daemon must serve cleanly -- no wedged connection,
    // no leaked queue slot, no poisoned cache.
    testutil::expectServerStillServes(server, designs::figure5());
  }

  server.stop();
  // Exactly-once accounting: every accepted job reached exactly one
  // terminal state.  (Replays are disabled, so completed counts jobs.)
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted,
            stats.completed + stats.cancelled + stats.synthFailed);
  fs::remove_all(cacheDir);
}

TEST(Chaos, ReplayAndLadderStayStableUnderFaults) {
  // The idempotent-replay chaos: ladder answers are wall-clock shaped,
  // so their retry stability rests entirely on the replay table.  Under
  // an aggressive lost-reply schedule, a ladder request submitted once
  // and retried many times must yield ONE payload, byte-stable across
  // every retry and every connection.
  const FailpointGuard guard;
  const int rounds = envInt("EBLOCKS_CHAOS_ROUNDS", 5);
  const std::uint32_t baseSeed =
      static_cast<std::uint32_t>(envInt("EBLOCKS_CHAOS_SEED", 1));

  ServerOptions options = quickOptions(2, 8);
  options.progressIntervalSeconds = 10.0;  // only replies on the wire
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  for (int round = 0; round < rounds; ++round) {
    const std::uint32_t seed = baseSeed + static_cast<std::uint32_t>(round);
    SCOPED_TRACE("chaos seed " + std::to_string(seed));
    ScheduleGen gen(seed * 0x9e3779b9u);
    // Lost replies, slow dribbling reads, interrupted sends.
    const std::string schedule =
        "client.recv=error:econnreset*times-" +
        std::to_string(gen.range(1, 3)) +
        ";client.send=partial:" + std::to_string(gen.range(2, 8)) +
        "*every-" + std::to_string(gen.range(2, 4)) +
        ";server.write=partial:" + std::to_string(gen.range(4, 12)) +
        "*every-" + std::to_string(gen.range(2, 4));
    ASSERT_TRUE(fp::install(schedule, &error)) << error;

    SynthRequest ladder = paredownRequest(1, designs::figure5());
    ladder.algorithm = "ladder";
    ladder.timeLimitSeconds = 1e-9;  // pinned to the greedy rung

    Client client;
    if (!client.connectTo("127.0.0.1", server.port(), &error)) client.close();
    RetryPolicy policy;
    policy.maxAttempts = 10;
    policy.initialBackoffMs = 5.0;
    policy.attemptTimeoutMs = kCallTimeoutMs;
    policy.rngSeed = seed;

    std::string firstNetworkFrame, firstRunFrame, firstTier;
    for (int attempt = 0; attempt < 4; ++attempt) {
      SynthRequest request = ladder;
      request.id = static_cast<std::uint64_t>(10 * (round + 1) + attempt);
      const CallResult result = client.callWithRetry(request, policy);
      ASSERT_TRUE(result.ok())
          << "chaos seed " << seed << " attempt " << attempt << ": "
          << (result.error ? result.error->message : "no reply");
      if (attempt == 0) {
        firstNetworkFrame = result.response->networkFrame;
        firstRunFrame = result.response->runFrame;
        firstTier = result.response->degradedTier;
        EXPECT_EQ(firstTier, "greedy");
      } else {
        EXPECT_EQ(result.response->networkFrame, firstNetworkFrame);
        EXPECT_EQ(result.response->runFrame, firstRunFrame);
        EXPECT_EQ(result.response->degradedTier, firstTier);
      }
    }
    fp::clearAll();
  }
  EXPECT_GT(server.stats().idempotentReplays, 0u);
  testutil::expectServerStillServes(server, designs::figure5());
}

}  // namespace
}  // namespace eblocks::server
