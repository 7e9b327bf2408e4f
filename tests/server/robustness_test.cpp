// The robustness layer end to end (docs/robustness.md): the retrying
// client's backoff/reconnect behavior, the server's idempotent-replay
// table, the degradation ladder's tier riding the wire, and injected
// socket faults (core/failpoint.h) that both sides must absorb without
// a wrong answer.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "core/failpoint.h"
#include "designs/library.h"
#include "server/client.h"
#include "server/server.h"
#include "server_test_util.h"
#include "synth/synthesizer.h"

namespace eblocks::server {
namespace {

namespace fp = core::failpoint;
using testutil::expectBitIdentical;
using testutil::paredownRequest;
using testutil::quickOptions;

constexpr int kCallTimeoutMs = 60000;

/// Disarms every failpoint on scope exit, so a failing ASSERT cannot
/// leak an armed site into the next test.
struct FailpointGuard {
  FailpointGuard() { fp::clearAll(); }
  ~FailpointGuard() { fp::clearAll(); }
};

void expectSameResponsePayload(const SynthResponse& a,
                               const SynthResponse& b) {
  // Everything but the id (which is the caller's) must be byte-equal --
  // a replay is the original completed answer, not a recomputation.
  EXPECT_EQ(a.cacheOutcome, b.cacheOutcome);
  EXPECT_EQ(a.originalInner, b.originalInner);
  EXPECT_EQ(a.innerAfter, b.innerAfter);
  EXPECT_EQ(a.programmableBlocks, b.programmableBlocks);
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.degradedTier, b.degradedTier);
  EXPECT_EQ(a.networkFrame, b.networkFrame);
  EXPECT_EQ(a.runFrame, b.runFrame);
}

TEST(Robustness, IdempotentReplayAcrossConnectionsAndIds) {
  Server server(quickOptions(1, 4));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  const Network net = designs::figure5();

  Client first;
  ASSERT_TRUE(first.connectTo("127.0.0.1", server.port(), &error)) << error;
  const CallResult original = first.call(paredownRequest(1, net),
                                         kCallTimeoutMs);
  ASSERT_TRUE(original.ok());

  // Same request content from a different connection under a different
  // id: answered from the table, never queued, payload byte-identical.
  Client second;
  ASSERT_TRUE(second.connectTo("127.0.0.1", server.port(), &error)) << error;
  const CallResult replay = second.call(paredownRequest(42, net),
                                        kCallTimeoutMs);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay.response->id, 42u);
  expectSameResponsePayload(*original.response, *replay.response);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.idempotentReplays, 1u);
  EXPECT_EQ(stats.completed, 2u);  // replays count as completed

  // Different content (another design) must NOT replay.
  const CallResult other = second.call(
      paredownRequest(43, designs::byName("Timed Passage")), kCallTimeoutMs);
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(server.stats().idempotentReplays, 1u);
}

TEST(Robustness, IdempotencyTableEvictsTheLeastRecentlyUsedReply) {
  // Four requests with distinct content but equal-size replies (paredown
  // ignores the thread count, so only the replay key differs), in a
  // table sized for three of them.  Replaying A makes B the least
  // recently used entry, so storing D must evict B -- not A, the oldest
  // insertion.
  const Network net = designs::figure5();
  const auto request = [&](std::uint64_t id, int threads) {
    SynthRequest r = paredownRequest(id, net);
    r.threads = threads;
    return r;
  };
  const synth::SynthResult local =
      testutil::localSynthesize(net, request(0, 1));
  // One table entry: its map node (three links and a color word before
  // the key and a list iterator), its list node (two links before the
  // key, the stored response and its byte count), and the reply's frames.
  const std::uint64_t entry =
      4 * sizeof(void*) + sizeof(cache::Hash128) + sizeof(void*) +
      2 * sizeof(void*) + sizeof(cache::Hash128) + sizeof(SynthResponse) +
      sizeof(std::uint64_t) + io::writeNetworkBinary(local.network).size() +
      io::writePartitionRunBinary(local.run).size();
  ServerOptions options = quickOptions(1, 4);
  options.idempotencyBytes = 3 * entry + entry / 2;
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  Client client;
  ASSERT_TRUE(client.connectTo("127.0.0.1", server.port(), &error)) << error;
  const auto call = [&](std::uint64_t id, int threads) {
    const CallResult result = client.call(request(id, threads),
                                          kCallTimeoutMs);
    ASSERT_TRUE(result.ok());
  };

  call(1, 1);  // A
  call(2, 2);  // B
  call(3, 3);  // C
  call(4, 1);  // replay A: B is now the least recently used
  EXPECT_EQ(server.stats().idempotentReplays, 1u);
  call(5, 4);  // D evicts B
  call(6, 1);  // A still replays
  EXPECT_EQ(server.stats().idempotentReplays, 2u);
  call(7, 2);  // B is recomputed
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.idempotentReplays, 2u);
  EXPECT_EQ(stats.accepted, 5u);  // A, B, C, D, and B again
}

TEST(Robustness, IsomorphicDesignsNeverReplayEachOther) {
  // The replay key must be the exact request bytes, never the
  // rename-invariant structure hash: the Table-1 pair Ignition
  // Illuminator / Night Lamp Controller are isomorphic (they collide on
  // structureHash by design), but their synthesized networks carry
  // different block names -- serving one's completed answer for the
  // other would be a wrong result with matching structure.  This was a
  // live bug: under TSan's slowdown the first job completed before the
  // second arrived and the collision served the wrong design.
  Server server(quickOptions(1, 4));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  Client client;
  ASSERT_TRUE(client.connectTo("127.0.0.1", server.port(), &error)) << error;

  const Network ignition = designs::byName("Ignition Illuminator");
  const Network nightLamp = designs::byName("Night Lamp Controller");
  const CallResult first = client.call(paredownRequest(1, ignition),
                                       kCallTimeoutMs);
  ASSERT_TRUE(first.ok());
  const CallResult second = client.call(paredownRequest(2, nightLamp),
                                        kCallTimeoutMs);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(server.stats().idempotentReplays, 0u);
  EXPECT_EQ(server.stats().accepted, 2u);
  expectBitIdentical(nightLamp, paredownRequest(2, nightLamp),
                     *second.response);

  // Same design under a seeded renaming: still no replay -- the frame
  // bytes differ even though every hash the solution cache uses agrees.
  const Network renamed = randgen::relabeledCopy(ignition, 7);
  const CallResult third = client.call(paredownRequest(3, renamed),
                                       kCallTimeoutMs);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(server.stats().idempotentReplays, 0u);
  expectBitIdentical(renamed, paredownRequest(3, renamed), *third.response);
}

TEST(Robustness, LostReplyIsReplayedToTheRetryingClient) {
  // The scenario the idempotency table exists for: the server computes
  // and answers, the reply is lost in transit (injected connection
  // reset on the client's recv), and the client retries on a fresh
  // connection.  The retry must be served from the table -- the job is
  // never recomputed -- and the payload is the original, byte for byte.
  const FailpointGuard guard;
  ServerOptions options = quickOptions(1, 4);
  options.progressIntervalSeconds = 10.0;  // only the response frame flows
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  const Network net = designs::figure5();

  // A clean reference payload, served before any fault is armed.
  Client reference;
  ASSERT_TRUE(reference.connectTo("127.0.0.1", server.port(), &error))
      << error;
  const CallResult clean = reference.call(paredownRequest(1, net),
                                          kCallTimeoutMs);
  ASSERT_TRUE(clean.ok());
  const std::uint64_t replaysBefore = server.stats().idempotentReplays;

  Client client;
  ASSERT_TRUE(client.connectTo("127.0.0.1", server.port(), &error)) << error;
  // The first recv of the reply dies with ECONNRESET; every later recv
  // is healthy.  callWithRetry drops the connection, reconnects, and
  // resubmits.
  ASSERT_TRUE(fp::install("client.recv=error:econnreset*once"));
  std::vector<std::string> reasons;
  RetryPolicy policy;
  policy.maxAttempts = 4;
  policy.initialBackoffMs = 5.0;
  policy.attemptTimeoutMs = kCallTimeoutMs;
  policy.onRetry = [&](int, double, const std::string& reason) {
    reasons.push_back(reason);
  };
  const CallResult retried = client.callWithRetry(paredownRequest(2, net),
                                                  policy);
  ASSERT_TRUE(retried.ok()) << (retried.error ? retried.error->message
                                              : "no reply");
  ASSERT_FALSE(reasons.empty());
  EXPECT_EQ(reasons.front(), "connection lost");
  expectSameResponsePayload(*clean.response, *retried.response);
  EXPECT_GT(server.stats().idempotentReplays, replaysBefore);
}

TEST(Robustness, CallWithRetryRidesOutOverload) {
  // One executor, queue of one, occupied by a slow job + a queued one:
  // the paredown call gets kOverloaded with a retry hint until capacity
  // frees, and callWithRetry lands it without the caller doing anything.
  ServerOptions options = quickOptions(1, 1);
  options.idempotencyBytes = 0;  // keep the queue, not the table, in play
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  const Network hard = testutil::hardNetwork();
  Client blocker;
  ASSERT_TRUE(blocker.connectTo("127.0.0.1", server.port(), &error)) << error;
  ASSERT_TRUE(
      blocker.sendFrame(encodeRequest(testutil::slowRequest(1, hard, 0.5))));
  // Wait until the first job occupies the executor before queueing the
  // second, so the second deterministically fills the queue instead of
  // racing the executor's pop.
  while (server.stats().runningNow == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_TRUE(
      blocker.sendFrame(encodeRequest(testutil::slowRequest(2, hard, 0.5))));
  while (server.stats().queuedNow == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  Client client;
  ASSERT_TRUE(client.connectTo("127.0.0.1", server.port(), &error)) << error;
  int overloadRetries = 0;
  RetryPolicy policy;
  policy.maxAttempts = 30;
  policy.initialBackoffMs = 20.0;
  policy.maxBackoffMs = 100.0;
  policy.attemptTimeoutMs = kCallTimeoutMs;
  policy.onRetry = [&](int, double sleepMs, const std::string& reason) {
    if (reason == toString(ErrorCode::kOverloaded)) {
      ++overloadRetries;
      // The sleep honors the server's retryAfterMs hint (50ms in
      // quickOptions) modulo the +/-25% jitter band.
      EXPECT_GE(sleepMs, 50.0 * 0.75);
    }
  };
  const Network net = designs::figure5();
  const CallResult result = client.callWithRetry(paredownRequest(7, net),
                                                 policy);
  ASSERT_TRUE(result.ok()) << (result.error ? result.error->message
                                            : "no reply");
  expectBitIdentical(net, paredownRequest(7, net), *result.response);
  EXPECT_GE(overloadRetries, 1);
  // Consume the blocker's replies so the drain is clean.
  for (int got = 0; got < 2;) {
    const auto msg = blocker.nextMessage(kCallTimeoutMs, &error);
    ASSERT_TRUE(msg) << error;
    if (!std::holds_alternative<Progress>(*msg)) ++got;
  }
}

TEST(Robustness, RetryGivesUpOnDeterministicRejections) {
  Server server(quickOptions(1, 4));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  Client client;
  ASSERT_TRUE(client.connectTo("127.0.0.1", server.port(), &error)) << error;

  SynthRequest bad = paredownRequest(1, designs::figure5());
  bad.algorithm = "no-such-strategy";
  int retries = 0;
  RetryPolicy policy;
  policy.attemptTimeoutMs = kCallTimeoutMs;
  policy.onRetry = [&](int, double, const std::string&) { ++retries; };
  const CallResult result = client.callWithRetry(bad, policy);
  ASSERT_TRUE(result.error.has_value());
  EXPECT_EQ(result.error->code, ErrorCode::kBadRequest);
  EXPECT_EQ(retries, 0) << "a deterministic rejection must not be retried";
}

TEST(Robustness, DegradedTierRidesTheWire) {
  Server server(quickOptions(1, 4));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  Client client;
  ASSERT_TRUE(client.connectTo("127.0.0.1", server.port(), &error)) << error;
  const Network net = designs::figure5();

  // A starved ladder run reports its rung...
  SynthRequest starved = paredownRequest(1, net);
  starved.algorithm = "ladder";
  starved.timeLimitSeconds = 1e-9;
  const CallResult degraded = client.call(starved, kCallTimeoutMs);
  ASSERT_TRUE(degraded.ok());
  EXPECT_EQ(degraded.response->degradedTier, "greedy");

  // ...an unlimited ladder run completes exactly (tier unset)...
  SynthRequest unlimited = paredownRequest(2, net);
  unlimited.algorithm = "ladder";
  unlimited.timeLimitSeconds = 0.0;
  const CallResult exact = client.call(unlimited, kCallTimeoutMs);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact.response->degradedTier, "");

  // ...and non-ladder strategies never set the field.
  const CallResult plain = client.call(paredownRequest(3, net),
                                       kCallTimeoutMs);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain.response->degradedTier, "");
}

TEST(Robustness, LadderRetryIsStableThroughTheIdempotencyTable) {
  // Ladder results are wall-clock dependent, so the solution cache
  // refuses them; retry stability comes from the idempotency table
  // instead.  A re-submitted starved ladder request must return the
  // SAME bytes, not a fresh (possibly different-tier) run.
  Server server(quickOptions(1, 4));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  Client client;
  ASSERT_TRUE(client.connectTo("127.0.0.1", server.port(), &error)) << error;

  SynthRequest request = paredownRequest(1, designs::figure5());
  request.algorithm = "ladder";
  request.timeLimitSeconds = 1e-9;
  const CallResult first = client.call(request, kCallTimeoutMs);
  ASSERT_TRUE(first.ok());
  request.id = 2;
  const CallResult second = client.call(request, kCallTimeoutMs);
  ASSERT_TRUE(second.ok());
  expectSameResponsePayload(*first.response, *second.response);
  EXPECT_EQ(server.stats().idempotentReplays, 1u);
}

TEST(Robustness, InjectedSocketFaultsAreAbsorbedBitIdentically) {
  // Periodic partial reads/writes and EINTRs on BOTH sides of the wire:
  // the continuation loops reassemble every frame and the answers stay
  // bit-identical to a healthy run.  (Bounded or periodic triggers only:
  // an always-on fatal fault would rightly kill the connection.)
  const FailpointGuard guard;
  Server server(quickOptions(2, 8));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  Client client;
  ASSERT_TRUE(client.connectTo("127.0.0.1", server.port(), &error)) << error;

  ASSERT_TRUE(fp::install(
      "server.read=partial:5*every-3;server.write=partial:7*every-2;"
      "server.poll=error:eintr*every-5;client.send=partial:3*every-2;"
      "client.recv=error:eintr*every-4"));
  const Network net = designs::figure5();
  for (std::uint64_t id = 1; id <= 5; ++id) {
    const SynthRequest request = paredownRequest(id, net);
    const CallResult result = client.call(request, kCallTimeoutMs);
    ASSERT_TRUE(result.ok()) << "id " << id
                             << (result.error ? result.error->message : "");
    expectBitIdentical(net, request, *result.response);
  }
}

TEST(Robustness, ConnectRetryAfterInjectedRefusal) {
  // connect() fails once; callWithRetry's reconnect path recovers.
  const FailpointGuard guard;
  Server server(quickOptions(1, 4));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client client;
  ASSERT_TRUE(client.connectTo("127.0.0.1", server.port(), &error)) << error;
  client.close();  // force callWithRetry through connectTo()
  ASSERT_TRUE(fp::install("client.connect=error*once"));
  RetryPolicy policy;
  policy.maxAttempts = 3;
  policy.initialBackoffMs = 5.0;
  policy.attemptTimeoutMs = kCallTimeoutMs;
  const Network net = designs::figure5();
  const CallResult result = client.callWithRetry(paredownRequest(9, net),
                                                 policy);
  ASSERT_TRUE(result.ok()) << (result.error ? result.error->message
                                            : "no reply");
  expectBitIdentical(net, paredownRequest(9, net), *result.response);
}

}  // namespace
}  // namespace eblocks::server
