// End-to-end daemon tests over real loopback sockets: bit-identity with
// one-shot synthesize() (single and 8-way concurrent), the bounded-
// queue backpressure contract (reject-with-retry-after, never drop an
// accepted job), client cancellation of queued and running jobs,
// disconnect-mid-job cleanup, progress streaming, the shared solution
// cache behind the wire, and graceful drain.
#include "server/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "designs/library.h"
#include "server/client.h"
#include "server_test_util.h"
#include "synth/synthesizer.h"

namespace eblocks::server {
namespace {

using namespace std::chrono_literals;
using testutil::expectBitIdentical;
using testutil::paredownRequest;
using testutil::quickOptions;
using testutil::slowRequest;

constexpr int kCallTimeoutMs = 60000;

TEST(Server, StartsOnFreePortAndStops) {
  Server server(quickOptions(1, 4));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  EXPECT_GT(server.port(), 0);
  EXPECT_TRUE(server.running());
  server.stop();
  EXPECT_FALSE(server.running());
  server.stop();  // idempotent
}

TEST(Server, ServesBitIdenticalToOneShotSynthesize) {
  Server server(quickOptions(2, 8));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client client;
  ASSERT_TRUE(client.connectTo("127.0.0.1", server.port(), &error)) << error;
  const Network net = designs::figure5();
  const SynthRequest request = paredownRequest(1, net);
  const CallResult result = client.call(request, kCallTimeoutMs);
  ASSERT_TRUE(result.ok()) << (result.error ? result.error->message
                                            : "timeout");
  EXPECT_EQ(result.response->id, request.id);
  expectBitIdentical(net, request, *result.response);
  EXPECT_EQ(result.response->cacheOutcome,
            static_cast<std::uint8_t>(synth::CacheOutcome::kDisabled));
}

TEST(Server, ServesExhaustiveBitIdentical) {
  Server server(quickOptions(1, 4));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client client;
  ASSERT_TRUE(client.connectTo("127.0.0.1", server.port(), &error)) << error;
  const Network net = designs::figure5();
  SynthRequest request = paredownRequest(2, net);
  request.algorithm = "exhaustive";
  const CallResult result = client.call(request, kCallTimeoutMs);
  ASSERT_TRUE(result.ok()) << (result.error ? result.error->message
                                            : "timeout");
  expectBitIdentical(net, request, *result.response);

  // Two workers: the *answer* is thread-count invariant even though the
  // explored/pruned stripes depend on the stealing schedule, so compare
  // the served run to a local one modulo those counters.
  SynthRequest threaded = paredownRequest(3, net);
  threaded.algorithm = "exhaustive";
  threaded.threads = 2;
  const CallResult served = client.call(threaded, kCallTimeoutMs);
  ASSERT_TRUE(served.ok()) << (served.error ? served.error->message
                                            : "timeout");
  const synth::SynthResult local = testutil::localSynthesize(net, threaded);
  EXPECT_EQ(served.response->networkFrame,
            io::writeNetworkBinary(local.network));
  auto modulo = [](partition::PartitionRun run) {
    run.seconds = 0.0;
    run.explored = run.pruned = 0;
    run.workerExplored.clear();
    run.workerPruned.clear();
    return io::writePartitionRunBinary(run);
  };
  EXPECT_EQ(modulo(io::readPartitionRunBinary(served.response->runFrame)),
            modulo(local.run));
}

TEST(Server, EightConcurrentConnectionsBitIdentical) {
  // The acceptance bar: >= 8 concurrent requests over 8 connections,
  // every served result bit-identical to the local pipeline.
  Server server(quickOptions(4, 16));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  const std::vector<designs::DesignEntry> library = designs::designLibrary();
  ASSERT_GE(library.size(), 8u);
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int i = 0; i < 8; ++i) {
    clients.emplace_back([&, i] {
      Client client;
      std::string connectError;
      if (!client.connectTo("127.0.0.1", server.port(), &connectError)) {
        ++failures;
        return;
      }
      const Network& net = library[static_cast<std::size_t>(i)].network;
      const SynthRequest request =
          paredownRequest(static_cast<std::uint64_t>(100 + i), net);
      const CallResult result = client.call(request, kCallTimeoutMs);
      if (!result.ok() || result.response->id != request.id) {
        ++failures;
        return;
      }
      expectBitIdentical(net, request, *result.response);
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, 8u);
  EXPECT_EQ(stats.completed, 8u);
}

TEST(Server, MultiplexesRequestsOnOneConnection) {
  Server server(quickOptions(2, 8));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client client;
  ASSERT_TRUE(client.connectTo("127.0.0.1", server.port(), &error)) << error;
  const Network net = designs::figure5();
  // Fire three requests back to back, then collect the three responses
  // (order is completion order, matched back by id).
  for (std::uint64_t id = 1; id <= 3; ++id)
    ASSERT_TRUE(client.sendFrame(encodeRequest(paredownRequest(id, net))));
  std::vector<bool> seen(4, false);
  for (int got = 0; got < 3;) {
    const auto msg = client.nextMessage(kCallTimeoutMs, &error);
    ASSERT_TRUE(msg) << error;
    if (!std::holds_alternative<SynthResponse>(*msg)) continue;
    const SynthResponse& response = std::get<SynthResponse>(*msg);
    ASSERT_GE(response.id, 1u);
    ASSERT_LE(response.id, 3u);
    EXPECT_FALSE(seen[response.id]) << "duplicate reply";
    seen[response.id] = true;
    expectBitIdentical(net, paredownRequest(response.id, net), response);
    ++got;
  }
}

TEST(Server, BackpressureRejectsButNeverDropsAccepted) {
  // One executor, queue of one: firing five slow jobs at once must
  // overflow -- the overflow gets kOverloaded with a retry hint, and
  // every *accepted* job still completes.  Retrying on the hint
  // eventually lands every request.  The replay table would answer the
  // identical re-submits without ever touching the queue, hiding the
  // backpressure under test -- disable it.
  ServerOptions options = quickOptions(1, 1);
  options.idempotencyBytes = 0;
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  const Network net = testutil::hardNetwork();
  std::uint64_t rejected = 0;
  int completedCalls = 0;
  Client client;
  ASSERT_TRUE(client.connectTo("127.0.0.1", server.port(), &error)) << error;
  for (std::uint64_t id = 1; id <= 5; ++id) {
    for (;;) {
      const CallResult result =
          client.call(slowRequest(id, net, 0.15), kCallTimeoutMs);
      if (result.ok()) {
        ++completedCalls;
        break;
      }
      ASSERT_TRUE(result.error) << "call timed out";
      ASSERT_EQ(result.error->code, ErrorCode::kOverloaded)
          << result.error->message;
      ++rejected;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(result.error->retryAfterMs));
    }
  }
  EXPECT_EQ(completedCalls, 5);

  // Overflow the queue deliberately: a burst from a second connection
  // while a slow job runs must shed at least one request.
  Client burst;
  ASSERT_TRUE(burst.connectTo("127.0.0.1", server.port(), &error)) << error;
  for (std::uint64_t id = 10; id <= 15; ++id)
    ASSERT_TRUE(burst.sendFrame(encodeRequest(slowRequest(id, net, 0.15))));
  std::uint64_t burstRejected = 0;
  int burstAnswered = 0;
  while (burstAnswered < 6) {
    const auto msg = burst.nextMessage(kCallTimeoutMs, &error);
    ASSERT_TRUE(msg) << error;
    if (const auto* reply = std::get_if<ErrorReply>(&*msg)) {
      ASSERT_EQ(reply->code, ErrorCode::kOverloaded);
      EXPECT_GT(reply->retryAfterMs, 0u);
      ++burstRejected;
      ++burstAnswered;
    } else if (std::holds_alternative<SynthResponse>(*msg)) {
      ++burstAnswered;
    }
  }
  EXPECT_GT(burstRejected, 0u) << "burst never hit the bounded queue";
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.rejectedOverload, rejected + burstRejected);
  // The no-drop invariant: accepted == completed once everything quiesced.
  EXPECT_EQ(stats.accepted, stats.completed);
}

TEST(Server, StreamsProgressTicks) {
  Server server(quickOptions(1, 4));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client client;
  ASSERT_TRUE(client.connectTo("127.0.0.1", server.port(), &error)) << error;
  const CallResult result =
      client.call(slowRequest(1, testutil::hardNetwork(), 0.4), kCallTimeoutMs);
  ASSERT_TRUE(result.ok()) << (result.error ? result.error->message
                                            : "timeout");
  ASSERT_FALSE(result.progress.empty()) << "no progress ticks streamed";
  const Progress& last = result.progress.back();
  EXPECT_EQ(last.state, Progress::State::kRunning);
  EXPECT_GT(last.elapsedSeconds, 0.0);
}

TEST(Server, CancelRunningJobRepliesCancelled) {
  Server server(quickOptions(1, 4));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client client;
  ASSERT_TRUE(client.connectTo("127.0.0.1", server.port(), &error)) << error;
  // A job that would run for minutes; the cancel must cut it short via
  // the search's periodic check, not wait out the limit.
  ASSERT_TRUE(client.sendFrame(
      encodeRequest(slowRequest(1, testutil::hardNetwork(), 120.0))));
  // Wait until a progress tick proves it is running, then cancel.
  for (;;) {
    const auto msg = client.nextMessage(kCallTimeoutMs, &error);
    ASSERT_TRUE(msg) << error;
    ASSERT_TRUE(std::holds_alternative<Progress>(*msg));
    if (std::get<Progress>(*msg).state == Progress::State::kRunning) break;
  }
  const auto cancelledAt = std::chrono::steady_clock::now();
  ASSERT_TRUE(client.cancelRequest(1));
  for (;;) {
    const auto msg = client.nextMessage(kCallTimeoutMs, &error);
    ASSERT_TRUE(msg) << error;
    if (std::holds_alternative<Progress>(*msg)) continue;
    ASSERT_TRUE(std::holds_alternative<ErrorReply>(*msg));
    EXPECT_EQ(std::get<ErrorReply>(*msg).code, ErrorCode::kCancelled);
    break;
  }
  // Far below the 120 s limit: the flag rode the timeout plumbing.
  EXPECT_LT(std::chrono::steady_clock::now() - cancelledAt, 30s);
}

TEST(Server, CancelQueuedJobRepliesImmediately) {
  Server server(quickOptions(1, 4));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client client;
  ASSERT_TRUE(client.connectTo("127.0.0.1", server.port(), &error)) << error;
  const Network net = testutil::hardNetwork();
  ASSERT_TRUE(client.sendFrame(encodeRequest(slowRequest(1, net, 0.5))));
  ASSERT_TRUE(client.sendFrame(encodeRequest(slowRequest(2, net, 0.5))));
  ASSERT_TRUE(client.cancelRequest(2));
  // The queued job's cancel is answered by the loop without waiting for
  // an executor; job 1 keeps running undisturbed.
  bool sawCancelled2 = false, sawResponse1 = false;
  while (!sawCancelled2 || !sawResponse1) {
    const auto msg = client.nextMessage(kCallTimeoutMs, &error);
    ASSERT_TRUE(msg) << error;
    if (const auto* reply = std::get_if<ErrorReply>(&*msg)) {
      EXPECT_EQ(reply->id, 2u);
      EXPECT_EQ(reply->code, ErrorCode::kCancelled);
      sawCancelled2 = true;
    } else if (const auto* response = std::get_if<SynthResponse>(&*msg)) {
      EXPECT_EQ(response->id, 1u);
      sawResponse1 = true;
    }
  }
}

TEST(Server, CancelUnknownIdRejected) {
  Server server(quickOptions(1, 4));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client client;
  ASSERT_TRUE(client.connectTo("127.0.0.1", server.port(), &error)) << error;
  ASSERT_TRUE(client.cancelRequest(99));
  const auto msg = client.nextMessage(kCallTimeoutMs, &error);
  ASSERT_TRUE(msg) << error;
  ASSERT_TRUE(std::holds_alternative<ErrorReply>(*msg));
  EXPECT_EQ(std::get<ErrorReply>(*msg).code, ErrorCode::kUnknownRequest);
}

TEST(Server, DuplicateRequestIdRejected) {
  Server server(quickOptions(1, 4));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client client;
  ASSERT_TRUE(client.connectTo("127.0.0.1", server.port(), &error)) << error;
  const Network net = testutil::hardNetwork();
  ASSERT_TRUE(client.sendFrame(encodeRequest(slowRequest(7, net, 0.5))));
  ASSERT_TRUE(client.sendFrame(encodeRequest(slowRequest(7, net, 0.5))));
  bool sawDuplicate = false, sawResponse = false;
  while (!sawDuplicate || !sawResponse) {
    const auto msg = client.nextMessage(kCallTimeoutMs, &error);
    ASSERT_TRUE(msg) << error;
    if (const auto* reply = std::get_if<ErrorReply>(&*msg)) {
      EXPECT_EQ(reply->code, ErrorCode::kDuplicateRequest);
      sawDuplicate = true;
    } else if (const auto* response = std::get_if<SynthResponse>(&*msg)) {
      EXPECT_EQ(response->id, 7u);
      sawResponse = true;
    }
  }
}

TEST(Server, BadRequestContentRejectedCleanly) {
  Server server(quickOptions(1, 4));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client client;
  ASSERT_TRUE(client.connectTo("127.0.0.1", server.port(), &error)) << error;
  const Network net = designs::figure5();

  SynthRequest unknownAlgorithm = paredownRequest(1, net);
  unknownAlgorithm.algorithm = "simulated-annealing";
  CallResult result = client.call(unknownAlgorithm, kCallTimeoutMs);
  ASSERT_TRUE(result.error) << "expected kBadRequest";
  EXPECT_EQ(result.error->code, ErrorCode::kBadRequest);

  SynthRequest badNetwork = paredownRequest(2, net);
  badNetwork.networkFrame = "these bytes are not an EBLK network frame";
  result = client.call(badNetwork, kCallTimeoutMs);
  ASSERT_TRUE(result.error) << "expected kBadRequest";
  EXPECT_EQ(result.error->code, ErrorCode::kBadRequest);

  SynthRequest badBudget = paredownRequest(3, net);
  badBudget.inputs = 0;
  result = client.call(badBudget, kCallTimeoutMs);
  ASSERT_TRUE(result.error) << "expected kBadRequest";
  EXPECT_EQ(result.error->code, ErrorCode::kBadRequest);

  // The connection survived all three rejections.
  const SynthRequest good = paredownRequest(4, net);
  result = client.call(good, kCallTimeoutMs);
  ASSERT_TRUE(result.ok());
  expectBitIdentical(net, good, *result.response);
}

TEST(Server, NonFiniteTimeLimitIsABadRequest) {
  // A limit of +inf or NaN is not a budget; the daemon answers
  // bad-request rather than letting each search read it its own way.
  Server server(quickOptions(1, 4));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  Client client;
  ASSERT_TRUE(client.connectTo("127.0.0.1", server.port(), &error)) << error;
  const Network net = designs::figure5();
  std::uint64_t id = 1;
  for (const double limit : {std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()}) {
    SynthRequest request = paredownRequest(id++, net);
    request.timeLimitSeconds = limit;
    const CallResult result = client.call(request, kCallTimeoutMs);
    ASSERT_TRUE(result.error) << "expected kBadRequest for " << limit;
    EXPECT_EQ(result.error->code, ErrorCode::kBadRequest);
  }
  const SynthRequest good = paredownRequest(id, net);
  const CallResult result = client.call(good, kCallTimeoutMs);
  ASSERT_TRUE(result.ok());
  expectBitIdentical(net, good, *result.response);
}

TEST(Server, DisconnectMidJobCancelsAndServerSurvives) {
  Server server(quickOptions(1, 4));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  {
    Client doomed;
    ASSERT_TRUE(doomed.connectTo("127.0.0.1", server.port(), &error))
        << error;
    ASSERT_TRUE(doomed.sendFrame(
        encodeRequest(slowRequest(1, testutil::hardNetwork(), 120.0))));
    // Let the job reach an executor, then vanish without a goodbye.
    std::this_thread::sleep_for(200ms);
  }
  // The orphaned job must be cancelled via the search's periodic check,
  // freeing the lone executor long before the 120 s limit.
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while (server.stats().cancelled == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(20ms);
  EXPECT_EQ(server.stats().cancelled, 1u);
  testutil::expectServerStillServes(server, designs::figure5());
}

TEST(Server, SharedCacheBehindTheWire) {
  ServerOptions options = quickOptions(1, 4);
  options.cacheEnabled = true;  // in-memory store shared by all requests
  // The replay table would answer the identical warm request before the
  // solution cache ever saw it; this test is about the cache, so turn
  // replays off (server_test below covers them separately).
  options.idempotencyBytes = 0;
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client client;
  ASSERT_TRUE(client.connectTo("127.0.0.1", server.port(), &error)) << error;
  const Network net = designs::figure5();

  SynthRequest first = paredownRequest(1, net);
  first.useCache = true;
  const CallResult cold = client.call(first, kCallTimeoutMs);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold.response->cacheOutcome,
            static_cast<std::uint8_t>(synth::CacheOutcome::kMiss));

  SynthRequest second = paredownRequest(2, net);
  second.useCache = true;
  const CallResult warm = client.call(second, kCallTimeoutMs);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm.response->cacheOutcome,
            static_cast<std::uint8_t>(synth::CacheOutcome::kHit));
  // A cache hit is bit-identical to the cold run, wall time included --
  // the stored record IS the cold run.
  EXPECT_EQ(warm.response->networkFrame, cold.response->networkFrame);
  EXPECT_EQ(warm.response->runFrame, cold.response->runFrame);

  // Per-request opt-out: same design, cache off, fresh run.
  SynthRequest optOut = paredownRequest(3, net);
  optOut.useCache = false;
  const CallResult fresh = client.call(optOut, kCallTimeoutMs);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh.response->cacheOutcome,
            static_cast<std::uint8_t>(synth::CacheOutcome::kDisabled));
  EXPECT_EQ(fresh.response->networkFrame, cold.response->networkFrame);
}

TEST(Server, GracefulDrainFlushesInFlightReplies) {
  Server server(quickOptions(1, 4));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client client;
  ASSERT_TRUE(client.connectTo("127.0.0.1", server.port(), &error)) << error;
  const Network net = testutil::hardNetwork();
  const SynthRequest request = slowRequest(1, net, 0.3);
  ASSERT_TRUE(client.sendFrame(encodeRequest(request)));
  std::this_thread::sleep_for(50ms);  // let the job start

  std::thread stopper([&server] { server.stop(); });
  // The drain must wait for the in-flight job and flush its reply.
  bool sawReply = false;
  for (;;) {
    const auto msg = client.nextMessage(kCallTimeoutMs, &error);
    if (!msg) break;  // server closed the connection after the flush
    if (const auto* response = std::get_if<SynthResponse>(&*msg)) {
      EXPECT_EQ(response->id, 1u);
      sawReply = true;
    }
  }
  stopper.join();
  EXPECT_TRUE(sawReply) << "drain dropped an accepted job's reply";
  EXPECT_EQ(server.stats().completed, 1u);
}

TEST(Server, DrainingRejectsNewRequestsWithShuttingDown) {
  Server server(quickOptions(1, 4));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client client;
  ASSERT_TRUE(client.connectTo("127.0.0.1", server.port(), &error)) << error;
  const Network net = testutil::hardNetwork();
  ASSERT_TRUE(client.sendFrame(encodeRequest(slowRequest(1, net, 120.0))));
  std::this_thread::sleep_for(100ms);  // job is running

  // The running job holds the drain open: a request arriving mid-drain
  // is refused as kShuttingDown, then the client releases the drain by
  // cancelling its long job.
  std::thread stopper([&server] { server.stop(); });
  std::this_thread::sleep_for(100ms);  // draining flag is set
  ASSERT_TRUE(client.sendFrame(encodeRequest(paredownRequest(2, net))));
  bool sawShuttingDown = false, sawCancelled = false;
  for (;;) {
    const auto msg = client.nextMessage(kCallTimeoutMs, &error);
    if (!msg) break;  // connection closed once the drain finished
    const auto* reply = std::get_if<ErrorReply>(&*msg);
    if (!reply) continue;
    if (reply->code == ErrorCode::kShuttingDown) {
      sawShuttingDown = true;
      ASSERT_TRUE(client.cancelRequest(1));
    }
    if (reply->code == ErrorCode::kCancelled) sawCancelled = true;
  }
  stopper.join();
  EXPECT_TRUE(sawShuttingDown);
  EXPECT_TRUE(sawCancelled);
}

}  // namespace
}  // namespace eblocks::server
