// Daemon load bench: the synthesis server (src/server/) measured over
// real loopback sockets in three phases.
//
//  - Identity sweep: every library design served once (serial paredown,
//    cache off) and byte-compared against the one-shot synthesize()
//    pipeline.  The served node counts are the deterministic regression
//    signal -- the wire must not change the search.
//  - Throughput: `clients` concurrent connections each firing
//    `requests` pipelined requests at a multi-executor server; reports
//    requests/second and p50/p99 latency (informational), plus the
//    completed count as a deterministic no-drop witness: every accepted
//    job gets exactly one reply.
//  - Backpressure: one executor, queue of one, a burst of slow jobs.
//    The overflow must be shed with kOverloaded + retry-after, and
//    honoring the hint must eventually land every request.
//
// Usage: bench_load [clients] [requests] [--json=PATH]
//   clients   concurrent connections in the throughput phase (default 8)
//   requests  pipelined requests per connection (default 16)
//
// JSON records ("eblocks-bench/2", see docs/benchmarks.md):
//   serve/identity/<design>
//     exact  nodes, pruned, inner_after  as served over the wire
//     info   seconds  (one call's wall time)
//   serve/load
//     exact  completed  replies received (clients * requests -- the
//                       no-drop bar), clients
//     info   seconds, rps, p50_ms, p99_ms
//   serve/backpressure
//     exact  served  jobs landed after retry
//            shed    1 when the daemon shed >= 1 request with kOverloaded
//     info   rejected_overload  the daemon's count of shed requests
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "designs/library.h"
#include "io/binary.h"
#include "randgen/generator.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "synth/synthesizer.h"

namespace {

using namespace eblocks;

constexpr int kCallTimeoutMs = 120000;

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The phases repeat request content (the throughput designs cycle, the
/// backpressure jobs differ only in id), so the idempotency table is off:
/// every request is synthesized and counts as accepted and completed,
/// instead of being answered as a replay.
server::ServerOptions serverOptions(int executors, std::size_t queue) {
  server::ServerOptions options;
  options.host = "127.0.0.1";
  options.port = 0;  // free port per phase
  options.executors = executors;
  options.queueCapacity = queue;
  options.retryAfterSeconds = 0.05;
  options.idempotencyBytes = 0;
  return options;
}

server::SynthRequest paredownRequest(std::uint64_t id, const Network& net) {
  server::SynthRequest request;
  request.id = id;
  request.algorithm = "paredown";
  request.threads = 1;
  request.useCache = false;
  request.networkFrame = io::writeNetworkBinary(net);
  return request;
}

/// The local pipeline a served request must match byte for byte
/// (modulo the wall-clock field of the run frame).
bool identicalToLocal(const Network& net, const server::SynthRequest& request,
                      const server::SynthResponse& response) {
  synth::SynthOptions options;
  options.algorithm = request.algorithm;
  options.spec.inputs = request.inputs;
  options.spec.outputs = request.outputs;
  options.engine.threads = request.threads;
  options.engine.timeLimitSeconds = request.timeLimitSeconds;
  options.engine.pruningBound = request.prune;
  options.emitC = false;
  const synth::SynthResult local = synth::synthesize(net, options);
  if (response.networkFrame != io::writeNetworkBinary(local.network))
    return false;
  auto moduloTime = [](partition::PartitionRun run) {
    run.seconds = 0.0;
    return io::writePartitionRunBinary(run);
  };
  return moduloTime(io::readPartitionRunBinary(response.runFrame)) ==
         moduloTime(local.run);
}

/// Phase 1: every library design over the wire, checked against the
/// local pipeline; the explored counts become exact JSON values.
bool identitySweep(bench::BenchJson& json) {
  server::Server daemon(serverOptions(/*executors=*/2, /*queue=*/8));
  std::string error;
  if (!daemon.start(&error)) {
    std::fprintf(stderr, "bench_load: %s\n", error.c_str());
    return false;
  }
  server::Client client;
  if (!client.connectTo("127.0.0.1", daemon.port(), &error)) {
    std::fprintf(stderr, "bench_load: %s\n", error.c_str());
    return false;
  }

  std::printf("%-26s %10s %10s | %10s\n", "Design", "Explored", "Blocks",
              "Wire[ms]");
  std::uint64_t id = 0;
  for (const auto& entry : designs::designLibrary()) {
    const server::SynthRequest request = paredownRequest(++id, entry.network);
    const double t0 = now();
    const server::CallResult result = client.call(request, kCallTimeoutMs);
    const double ms = (now() - t0) * 1e3;
    if (!result.ok()) {
      std::fprintf(stderr, "bench_load: '%s' failed: %s\n",
                   entry.name.c_str(),
                   result.error ? result.error->message.c_str() : "timeout");
      return false;
    }
    if (!identicalToLocal(entry.network, request, *result.response)) {
      std::fprintf(stderr, "bench_load: '%s' served result differs from "
                           "one-shot synthesize()\n", entry.name.c_str());
      return false;
    }
    const partition::PartitionRun run =
        io::readPartitionRunBinary(result.response->runFrame);
    std::printf("%-26s %10llu %10u | %10.2f\n", entry.name.c_str(),
                static_cast<unsigned long long>(run.explored),
                result.response->programmableBlocks, ms);

    json.add("serve/identity/" + entry.name, true,
             {{"nodes", run.explored},
              {"pruned", run.pruned},
              {"inner_after", result.response->innerAfter}},
             {{"seconds", ms / 1e3}});
  }
  return true;
}

/// Phase 2: `clients` connections x `requests` pipelined requests.
bool throughput(int clients, int requests, bench::BenchJson& json) {
  server::Server daemon(serverOptions(/*executors=*/4, /*queue=*/256));
  std::string error;
  if (!daemon.start(&error)) {
    std::fprintf(stderr, "bench_load: %s\n", error.c_str());
    return false;
  }

  const std::vector<designs::DesignEntry> library = designs::designLibrary();
  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  const double t0 = now();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      server::Client client;
      std::string connectError;
      if (!client.connectTo("127.0.0.1", daemon.port(), &connectError)) {
        ++failures;
        return;
      }
      for (int r = 0; r < requests; ++r) {
        const Network& net =
            library[static_cast<std::size_t>(c + r) % library.size()].network;
        const std::uint64_t id = static_cast<std::uint64_t>(r + 1);
        const double s0 = now();
        const server::CallResult result =
            client.call(paredownRequest(id, net), kCallTimeoutMs);
        if (!result.ok() || result.response->id != id) {
          ++failures;
          return;
        }
        latencies[static_cast<std::size_t>(c)].push_back((now() - s0) * 1e3);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed = now() - t0;
  if (failures.load() != 0) {
    std::fprintf(stderr, "bench_load: %d client thread(s) failed\n",
                 failures.load());
    return false;
  }

  std::vector<double> all;
  for (const auto& perClient : latencies)
    all.insert(all.end(), perClient.begin(), perClient.end());
  std::sort(all.begin(), all.end());
  const std::uint64_t completed = all.size();
  const double rps = elapsed > 0 ? static_cast<double>(completed) / elapsed
                                 : 0.0;
  auto percentile = [&](double p) {
    const std::size_t i = static_cast<std::size_t>(
        p * static_cast<double>(all.size() - 1) + 0.5);
    return all[i];
  };
  const double p50 = percentile(0.50), p99 = percentile(0.99);
  std::printf("\nThroughput: %d clients x %d requests = %llu replies in "
              "%.3fs -> %.0f req/s, p50 %.2f ms, p99 %.2f ms\n",
              clients, requests, static_cast<unsigned long long>(completed),
              elapsed, rps, p50, p99);

  const server::ServerStats stats = daemon.stats();
  if (stats.accepted != stats.completed || completed != stats.completed) {
    std::fprintf(stderr, "bench_load: drop detected (accepted=%llu "
                         "completed=%llu replies=%llu)\n",
                 static_cast<unsigned long long>(stats.accepted),
                 static_cast<unsigned long long>(stats.completed),
                 static_cast<unsigned long long>(completed));
    return false;
  }

  json.add("serve/load", true,
           {{"completed", completed}, {"clients", clients}},
           {{"seconds", elapsed},
            {"rps", rps},
            {"p50_ms", p50},
            {"p99_ms", p99}});
  return true;
}

/// Phase 3: a burst against a one-deep queue; the shed requests carry a
/// retry-after hint that, honored, lands every job.
bool backpressure(bench::BenchJson& json) {
  server::Server daemon(serverOptions(/*executors=*/1, /*queue=*/1));
  std::string error;
  if (!daemon.start(&error)) {
    std::fprintf(stderr, "bench_load: %s\n", error.c_str());
    return false;
  }
  server::Client client;
  if (!client.connectTo("127.0.0.1", daemon.port(), &error)) {
    std::fprintf(stderr, "bench_load: %s\n", error.c_str());
    return false;
  }

  // Slow jobs: an unpruned exhaustive search on a large random network
  // runs until its (short) time limit, holding the executor busy.
  randgen::GeneratorOptions gen;
  gen.innerBlocks = 34;
  gen.seed = 7;
  const Network hard = randgen::randomNetwork(gen);
  constexpr int kJobs = 8;
  std::uint64_t rejected = 0, served = 0;
  for (std::uint64_t id = 1; id <= kJobs; ++id) {
    server::SynthRequest request = paredownRequest(id, hard);
    request.algorithm = "exhaustive";
    request.prune = false;
    request.timeLimitSeconds = 0.1;
    for (;;) {
      const server::CallResult result = client.call(request, kCallTimeoutMs);
      if (result.ok()) {
        ++served;
        break;
      }
      if (!result.error ||
          result.error->code != server::ErrorCode::kOverloaded) {
        std::fprintf(stderr, "bench_load: unexpected reply to job %llu\n",
                     static_cast<unsigned long long>(id));
        return false;
      }
      ++rejected;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(result.error->retryAfterMs));
    }
    // Pipeline two extra copies immediately.  Copy 100 holds the
    // executor for its whole 0.1 s limit, so copy 101 and job 2 cannot
    // both fit the one-deep queue: if 101 lands before the executor pops
    // 100, 101 is shed and job 2 is admitted once 100 is popped;
    // otherwise 101 takes the queue and job 2 is shed.  The client drops
    // the copies' out-of-band replies by id, so only the daemon's count
    // sees a shed copy.
    if (id == 1) {
      for (std::uint64_t crowdId : {100ull, 101ull}) {
        server::SynthRequest crowd = request;
        crowd.id = crowdId;
        (void)client.sendFrame(encodeRequest(crowd));
      }
    }
  }
  const server::ServerStats stats = daemon.stats();
  std::printf("\nBackpressure: %llu served, %llu shed with retry-after "
              "(accepted=%llu completed=%llu rejectedOverload=%llu)\n",
              static_cast<unsigned long long>(served),
              static_cast<unsigned long long>(rejected),
              static_cast<unsigned long long>(stats.accepted),
              static_cast<unsigned long long>(stats.completed),
              static_cast<unsigned long long>(stats.rejectedOverload));
  if (served != kJobs) {
    std::fprintf(stderr, "bench_load: retry loop lost a job\n");
    return false;
  }

  json.add("serve/backpressure", true,
           {{"served", served}, {"shed", stats.rejectedOverload > 0 ? 1 : 0}},
           {{"rejected_overload", stats.rejectedOverload}});
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string jsonPath = bench::BenchJson::extractPath(argc, argv);
  bench::BenchJson json("bench_load", jsonPath);
  const int clients = argc > 1 ? std::atoi(argv[1]) : 8;
  const int requests = argc > 2 ? std::atoi(argv[2]) : 16;
  if (clients < 1 || requests < 1) {
    std::fprintf(stderr, "usage: bench_load [clients] [requests] "
                         "[--json=PATH]\n");
    return 1;
  }

  std::printf("Daemon load: identity sweep, %d-client throughput, "
              "backpressure\n\n", clients);
  if (!identitySweep(json)) return 1;
  if (!throughput(clients, requests, json)) return 1;
  if (!backpressure(json)) return 1;
  return json.write() ? 0 : 1;
}
