// eblocksd's core: synthesis as a service over the wire protocol of
// protocol.h, built from three kinds of long-lived processes
// communicating through explicit queues:
//
//   - ONE event-loop thread (event_loop.h) owns every socket and all
//     request-lifecycle state: admission, validation, duplicate and
//     cancel bookkeeping, progress streaming, and replies.
//   - N executor threads pop accepted jobs from the bounded JobQueue
//     and run the existing synthesize() pipeline -- including its
//     work-stealing parallel search -- then post the completion closure
//     back into the loop.  Executors never touch a socket.
//   - The bounded queue between them is the backpressure point: a full
//     queue rejects at admission with kOverloaded + retryAfterMs; an
//     accepted job is never dropped.
//
// Served results are bit-identical to one-shot synth::synthesize() with
// the same options: the request carries exactly the knobs it forwards,
// everything else defaults, and the response returns the synthesized
// network and PartitionRun as the standard binary frames
// (tests/server/server_test.cpp byte-compares them against local runs).
//
// Cancellation rides the search's timeout plumbing: a kServerCancel
// frame (or the owning connection disconnecting) flips the job's atomic
// cancel flag, which EngineOptions::cancel delivers to the 4096-node
// periodic check inside the branch-and-bound workers and to LNS round
// boundaries.  No thread is ever killed; the search unwinds cleanly.
//
// Shutdown is a graceful drain: stop() closes the listener, makes new
// requests fail with kShuttingDown, waits for every in-flight job
// (optionally cancelling them), flushes replies, then joins all
// threads.  docs/server.md is the operator-facing contract.
#ifndef EBLOCKS_SERVER_SERVER_H_
#define EBLOCKS_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/solution_store.h"
#include "server/event_loop.h"
#include "server/job_queue.h"
#include "server/protocol.h"

namespace eblocks::server {

struct ServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 = pick a free port (see Server::port())
  /// Synthesis executor threads.  Each runs one job at a time; a job's
  /// own search may fan out further (SynthRequest::threads).
  int executors = 2;
  /// Bounded queue capacity -- the backpressure knob.  Admissions
  /// beyond it are rejected with kOverloaded.
  std::size_t queueCapacity = 16;
  /// Cadence of streamed kServerProgress ticks.
  double progressIntervalSeconds = 0.25;
  /// The retryAfterMs hint carried by kOverloaded rejections.
  double retryAfterSeconds = 0.25;
  /// Attach a solution store shared by all requests (per-request
  /// useCache=false opts out).  Empty directory = in-memory store;
  /// cacheEnabled=false = no store at all.
  bool cacheEnabled = false;
  std::string cacheDir;
  /// A pre-built store to share instead -- the shell's `serve` command
  /// hands in its own store so interactive `synth` runs and served
  /// requests hit one cache.  Overrides cacheEnabled/cacheDir.
  std::shared_ptr<cache::SolutionStore> store;
  /// Byte budget of the idempotent-replay table (0 disables it): an LRU
  /// of completed responses keyed on the request's exact *content* --
  /// the network frame bytes verbatim plus every option knob, which is
  /// everything except the client-chosen id -- so a client retrying a
  /// request whose first reply was lost in transit gets the completed
  /// answer replayed byte-identically instead of recomputed.  Distinct
  /// from the solution cache: it keys on exact request bytes (never the
  /// rename-invariant structure hash -- isomorphic designs synthesize
  /// to differently-named networks and must not replay each other),
  /// works for every algorithm including `ladder`, and never persists.
  /// Each reply is charged its strings plus its two table nodes, so the
  /// budget bounds what the table holds.
  std::uint64_t idempotencyBytes = 32ull << 20;
};

/// Monotonic counters plus live gauges; stats() returns a snapshot.
struct ServerStats {
  std::uint64_t accepted = 0;    ///< requests admitted to the queue
  std::uint64_t completed = 0;   ///< responses sent
  std::uint64_t rejectedOverload = 0;
  std::uint64_t rejectedShutdown = 0;
  std::uint64_t badRequests = 0;    ///< kBadRequest / kDuplicateRequest /
                                    ///< kUnknownRequest replies
  std::uint64_t protocolErrors = 0; ///< kBadFrame closes
  std::uint64_t cancelled = 0;      ///< kCancelled replies + orphaned jobs
  std::uint64_t synthFailed = 0;
  /// Requests answered from the idempotent-replay table (these also
  /// count as completed; they never touch the queue or an executor).
  std::uint64_t idempotentReplays = 0;
  std::uint64_t connectionsNow = 0;
  std::uint64_t queuedNow = 0;
  std::uint64_t runningNow = 0;
};

class Server {
 public:
  explicit Server(ServerOptions options = {});
  ~Server();  ///< force-stops (cancelling in-flight work) if still running
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spins up the loop + executor threads.
  /// Returns false with a message when the address cannot be bound.
  bool start(std::string* error = nullptr);

  /// Graceful drain: no new connections or requests, every in-flight
  /// job completes (immediately when `cancelInFlight`, via the search's
  /// cancellation cadence), replies flush, threads join.  Idempotent.
  void stop(bool cancelInFlight = false);

  /// Flips the cancel flag on every in-flight job (they finish with
  /// kCancelled at the search's next periodic check).  Safe during a
  /// drain -- eblocksd's second-signal escalation.
  void cancelAll();

  bool running() const { return running_.load(); }
  int port() const { return loop_.port(); }
  ServerStats stats() const;

  /// The shared solution store (null unless cacheEnabled).  Exposed so
  /// the shell's `serve` command and tests can inspect or pre-warm it.
  std::shared_ptr<cache::SolutionStore> cache() const { return store_; }

 private:
  void onFrame(std::uint64_t conn, std::string frame);
  void onProtocolError(std::uint64_t conn, const std::string& reason);
  void onClosed(std::uint64_t conn);
  void onTick();
  void handleRequest(std::uint64_t conn, std::string_view frame);
  void handleCancel(std::uint64_t conn, std::string_view frame);
  void sendError(std::uint64_t conn, std::uint64_t id, ErrorCode code,
                 std::string message, std::uint64_t retryAfterMs = 0);
  void finishJob(const std::shared_ptr<Job>& job, std::string reply,
                 bool asCancelled, bool asFailure,
                 std::shared_ptr<SynthResponse> response);
  void maybeFinishDrain();
  void executorMain();
  /// Loop-thread only: completed-response table bookkeeping.
  void rememberResponse(const cache::Hash128& key,
                        const SynthResponse& response);
  const SynthResponse* findRemembered(const cache::Hash128& key);

  ServerOptions options_;
  EventLoop loop_;
  std::unique_ptr<JobQueue> queue_;
  std::shared_ptr<cache::SolutionStore> store_;
  std::thread loopThread_;
  std::vector<std::thread> executors_;
  std::atomic<bool> running_{false};

  // --- event-loop-thread state ------------------------------------------
  bool draining_ = false;
  std::uint64_t nextJobKey_ = 1;
  std::map<std::uint64_t, std::shared_ptr<Job>> jobs_;  ///< by job key
  /// (connection, request id) -> job key, for cancel + duplicate checks.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> byConnReq_;
  /// Idempotent-replay table (loop-thread only): content key -> the
  /// completed response, LRU-bounded by options_.idempotencyBytes.
  /// `recency_` holds the entries most recently used first and
  /// `remembered_` indexes them by key, so a replay splices its entry to
  /// the front and eviction pops the back -- never a scan of the table.
  struct RememberedResponse {
    cache::Hash128 key;
    SynthResponse response;
    std::uint64_t bytes = 0;  ///< charged: kRememberedNodeBytes + strings
  };
  std::list<RememberedResponse> recency_;
  std::map<cache::Hash128, std::list<RememberedResponse>::iterator>
      remembered_;
  /// What the table holds for one reply beside its strings' bytes: its
  /// map node (three links and a color word before the key and a list
  /// iterator) and its list node (two links before the entry).
  static constexpr std::uint64_t kRememberedNodeBytes =
      4 * sizeof(void*) + sizeof(decltype(remembered_)::value_type) +
      2 * sizeof(void*) + sizeof(RememberedResponse);
  std::uint64_t rememberedBytes_ = 0;

  mutable std::mutex statsMu_;
  ServerStats stats_;
};

}  // namespace eblocks::server

#endif  // EBLOCKS_SERVER_SERVER_H_
