// A small blocking client for the eblocksd wire protocol -- the
// reference implementation of the client side of docs/server.md, used
// by the tests, by bench_load, and as the starting point for real
// integrations.  One Client is one connection; it is not thread-safe
// (use one per thread, the way bench_load's load generators do).
//
// Three levels:
//   - frame level: sendFrame() / nextFrame() move whole validated-length
//     frames, with the same 16-byte-header reassembly the server uses;
//   - call level: call() submits a request and blocks until its
//     response or error arrives, collecting any progress ticks that
//     stream in between;
//   - retry level: callWithRetry() wraps call() in bounded retries with
//     exponential backoff + deterministic jitter, honoring the server's
//     kOverloaded retryAfterMs hint and transparently reconnecting after
//     timeouts or connection loss.  Safe to retry because the server
//     deduplicates completed work through its idempotency table (keyed
//     on the canonical request content, not the connection), so a
//     resubmitted request whose first answer was lost in transit is
//     replayed byte-identically instead of recomputed.  See
//     docs/robustness.md for the exact retryability table.
#ifndef EBLOCKS_SERVER_CLIENT_H_
#define EBLOCKS_SERVER_CLIENT_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "server/protocol.h"

namespace eblocks::server {

/// One decoded server-to-client frame: a response, a progress tick, or
/// an error reply.
using ServerMessage = std::variant<SynthResponse, Progress, ErrorReply>;

/// The outcome of one request: exactly one of `response` / `error` is
/// set (per the protocol's one-reply contract), plus any progress ticks
/// observed while waiting.  Neither set = timeout or connection loss.
struct CallResult {
  std::optional<SynthResponse> response;
  std::optional<ErrorReply> error;
  std::vector<Progress> progress;

  bool ok() const { return response.has_value(); }
};

/// Knobs for callWithRetry().  The defaults suit an interactive caller:
/// up to 5 attempts spanning roughly a second of backoff.
struct RetryPolicy {
  /// Total attempts, including the first (>= 1).
  int maxAttempts = 5;
  /// Backoff before attempt k+1 is initialBackoffMs * multiplier^k,
  /// capped at maxBackoffMs -- then raised to the server's retryAfterMs
  /// hint when one was given, and finally jittered.
  double initialBackoffMs = 25.0;
  double maxBackoffMs = 2000.0;
  double multiplier = 2.0;
  /// Uniform jitter: the sleep is scaled by a factor drawn from
  /// [1 - jitterFraction, 1 + jitterFraction].  Deterministic per seed,
  /// so tests replay exactly.
  double jitterFraction = 0.25;
  std::uint32_t rngSeed = 1;
  /// Per-attempt call() timeout in ms; 0 waits forever (then only
  /// errors and connection loss trigger retries).
  int attemptTimeoutMs = 0;
  /// Observer invoked before each backoff sleep (attempt just failed,
  /// 1-based; sleepMs after jitter; reason is human-readable).  For
  /// logging and tests; may be empty.
  std::function<void(int attempt, double sleepMs, const std::string& reason)>
      onRetry;
};

/// Is this outcome worth retrying?  True for kOverloaded and
/// kShuttingDown errors and for no-reply outcomes (timeout, connection
/// loss); false for every reply that would only repeat (bad request,
/// synthesis failure, cancellation, protocol errors).
bool retryable(const CallResult& result);

class Client {
 public:
  Client() = default;
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connectTo(const std::string& host, int port,
                 std::string* error = nullptr);
  void close();
  bool connected() const { return fd_ >= 0; }

  /// Writes a complete frame (blocking until fully sent).
  bool sendFrame(std::string_view frame, std::string* error = nullptr);

  /// Reads the next complete frame.  timeoutMs 0 waits forever.
  /// nullopt on timeout, EOF, or socket error (`error` says which).
  std::optional<std::string> nextFrame(int timeoutMs,
                                       std::string* error = nullptr);

  /// nextFrame + tag dispatch + payload decode into the message's
  /// alternative.  Throws ProtocolError on a frame that decodes to no
  /// known server message.
  std::optional<ServerMessage> nextMessage(int timeoutMs,
                                           std::string* error = nullptr);

  /// Submits `request` and blocks until its reply (response or error)
  /// arrives or timeoutMs lapses.  Progress ticks for the request are
  /// collected; replies to *other* ids on this connection are ignored.
  CallResult call(const SynthRequest& request, int timeoutMs = 0);

  /// call() with bounded retries per `policy`.  Retries only outcomes
  /// retryable() approves; reconnects (to the last connectTo() address)
  /// when the connection was lost or a timeout left a stale in-flight
  /// request behind -- resubmitting on a fresh connection lets the
  /// server orphan the old attempt instead of reporting a duplicate.
  /// Returns the final attempt's result.
  CallResult callWithRetry(const SynthRequest& request,
                           const RetryPolicy& policy = {});

  /// Sends a cancel for an in-flight request id (fire and forget; the
  /// reply arrives through the normal message stream).
  bool cancelRequest(std::uint64_t id);

 private:
  int fd_ = -1;
  std::string inbox_;  ///< bytes received but not yet framed
  std::string host_;   ///< last connectTo() target, for reconnects
  int port_ = -1;
};

}  // namespace eblocks::server

#endif  // EBLOCKS_SERVER_CLIENT_H_
