// The bounded job queue between eblocksd's event loop and its synthesis
// executors -- the backpressure point of the whole daemon.
//
// Admission is non-blocking by design: the event loop calls tryPush()
// and, when the queue is at capacity, immediately answers the client
// with kOverloaded + retryAfterMs instead of buffering unbounded work.
// That is the explicit backpressure contract (docs/server.md): once a
// request is *accepted* it is never dropped -- executors pop in FIFO
// order and every accepted job ends in exactly one response or error --
// but a full queue sheds load at the door, visibly, with a retry hint.
//
// Executors block in pop() (condition variable); close() wakes them all
// and makes pop() return nullptr once the queue is empty, which is the
// drain path: the server stops admitting, waits for in-flight jobs,
// then closes the queue so executor threads exit.
#ifndef EBLOCKS_SERVER_JOB_QUEUE_H_
#define EBLOCKS_SERVER_JOB_QUEUE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>

#include "cache/canonical_hash.h"
#include "core/network.h"
#include "server/protocol.h"

namespace eblocks::server {

/// One accepted synthesis job, shared between the event loop (which owns
/// the request lifecycle) and the executor running it.  The atomics are
/// the only cross-thread state: `cancel` is the flag the search polls at
/// its timeout cadence (partition::EngineOptions::cancel), and
/// `progressNodes` is the counter the loop's tick reads for streamed
/// progress -- the job itself never needs a lock.
struct Job {
  std::uint64_t key = 0;   ///< server-global job key (never reused)
  std::uint64_t conn = 0;  ///< owning connection id
  SynthRequest request;
  Network network;  ///< decoded at admission, so executors never parse

  std::atomic<bool> cancel{false};
  std::atomic<std::uint64_t> progressNodes{0};
  /// Progress::State as an atomic byte (0 queued, 1 running).
  std::atomic<std::uint8_t> phase{0};
  /// Exactly-one-reply guard.  Whoever exchanges false -> true owns the
  /// reply: the loop replies kCancelled to a still-queued cancel at once
  /// (the executor later pops the job, sees `finished`, and skips it);
  /// otherwise the executor's completion wins.
  std::atomic<bool> finished{false};
  /// Owning connection closed before completion; loop thread only.  The
  /// result is discarded instead of sent (but a completed response still
  /// enters the idempotent-replay table so a retry can collect it).
  bool orphaned = false;
  /// Content key for the idempotent-replay table, computed at admission
  /// (none when the table is disabled); loop thread + executor read-only.
  std::optional<cache::Hash128> idemKey;
  std::chrono::steady_clock::time_point acceptedAt{};
};

class JobQueue {
 public:
  explicit JobQueue(std::size_t capacity) : capacity_(capacity) {}

  /// Admits a job unless the queue is full or closed.  Never blocks:
  /// `false` is the backpressure signal.
  bool tryPush(std::shared_ptr<Job> job);

  /// Blocks for the next job.  Returns nullptr once the queue is closed
  /// and drained -- the executor's exit condition.
  std::shared_ptr<Job> pop();

  /// Wakes all poppers; subsequent tryPush() fails, and pop() returns
  /// nullptr after the backlog empties.
  void close();

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Job>> jobs_;
  bool closed_ = false;
};

}  // namespace eblocks::server

#endif  // EBLOCKS_SERVER_JOB_QUEUE_H_
