#include "server/server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <exception>

#include "cache/canonical_hash.h"
#include "io/binary.h"
#include "partition/engine.h"
#include "synth/synthesizer.h"

namespace eblocks::server {

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t mixIn(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

/// Content key for the idempotent-replay table: a hash of the *exact
/// request bytes* modulo the client-chosen id -- the network frame
/// verbatim, plus every option knob (including the ones the PR 8
/// optionsFingerprint deliberately normalizes away as pure
/// accelerators: time limit, threads, pruning, useCache).  Replay
/// identity must mean "the same request", nothing looser: the PR 8
/// structureHash is name-invariant by design (isomorphic designs like
/// the Table-1 Ignition Illuminator / Night Lamp Controller pair
/// collide on it), and an answer for one must never be replayed for
/// the other -- their synthesized networks carry different block
/// names.  A retrying client resends the identical frame bytes, so
/// exact-bytes keying still serves the lost-reply scenario it exists
/// for.
cache::Hash128 idempotencyKey(const SynthRequest& request) {
  std::uint64_t fp = io::fnv1a64(request.algorithm);
  fp = mixIn(fp, static_cast<std::uint64_t>(request.inputs));
  fp = mixIn(fp, static_cast<std::uint64_t>(request.outputs));
  std::uint64_t limitBits = 0;
  static_assert(sizeof(limitBits) == sizeof(request.timeLimitSeconds));
  std::memcpy(&limitBits, &request.timeLimitSeconds, sizeof(limitBits));
  fp = mixIn(fp, limitBits);
  fp = mixIn(fp, static_cast<std::uint64_t>(request.threads));
  fp = mixIn(fp, request.prune ? 1u : 0u);
  fp = mixIn(fp, request.useCache ? 3u : 2u);
  return cache::Hash128{io::fnv1a64(request.networkFrame), fp};
}

}  // namespace

Server::Server(ServerOptions options) : options_(std::move(options)) {}

Server::~Server() { stop(/*cancelInFlight=*/true); }

bool Server::start(std::string* error) {
  if (running_.load()) return true;
  if (!loop_.listenOn(options_.host, options_.port, error)) return false;
  queue_ = std::make_unique<JobQueue>(std::max<std::size_t>(
      1, options_.queueCapacity));
  if (options_.store) {
    store_ = options_.store;
  } else if (options_.cacheEnabled || !options_.cacheDir.empty()) {
    cache::StoreOptions store;
    store.directory = options_.cacheDir;
    store_ = std::make_shared<cache::SolutionStore>(store);
  }
  EventLoop::Callbacks cb;
  cb.onFrame = [this](std::uint64_t conn, std::string frame) {
    onFrame(conn, std::move(frame));
  };
  cb.onProtocolError = [this](std::uint64_t conn, const std::string& reason) {
    onProtocolError(conn, reason);
  };
  cb.onAccepted = [this](std::uint64_t) {
    const std::lock_guard<std::mutex> lock(statsMu_);
    ++stats_.connectionsNow;
  };
  cb.onClosed = [this](std::uint64_t conn) { onClosed(conn); };
  cb.onTick = [this] { onTick(); };
  loop_.setCallbacks(std::move(cb));
  loop_.setTickInterval(options_.progressIntervalSeconds);
  running_.store(true);
  loopThread_ = std::thread([this] { loop_.run(); });
  const int executors = std::max(1, options_.executors);
  executors_.reserve(static_cast<std::size_t>(executors));
  for (int i = 0; i < executors; ++i)
    executors_.emplace_back([this] { executorMain(); });
  return true;
}

void Server::stop(bool cancelInFlight) {
  if (!running_.exchange(false)) return;
  loop_.post([this, cancelInFlight] {
    draining_ = true;
    loop_.closeListener();
    if (cancelInFlight)
      for (auto& [key, job] : jobs_)
        job->cancel.store(true, std::memory_order_relaxed);
    maybeFinishDrain();
  });
  loopThread_.join();
  queue_->close();
  for (std::thread& t : executors_) t.join();
  executors_.clear();
}

void Server::cancelAll() {
  loop_.post([this] {
    for (auto& [key, job] : jobs_)
      job->cancel.store(true, std::memory_order_relaxed);
  });
}

ServerStats Server::stats() const {
  ServerStats out;
  {
    const std::lock_guard<std::mutex> lock(statsMu_);
    out = stats_;
  }
  if (queue_) out.queuedNow = queue_->size();
  return out;
}

// --- loop-thread handlers -------------------------------------------------

void Server::sendError(std::uint64_t conn, std::uint64_t id, ErrorCode code,
                       std::string message, std::uint64_t retryAfterMs) {
  ErrorReply reply;
  reply.id = id;
  reply.code = code;
  reply.retryAfterMs = retryAfterMs;
  reply.message = std::move(message);
  loop_.send(conn, encodeError(reply));
}

void Server::onProtocolError(std::uint64_t conn, const std::string& reason) {
  {
    const std::lock_guard<std::mutex> lock(statsMu_);
    ++stats_.protocolErrors;
  }
  sendError(conn, 0, ErrorCode::kBadFrame, reason);
  loop_.closeAfterFlush(conn);
}

void Server::onFrame(std::uint64_t conn, std::string frame) {
  // The loop validated the 16-byte header before assembling the frame,
  // so this peek cannot throw; routing just needs the tag.
  const FrameHeader header = *peekFrameHeader(frame);
  switch (header.tag) {
    case io::SectionTag::kServerRequest:
      handleRequest(conn, frame);
      return;
    case io::SectionTag::kServerCancel:
      handleCancel(conn, frame);
      return;
    default:
      // Server-to-client tags (or disk-format tags) arriving at the
      // server are a protocol violation, not a decodable message.
      onProtocolError(conn, std::string("unexpected frame tag ") +
                                std::to_string(static_cast<int>(header.tag)) +
                                " sent to server");
      return;
  }
}

void Server::handleRequest(std::uint64_t conn, std::string_view frame) {
  SynthRequest request;
  try {
    request = decodeRequest(frame);
  } catch (const io::BinaryError& e) {
    onProtocolError(conn, e.what());
    return;
  }
  const auto badRequest = [&](std::string why) {
    {
      const std::lock_guard<std::mutex> lock(statsMu_);
      ++stats_.badRequests;
    }
    sendError(conn, request.id, ErrorCode::kBadRequest, std::move(why));
  };
  if (draining_) {
    const std::lock_guard<std::mutex> lock(statsMu_);
    ++stats_.rejectedShutdown;
    sendError(conn, request.id, ErrorCode::kShuttingDown,
              "server is draining");
    return;
  }
  if (byConnReq_.count({conn, request.id})) {
    {
      const std::lock_guard<std::mutex> lock(statsMu_);
      ++stats_.badRequests;
    }
    sendError(conn, request.id, ErrorCode::kDuplicateRequest,
              "request id " + std::to_string(request.id) +
                  " is already in flight on this connection");
    return;
  }
  if (!partition::findStrategy(request.algorithm)) {
    badRequest("unknown partitioning algorithm '" + request.algorithm + "'");
    return;
  }
  if (request.inputs < 1 || request.outputs < 1) {
    badRequest("programmable-block port budget must be at least 1x1");
    return;
  }
  if (request.threads < 0 || !std::isfinite(request.timeLimitSeconds) ||
      request.timeLimitSeconds < 0.0) {
    badRequest("threads and time limit must be non-negative, and the time "
               "limit finite");
    return;
  }
  auto job = std::make_shared<Job>();
  try {
    job->network = io::readNetworkBinary(request.networkFrame);
  } catch (const io::BinaryError& e) {
    badRequest(std::string("bad network payload: ") + e.what());
    return;
  }
  if (options_.idempotencyBytes > 0) {
    job->idemKey = idempotencyKey(request);
    if (const SynthResponse* done = findRemembered(*job->idemKey)) {
      // A retry of a request this server already completed (typically
      // because the first reply was lost to a dropped connection):
      // replay the stored response under the incoming id.  Byte-for-byte
      // identical payload to the original -- no recomputation, which
      // also keeps anytime results (`ladder`) stable across retries.
      SynthResponse replay = *done;
      replay.id = request.id;
      {
        const std::lock_guard<std::mutex> lock(statsMu_);
        ++stats_.completed;
        ++stats_.idempotentReplays;
      }
      loop_.send(conn, encodeResponse(replay));
      return;
    }
  }
  job->key = nextJobKey_++;
  job->conn = conn;
  job->request = std::move(request);
  job->acceptedAt = Clock::now();
  if (!queue_->tryPush(job)) {
    const auto retryMs = static_cast<std::uint64_t>(
        std::max(0.0, options_.retryAfterSeconds) * 1000.0);
    {
      const std::lock_guard<std::mutex> lock(statsMu_);
      ++stats_.rejectedOverload;
    }
    sendError(conn, job->request.id, ErrorCode::kOverloaded,
              "job queue is full; retry later", retryMs);
    return;
  }
  jobs_.emplace(job->key, job);
  byConnReq_.emplace(std::make_pair(conn, job->request.id), job->key);
  const std::lock_guard<std::mutex> lock(statsMu_);
  ++stats_.accepted;
}

void Server::handleCancel(std::uint64_t conn, std::string_view frame) {
  CancelRequest cancel;
  try {
    cancel = decodeCancel(frame);
  } catch (const io::BinaryError& e) {
    onProtocolError(conn, e.what());
    return;
  }
  const auto it = byConnReq_.find({conn, cancel.id});
  if (it == byConnReq_.end()) {
    {
      const std::lock_guard<std::mutex> lock(statsMu_);
      ++stats_.badRequests;
    }
    sendError(conn, cancel.id, ErrorCode::kUnknownRequest,
              "no in-flight request with id " + std::to_string(cancel.id));
    return;
  }
  const std::shared_ptr<Job> job = jobs_.at(it->second);
  job->cancel.store(true, std::memory_order_relaxed);
  // A still-queued job can be answered right here; the executor that
  // eventually pops it sees `finished` and skips.  A running job replies
  // through its executor once the search unwinds.
  if (job->phase.load(std::memory_order_relaxed) == 0 &&
      !job->finished.exchange(true)) {
    byConnReq_.erase(it);
    jobs_.erase(job->key);
    {
      const std::lock_guard<std::mutex> lock(statsMu_);
      ++stats_.cancelled;
    }
    sendError(conn, cancel.id, ErrorCode::kCancelled,
              "request cancelled before it started");
    maybeFinishDrain();
  }
}

void Server::onClosed(std::uint64_t conn) {
  {
    const std::lock_guard<std::mutex> lock(statsMu_);
    if (stats_.connectionsNow > 0) --stats_.connectionsNow;
  }
  // Orphan (and cancel) every job the connection still owns: the search
  // stops at its next periodic check and the result is discarded.
  for (auto it = byConnReq_.begin(); it != byConnReq_.end();) {
    if (it->first.first != conn) {
      ++it;
      continue;
    }
    const auto jobIt = jobs_.find(it->second);
    if (jobIt != jobs_.end()) {
      jobIt->second->orphaned = true;
      jobIt->second->cancel.store(true, std::memory_order_relaxed);
    }
    it = byConnReq_.erase(it);
  }
}

void Server::onTick() {
  for (const auto& [key, job] : jobs_) {
    if (job->orphaned) continue;
    Progress tick;
    tick.id = job->request.id;
    const bool queued = job->phase.load(std::memory_order_relaxed) == 0;
    tick.state = queued ? Progress::State::kQueued : Progress::State::kRunning;
    if (queued) {
      std::uint64_t ahead = 0;
      for (const auto& [otherKey, other] : jobs_) {
        if (otherKey >= key) break;
        if (other->phase.load(std::memory_order_relaxed) == 0) ++ahead;
      }
      tick.queuePosition = ahead;
    }
    tick.exploredNodes = job->progressNodes.load(std::memory_order_relaxed);
    tick.elapsedSeconds = secondsSince(job->acceptedAt);
    loop_.send(job->conn, encodeProgress(tick));
  }
}

void Server::finishJob(const std::shared_ptr<Job>& job, std::string reply,
                       bool asCancelled, bool asFailure,
                       std::shared_ptr<SynthResponse> response) {
  byConnReq_.erase({job->conn, job->request.id});
  jobs_.erase(job->key);
  {
    const std::lock_guard<std::mutex> lock(statsMu_);
    if (stats_.runningNow > 0) --stats_.runningNow;
    if (job->orphaned || asCancelled)
      ++stats_.cancelled;
    else if (asFailure)
      ++stats_.synthFailed;
    else
      ++stats_.completed;
  }
  // Remember every completed response -- orphaned ones included: the
  // client whose connection died mid-job is exactly the one that will
  // retry, and the table is what turns that retry into a replay.
  if (response && job->idemKey) rememberResponse(*job->idemKey, *response);
  if (!job->orphaned) loop_.send(job->conn, std::move(reply));
  maybeFinishDrain();
}

const SynthResponse* Server::findRemembered(const cache::Hash128& key) {
  const auto it = remembered_.find(key);
  if (it == remembered_.end()) return nullptr;
  recency_.splice(recency_.begin(), recency_, it->second);
  return &it->second->response;
}

void Server::rememberResponse(const cache::Hash128& key,
                              const SynthResponse& response) {
  const std::uint64_t bytes = kRememberedNodeBytes +
                              response.networkFrame.size() +
                              response.runFrame.size() +
                              response.degradedTier.size();
  if (bytes > options_.idempotencyBytes) return;  // would evict everything
  const auto existing = remembered_.find(key);
  if (existing != remembered_.end()) {
    rememberedBytes_ -= existing->second->bytes;
    recency_.erase(existing->second);
    remembered_.erase(existing);
  }
  while (!recency_.empty() &&
         rememberedBytes_ + bytes > options_.idempotencyBytes) {
    rememberedBytes_ -= recency_.back().bytes;
    remembered_.erase(recency_.back().key);
    recency_.pop_back();
  }
  recency_.push_front(RememberedResponse{key, response, bytes});
  remembered_.emplace(key, recency_.begin());
  rememberedBytes_ += bytes;
}

void Server::maybeFinishDrain() {
  if (draining_ && jobs_.empty()) loop_.requestStop();
}

// --- executor threads -----------------------------------------------------

void Server::executorMain() {
  while (std::shared_ptr<Job> job = queue_->pop()) {
    if (job->finished.load(std::memory_order_relaxed)) continue;  // ghost
    job->phase.store(1, std::memory_order_relaxed);
    {
      const std::lock_guard<std::mutex> lock(statsMu_);
      ++stats_.runningNow;
    }
    std::string reply;
    std::shared_ptr<SynthResponse> completed;
    bool asCancelled = false;
    bool asFailure = false;
    if (job->cancel.load(std::memory_order_relaxed)) {
      asCancelled = true;
    } else {
      try {
        synth::SynthOptions so;
        so.algorithm = job->request.algorithm;
        so.spec.inputs = job->request.inputs;
        so.spec.outputs = job->request.outputs;
        so.engine.threads = job->request.threads;
        so.engine.timeLimitSeconds = job->request.timeLimitSeconds;
        so.engine.pruningBound = job->request.prune;
        so.engine.cancel = &job->cancel;
        so.engine.progressNodes = &job->progressNodes;
        // C sources are regenerable client-side and bulky on the wire;
        // the response carries the network + run frames instead.
        so.emitC = false;
        if (job->request.useCache) so.cache = store_;
        const synth::SynthResult result =
            synth::synthesize(job->network, so);
        if (job->cancel.load(std::memory_order_relaxed)) {
          asCancelled = true;  // best-so-far result discarded by contract
        } else {
          SynthResponse response;
          response.id = job->request.id;
          response.cacheOutcome =
              static_cast<std::uint8_t>(result.cacheOutcome);
          response.originalInner = result.originalInner;
          response.innerAfter = result.innerAfter;
          response.programmableBlocks = result.programmableBlocks;
          response.seconds = result.run.seconds;
          response.degradedTier = result.run.degradedTier;
          response.networkFrame = io::writeNetworkBinary(result.network);
          response.runFrame = io::writePartitionRunBinary(result.run);
          reply = encodeResponse(response);
          completed = std::make_shared<SynthResponse>(std::move(response));
        }
      } catch (const std::exception& e) {
        if (job->cancel.load(std::memory_order_relaxed)) {
          asCancelled = true;
        } else {
          asFailure = true;
          ErrorReply error;
          error.id = job->request.id;
          error.code = ErrorCode::kSynthFailed;
          error.message = e.what();
          reply = encodeError(error);
        }
      }
    }
    if (asCancelled) {
      ErrorReply error;
      error.id = job->request.id;
      error.code = ErrorCode::kCancelled;
      error.message = "request cancelled";
      reply = encodeError(error);
    }
    if (job->finished.exchange(true)) {
      // The loop won the race and already replied (queued-cancel path);
      // drop the result but keep the running gauge honest.
      const std::lock_guard<std::mutex> lock(statsMu_);
      if (stats_.runningNow > 0) --stats_.runningNow;
      continue;
    }
    loop_.post([this, job, reply = std::move(reply), asCancelled, asFailure,
                completed = std::move(completed)]() mutable {
      finishJob(job, std::move(reply), asCancelled, asFailure,
                std::move(completed));
    });
  }
}

}  // namespace eblocks::server
