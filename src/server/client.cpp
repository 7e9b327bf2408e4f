#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>
#include <variant>

#include "core/failpoint.h"

namespace eblocks::server {

namespace {

namespace fp = core::failpoint;

using Clock = std::chrono::steady_clock;

void setError(std::string* error, const std::string& what) {
  if (error) *error = what;
}

}  // namespace

Client::~Client() { close(); }

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  inbox_.clear();
}

bool Client::connectTo(const std::string& host, int port, std::string* error) {
  close();
  host_ = host;
  port_ = port;
  if (const fp::Hit hit = fp::check(fp::name::kClientConnect)) {
    fp::sleepFor(hit);
    if (hit.mode == fp::Mode::kError) {
      errno = hit.arg != 0 ? static_cast<int>(hit.arg) : ECONNREFUSED;
      setError(error, "connect " + host + ":" + std::to_string(port) + ": " +
                          std::strerror(errno));
      return false;
    }
  }
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    setError(error, std::string("socket: ") + std::strerror(errno));
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    setError(error, "invalid address '" + host + "'");
    close();
    return false;
  }
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    // A signal can interrupt connect() after the handshake has started;
    // the connection then completes asynchronously.  Poll for
    // writability and read the final verdict from SO_ERROR instead of
    // treating the interruption as failure.
    bool recovered = false;
    if (errno == EINTR) {
      pollfd pfd{fd_, POLLOUT, 0};
      int ready;
      do {
        ready = ::poll(&pfd, 1, -1);
      } while (ready < 0 && errno == EINTR);
      int soerr = 0;
      socklen_t len = sizeof(soerr);
      if (ready > 0 &&
          ::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &soerr, &len) == 0 &&
          soerr == 0)
        recovered = true;
      else if (soerr != 0)
        errno = soerr;
    }
    if (!recovered) {
      setError(error, "connect " + host + ":" + std::to_string(port) + ": " +
                          std::strerror(errno));
      close();
      return false;
    }
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return true;
}

bool Client::sendFrame(std::string_view frame, std::string* error) {
  if (fd_ < 0) {
    setError(error, "not connected");
    return false;
  }
  std::size_t sent = 0;
  bool injected = false;
  while (sent < frame.size()) {
    // One injected fault per frame; a partial clamp exercises the
    // short-send continuation below.
    std::size_t len = frame.size() - sent;
    bool simulatedError = false;
    if (!injected) {
      if (const fp::Hit hit = fp::check(fp::name::kClientSend)) {
        injected = true;
        fp::sleepFor(hit);
        if (hit.mode == fp::Mode::kError) {
          errno = hit.arg != 0 ? static_cast<int>(hit.arg) : EINTR;
          simulatedError = true;
        } else if (hit.mode == fp::Mode::kPartial && hit.arg < len) {
          len = static_cast<std::size_t>(hit.arg);
        }
      }
    }
    const ssize_t n =
        simulatedError ? -1
                       : ::send(fd_, frame.data() + sent, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // The socket buffer is full (possible under SO_SNDTIMEO or a
        // nonblocking fd); wait for writability instead of failing.
        pollfd pfd{fd_, POLLOUT, 0};
        int ready;
        do {
          ready = ::poll(&pfd, 1, -1);
        } while (ready < 0 && errno == EINTR);
        if (ready > 0) continue;
        setError(error, std::string("poll: ") + std::strerror(errno));
        return false;
      }
      setError(error, std::string("send: ") + std::strerror(errno));
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

std::optional<std::string> Client::nextFrame(int timeoutMs,
                                             std::string* error) {
  if (fd_ < 0) {
    setError(error, "not connected");
    return std::nullopt;
  }
  const auto deadline =
      timeoutMs > 0 ? std::optional<Clock::time_point>(
                          Clock::now() + std::chrono::milliseconds(timeoutMs))
                    : std::nullopt;
  bool injected = false;  // at most one injected fault per nextFrame call
  for (;;) {
    // A complete frame already buffered?
    const std::optional<FrameHeader> header = peekFrameHeader(inbox_);
    if (header) {
      const std::size_t total = frameSize(*header);
      if (inbox_.size() >= total) {
        std::string frame = inbox_.substr(0, total);
        inbox_.erase(0, total);
        return frame;
      }
    }
    int waitMs = -1;
    if (deadline) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            *deadline - Clock::now())
                            .count();
      if (left <= 0) {
        setError(error, "timeout");
        return std::nullopt;
      }
      waitMs = static_cast<int>(left);
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, waitMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      setError(error, std::string("poll: ") + std::strerror(errno));
      return std::nullopt;
    }
    if (ready == 0) {
      setError(error, "timeout");
      return std::nullopt;
    }
    char buf[65536];
    std::size_t want = sizeof(buf);
    bool simulatedError = false;
    if (!injected) {
      if (const fp::Hit hit = fp::check(fp::name::kClientRecv)) {
        injected = true;
        // delay = a stalled peer (data arrives, late); partial = a
        // dribbling peer; error = a signal or reset mid-read.
        fp::sleepFor(hit);
        if (hit.mode == fp::Mode::kError) {
          errno = hit.arg != 0 ? static_cast<int>(hit.arg) : EINTR;
          simulatedError = true;
        } else if (hit.mode == fp::Mode::kPartial && hit.arg < want) {
          want = static_cast<std::size_t>(hit.arg);
        }
      }
    }
    const ssize_t n = simulatedError ? -1 : ::recv(fd_, buf, want, 0);
    if (n == 0) {
      setError(error, "connection closed by server");
      close();
      return std::nullopt;
    }
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      setError(error, std::string("recv: ") + std::strerror(errno));
      close();
      return std::nullopt;
    }
    inbox_.append(buf, static_cast<std::size_t>(n));
  }
}

std::optional<ServerMessage> Client::nextMessage(int timeoutMs,
                                                 std::string* error) {
  const std::optional<std::string> frame = nextFrame(timeoutMs, error);
  if (!frame) return std::nullopt;
  const FrameHeader header = *peekFrameHeader(*frame);
  switch (header.tag) {
    case io::SectionTag::kServerResponse:
      return decodeResponse(*frame);
    case io::SectionTag::kServerProgress:
      return decodeProgress(*frame);
    case io::SectionTag::kServerError:
      return decodeError(*frame);
    default:
      throw ProtocolError("protocol: unexpected frame tag " +
                          std::to_string(static_cast<int>(header.tag)) +
                          " from server");
  }
}

CallResult Client::call(const SynthRequest& request, int timeoutMs) {
  CallResult result;
  if (!sendFrame(encodeRequest(request))) return result;
  const auto deadline =
      timeoutMs > 0 ? std::optional<Clock::time_point>(
                          Clock::now() + std::chrono::milliseconds(timeoutMs))
                    : std::nullopt;
  for (;;) {
    int waitMs = 0;
    if (deadline) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            *deadline - Clock::now())
                            .count();
      if (left <= 0) return result;
      waitMs = static_cast<int>(left);
    }
    std::optional<ServerMessage> msg = nextMessage(waitMs);
    if (!msg) return result;  // timeout or connection loss
    if (auto* response = std::get_if<SynthResponse>(&*msg)) {
      if (response->id != request.id) continue;
      result.response = std::move(*response);
      return result;
    }
    if (const auto* tick = std::get_if<Progress>(&*msg)) {
      if (tick->id == request.id) result.progress.push_back(*tick);
      continue;
    }
    ErrorReply& error = std::get<ErrorReply>(*msg);
    // id 0 errors (unattributable, e.g. bad frame) end the call too: the
    // server is about to close the connection.
    if (error.id != request.id && error.id != 0) continue;
    result.error = std::move(error);
    return result;
  }
}

bool retryable(const CallResult& result) {
  if (result.response) return false;
  if (!result.error) return true;  // timeout / connection loss / no reply
  switch (result.error->code) {
    case ErrorCode::kOverloaded:
    case ErrorCode::kShuttingDown:
      return true;
    default:
      return false;  // deterministic rejections would only repeat
  }
}

CallResult Client::callWithRetry(const SynthRequest& request,
                                 const RetryPolicy& policy) {
  // Deterministic jitter: xorshift32 seeded from the policy, so a test
  // (or a chaos schedule) replays the exact sleep sequence.
  std::uint32_t rng = policy.rngSeed == 0 ? 1u : policy.rngSeed;
  const auto nextJitter = [&rng, &policy]() {
    rng ^= rng << 13;
    rng ^= rng >> 17;
    rng ^= rng << 5;
    const double unit = static_cast<double>(rng % 10000) / 10000.0;  // [0,1)
    return 1.0 + policy.jitterFraction * (2.0 * unit - 1.0);
  };

  CallResult result;
  double backoffMs = policy.initialBackoffMs;
  const int attempts = std::max(policy.maxAttempts, 1);
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    if (!connected() && port_ >= 0) {
      std::string connectError;
      if (!connectTo(host_, port_, &connectError)) {
        result = CallResult{};  // connection-level failure: no reply at all
        if (attempt == attempts) return result;
        const double sleepMs = std::max(backoffMs, 0.0) * nextJitter();
        if (policy.onRetry)
          policy.onRetry(attempt, sleepMs, "connect: " + connectError);
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            std::max(sleepMs, 0.0)));
        backoffMs = std::min(backoffMs * policy.multiplier,
                             policy.maxBackoffMs);
        continue;
      }
    }
    result = call(request, policy.attemptTimeoutMs);
    if (!retryable(result) || attempt == attempts) return result;

    std::string reason;
    if (result.error) {
      reason = toString(result.error->code);
    } else {
      reason = connected() ? "timeout" : "connection lost";
      // The request may still be in flight server-side; resubmitting it
      // on this connection would collide with its id (kDuplicateRequest)
      // and a stale late reply could be mistaken for the fresh one.
      // Drop the connection -- the server orphans the old attempt and
      // the idempotency table keeps a completed one from recomputing.
      close();
    }
    // Back off: exponential base, floored by the server's explicit
    // retry-after hint, then jittered so a fleet of retrying clients
    // does not stampede in lockstep.
    double sleepMs = backoffMs;
    if (result.error && result.error->retryAfterMs > 0)
      sleepMs = std::max(
          sleepMs, static_cast<double>(result.error->retryAfterMs));
    sleepMs *= nextJitter();
    if (policy.onRetry) policy.onRetry(attempt, sleepMs, reason);
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(std::max(sleepMs, 0.0)));
    backoffMs = std::min(backoffMs * policy.multiplier, policy.maxBackoffMs);
  }
  return result;
}

bool Client::cancelRequest(std::uint64_t id) {
  CancelRequest cancel;
  cancel.id = id;
  return sendFrame(encodeCancel(cancel));
}

}  // namespace eblocks::server
