// eblocksd -- the eblocks synthesis daemon (docs/server.md).
//
// A thin operational wrapper around server::Server: parse flags, start,
// then wait for signals through a self-pipe (the only async-signal-safe
// thing the handler does is write one byte).  The first SIGINT/SIGTERM
// begins a graceful drain -- stop accepting, finish in-flight jobs,
// flush replies; a second signal escalates by cancelling the in-flight
// searches at their next periodic check.  The --help text is the
// drift-checked usage block in docs/server.md (doc-drift:server).
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "core/failpoint.h"
#include "server/server.h"

namespace {

int gSignalPipe[2] = {-1, -1};

extern "C" void handleSignal(int) {
  const char byte = 's';
  [[maybe_unused]] const ssize_t n = ::write(gSignalPipe[1], &byte, 1);
}

constexpr const char* kUsage =
    R"(eblocksd - the eblocks synthesis daemon

Serves synthesize() over the binary wire protocol: clients send network
frames plus options, the daemon answers with the synthesized network and
partitioning record, streaming progress ticks in between.  See
docs/server.md for the protocol and the backpressure contract.

Usage: eblocksd [options]

Options:
  --addr HOST:PORT  listen address (default 127.0.0.1:4857; port 0 picks
                    a free port, printed on startup)
  --jobs N          synthesis executor threads (default 2)
  --queue N         bounded job-queue capacity; admissions beyond it are
                    rejected with overloaded + retry-after (default 16)
  --cache DIR       attach a persistent solution cache rooted at DIR
  --cache-mem       attach an in-memory solution cache
  --failpoints      list the registered fault-injection sites and exit
  --help            print this help and exit

Fault injection: set EBLOCKS_FAILPOINTS to a schedule (for example
"cache.fsync=error:enospc*once;server.read=partial:1*every-3") to arm
failure sites at startup -- docs/robustness.md has the grammar.

Signals: the first SIGINT/SIGTERM drains gracefully (stop accepting,
finish in-flight jobs, flush replies); a second signal cancels in-flight
searches at their next periodic check.
)";

bool parseAddr(const std::string& addr, std::string* host, int* port) {
  const std::size_t colon = addr.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= addr.size())
    return false;
  *host = addr.substr(0, colon);
  char* end = nullptr;
  const long value = std::strtol(addr.c_str() + colon + 1, &end, 10);
  if (end == nullptr || *end != '\0' || value < 0 || value > 65535)
    return false;
  *port = static_cast<int>(value);
  return true;
}

template <typename Count>
bool parseCount(const char* text, Count* out) {
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  if (end == nullptr || *end != '\0' || value < 1 || value > 4096)
    return false;
  *out = static_cast<Count>(value);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  eblocks::server::ServerOptions options;
  options.port = 4857;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "eblocksd: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      std::fputs(kUsage, stdout);
      return 0;
    } else if (arg == "--failpoints") {
      // The drift-checked failpoint catalog (doc-drift:robustness).
      for (const auto& entry : eblocks::core::failpoint::catalog())
        std::printf("%-20.*s %.*s\n", static_cast<int>(entry.name.size()),
                    entry.name.data(),
                    static_cast<int>(entry.description.size()),
                    entry.description.data());
      return 0;
    } else if (arg == "--addr") {
      if (!parseAddr(value(), &options.host, &options.port)) {
        std::fprintf(stderr, "eblocksd: bad --addr (want HOST:PORT)\n");
        return 2;
      }
    } else if (arg == "--jobs") {
      if (!parseCount(value(), &options.executors)) {
        std::fprintf(stderr, "eblocksd: bad --jobs (want 1..4096)\n");
        return 2;
      }
    } else if (arg == "--queue") {
      if (!parseCount(value(), &options.queueCapacity)) {
        std::fprintf(stderr, "eblocksd: bad --queue (want 1..4096)\n");
        return 2;
      }
    } else if (arg == "--cache") {
      options.cacheDir = value();
      options.cacheEnabled = true;
    } else if (arg == "--cache-mem") {
      options.cacheEnabled = true;
    } else {
      std::fprintf(stderr, "eblocksd: unknown option '%s' (--help lists them)\n",
                   arg.c_str());
      return 2;
    }
  }

  std::string fpError;
  if (!eblocks::core::failpoint::installFromEnv(&fpError)) {
    std::fprintf(stderr, "eblocksd: bad EBLOCKS_FAILPOINTS: %s\n",
                 fpError.c_str());
    return 2;
  }

  if (::pipe(gSignalPipe) != 0) {
    std::perror("eblocksd: pipe");
    return 1;
  }
  struct sigaction sa {};
  sa.sa_handler = handleSignal;
  ::sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);

  eblocks::server::Server server(options);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "eblocksd: %s\n", error.c_str());
    return 1;
  }
  std::printf("eblocksd listening on %s:%d (jobs=%d queue=%zu cache=%s)\n",
              options.host.c_str(), server.port(), options.executors,
              options.queueCapacity,
              options.cacheEnabled
                  ? (options.cacheDir.empty() ? "mem" : options.cacheDir.c_str())
                  : "off");
  std::fflush(stdout);

  // Wait on the self-pipe: 's' bytes come from the signal handler, the
  // single 'd' byte from the drain thread when stop() returns.
  int signals = 0;
  std::thread stopper;
  for (;;) {
    char byte = 0;
    const ssize_t n = ::read(gSignalPipe[0], &byte, 1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0 || byte == 'd') break;
    ++signals;
    if (signals == 1) {
      std::fprintf(stderr,
                   "eblocksd: draining (signal again to cancel in-flight "
                   "jobs)\n");
      stopper = std::thread([&server] {
        server.stop(/*cancelInFlight=*/false);
        const char done = 'd';
        [[maybe_unused]] const ssize_t w = ::write(gSignalPipe[1], &done, 1);
      });
    } else {
      std::fprintf(stderr, "eblocksd: cancelling in-flight jobs\n");
      server.cancelAll();
    }
  }
  if (stopper.joinable()) stopper.join();

  const eblocks::server::ServerStats stats = server.stats();
  std::printf("eblocksd: served %llu requests (%llu rejected overloaded, "
              "%llu cancelled, %llu failed)\n",
              static_cast<unsigned long long>(stats.completed),
              static_cast<unsigned long long>(stats.rejectedOverload),
              static_cast<unsigned long long>(stats.cancelled),
              static_cast<unsigned long long>(stats.synthFailed));
  return 0;
}
