// The benchmark's three workloads, run through the library's public API.
//
//   oneshot-table1  closed loop, one thread: synthesize() with paredown
//                   and C emission over the 15 Table-1 designs.
//   exact-search    closed loop, one thread: serial exhaustive synthesize()
//                   over a fixed pool of 25 largeNetwork designs (14-18
//                   inner blocks) whose optima are recorded here.
//   serve-cached    open loop, evenly spaced at kServeRate req/s, into an
//                   in-process eblocksd (2 executors, in-memory solution
//                   store) over 2 connections: 3 of 4 requests are
//                   relabeled Table-1 designs (cache hits), 1 of 4 fresh
//                   random designs (misses that insert).
//
// Each run first sets up several times (setup_s is the median), then
// measures for the configured seconds, then checks every output outside
// the timed region.  A traced run measures half its time untraced and
// half with spans around every public call (see trace.h).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Offered rate of the open-loop serve-cached workload (requests/s).  A
/// 30 s run sends 12k requests, which keeps the daemon's 32 MiB
/// idempotency table below its cap: once full, every reply pays an LRU
/// scan over the whole table on the event-loop thread (at 1000 req/s the
/// table filled 19 s into a run and p99 went from about 3 ms to 100 ms).
inline constexpr double kServeRate = 400.0;

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct RunConfig {
  std::string workload;
  std::uint32_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test hook: damage one output before the checks, which must
  /// then report the run as failed.
  bool corrupt = false;
  /// Path prefix for the traced run's span files ("" = do not write).
  std::string traceStem;
  /// JSON object stamped on trace files.
  std::string fingerprint;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// One human-readable line: sample counts, generator lag, failures.
  std::string note;
};

/// Runs one workload.  Throws std::invalid_argument for an unknown name.
Outcome runWorkload(const RunConfig& config);

/// Prints the exact-search pool with optima computed by two searches that
/// share no schedule (serial and PareDown-seeded; 4 work-stealing threads
/// and unseeded); used to regenerate the table recorded in workloads.cpp.
int printExactPool();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
