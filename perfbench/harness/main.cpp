// perfbench: the repository benchmark's harness.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-dir DIR] [--commit SHA] [--corrupt 1]
//   perfbench --print-exact-pool
//
// Prints a fingerprint line, a human-readable summary line, and as the
// last line of standard output one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones.  Exits 0 only when every output checked correct.
// perfbench/run.py builds this binary and is the benchmark's entry point.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "harness/workloads.h"

namespace {

#if defined(NDEBUG) && defined(__OPTIMIZE__)
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-dir DIR] [--commit SHA] "
               "[--corrupt 1]\n       perfbench --print-exact-pool\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  std::string traceDir, commit = "unknown";
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--print-exact-pool") return perfbench::printExactPool();
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      cfg.workload = value;
      haveWorkload = true;
    } else if (arg == "--seed") {
      cfg.seed = static_cast<std::uint32_t>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      cfg.trace = value == "1";
    } else if (arg == "--corrupt") {
      cfg.corrupt = value == "1";
    } else if (arg == "--trace-dir") {
      traceDir = value;
    } else if (arg == "--commit") {
      commit = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!haveWorkload) return usage("--workload is required");
  if (!(cfg.seconds > 0)) return usage("--seconds must be positive");
  if (!kOptimizedBuild) {
    std::fprintf(stderr,
                 "perfbench: refusing to report timings from a build without "
                 "optimisation and NDEBUG (build type '%s')\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }

  cfg.fingerprint = "{\"nproc\": " +
                    std::to_string(std::thread::hardware_concurrency()) +
                    ", \"compiler\": " + jsonString(compiler()) +
                    ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE) +
                    ", \"commit\": " + jsonString(commit) +
                    ", \"workload\": " + jsonString(cfg.workload) +
                    ", \"seed\": " + std::to_string(cfg.seed) +
                    ", \"trace\": " + (cfg.trace ? "1" : "0") + "}";
  if (cfg.trace && !traceDir.empty())
    cfg.traceStem = traceDir + "/" + cfg.workload;

  perfbench::Outcome outcome;
  try {
    outcome = perfbench::runWorkload(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", cfg.workload.c_str(), e.what());
    return 2;
  }

  std::string summary = cfg.workload + " seed=" + std::to_string(cfg.seed) + ":";
  std::string metrics;
  for (const perfbench::Metric& m : outcome.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   m.name.c_str());
      return 2;
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    summary += " " + m.name + "=" + value + " " + m.unit;
    metrics += std::string(metrics.empty() ? "" : ", ") + jsonString(m.name) +
               ": {\"value\": " + value + ", \"unit\": " + jsonString(m.unit) +
               "}";
  }
  const double failedRatio =
      outcome.attempted == 0 ? 0.0
                             : static_cast<double>(outcome.failed) /
                                   static_cast<double>(outcome.attempted);
  char failed[64];
  std::snprintf(failed, sizeof(failed), " failed_ratio=%.17g ratio", failedRatio);
  std::printf("fingerprint %s\n", cfg.fingerprint.c_str());
  std::printf("summary %s%s (%s)\n", summary.c_str(), failed,
              outcome.note.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              outcome.correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed), metrics.c_str());
  return outcome.correct ? 0 : 1;
}
