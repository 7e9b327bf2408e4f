// Machine-readable bench output: a bench collects one record per
// workload and writes one JSON file ("eblocks-bench/2" schema,
// documented in docs/benchmarks.md) that scripts/compare_bench.py diffs
// against the committed baseline in bench/baselines/ and CI uploads as
// an artifact.  A record carries named values in two maps:
//
//   exact  values that reproduce bit-for-bit on every run, machine and
//          compiler -- counts, costs and checksums of seeded serial
//          work.  Each is an integer below 2^53, and compare_bench.py
//          requires each to be present and equal.
//   info   everything else: wall times, rates, speedups, and counts
//          from parallel or time-limited runs.  Never compared.
//
// Opt in per run with `--json=PATH` anywhere on the command line;
// BenchJson::extractPath() removes it before positional parsing.
#ifndef EBLOCKS_BENCH_BENCH_JSON_H_
#define EBLOCKS_BENCH_BENCH_JSON_H_

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace eblocks::bench {

/// Named values of one record, in print order.
using Values = std::vector<std::pair<std::string, double>>;

/// Collects records for one bench binary and writes them as JSON.
class BenchJson {
 public:
  /// Pulls `--json=PATH` out of argv (compacting it) so the benches'
  /// positional parsing stays untouched.  Returns "" when absent.
  static std::string extractPath(int& argc, char** argv) {
    std::string path;
    int w = 1;
    for (int r = 1; r < argc; ++r) {
      const std::string arg = argv[r];
      if (arg.rfind("--json=", 0) == 0)
        path = arg.substr(7);
      else
        argv[w++] = argv[r];
    }
    argc = w;
    return path;
  }

  BenchJson(std::string benchName, std::string path)
      : bench_(std::move(benchName)), path_(std::move(path)) {}

  bool enabled() const { return !path_.empty(); }

  /// One record per workload: `values` go to the exact map when `exact`
  /// is true and to the info map otherwise; `info` is always
  /// informational.
  void add(std::string workload, bool exact, Values values,
           Values info = {}) {
    Record r{std::move(workload), {}, std::move(info)};
    if (exact)
      r.exact = std::move(values);
    else
      r.info.insert(r.info.begin(), values.begin(), values.end());
    records_.push_back(std::move(r));
  }

  /// Writes the collected records; true on success (and when disabled).
  /// Fails on an exact value that is not an integer below 2^53.
  bool write() const {
    if (!enabled()) return true;
    for (const Record& r : records_)
      for (const auto& [name, value] : r.exact)
        if (!integral(value)) {
          std::fprintf(stderr, "bench-json: %s '%s' is not an integer\n",
                       r.workload.c_str(), name.c_str());
          return false;
        }
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "bench-json: cannot write '%s'\n", path_.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"schema\": \"eblocks-bench/2\",\n");
    std::fprintf(f, "  \"records\": [");
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      std::fprintf(f, "%s\n    {\"bench\": \"%s\", \"workload\": \"%s\", ",
                   i ? "," : "", bench_.c_str(), r.workload.c_str());
      printMap(f, "exact", r.exact);
      std::fprintf(f, ", ");
      printMap(f, "info", r.info);
      std::fprintf(f, "}");
    }
    std::fprintf(f, "\n  ]\n}\n");
    const bool ok = std::fclose(f) == 0;
    if (ok)
      std::printf("bench-json: wrote %zu records to %s\n", records_.size(),
                  path_.c_str());
    return ok;
  }

 private:
  struct Record {
    std::string workload;  ///< family + parameters; unique within a bench
    Values exact;
    Values info;
  };

  static bool integral(double v) {
    return v == std::trunc(v) && std::fabs(v) < 0x1p53;
  }

  /// `"key": {"name": value, ...}`; integers print in full, the rest
  /// with six significant digits.
  static void printMap(std::FILE* f, const char* key, const Values& values) {
    std::fprintf(f, "\"%s\": {", key);
    for (std::size_t i = 0; i < values.size(); ++i) {
      const auto& [name, value] = values[i];
      std::fprintf(f, integral(value) ? "%s\"%s\": %.0f" : "%s\"%s\": %.6g",
                   i ? ", " : "", name.c_str(), value);
    }
    std::fprintf(f, "}");
  }

  std::string bench_;
  std::string path_;
  std::vector<Record> records_;
};

}  // namespace eblocks::bench

#endif  // EBLOCKS_BENCH_BENCH_JSON_H_
