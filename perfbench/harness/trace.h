// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded from the harness's own code around its calls into
// the library's public functions (nothing inside src/ is instrumented).
// Each span has a name, start and end on the steady clock, the index of
// the span that caused it (-1 for a request root) and the request id its
// root belongs to.  Counts (search nodes, frame bytes, cache hits) are
// recorded at the same boundaries.  Everything stays in memory until
// write(), which runs after the timed phases.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  ///< a string literal: the layer boundary
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  std::int32_t parent = -1;
  std::uint64_t request = 0;
};

struct Count {
  const char* name = "";
  std::uint64_t request = 0;
  double value = 0.0;
};

class Tracer {
 public:
  /// Opens a span now; returns its index for end() and for children.
  int begin(const char* name, std::uint64_t request, int parent = -1);
  void end(int span);
  /// Records a span whose bounds were taken elsewhere.
  int add(const char* name, std::int64_t startNs, std::int64_t endNs,
          std::uint64_t request, int parent = -1);
  void count(const char* name, std::uint64_t request, double value);

  /// Sum of durations (us) of every span with this name.
  double totalUs(const std::string& name) const;
  /// Sum of a count over all requests.
  double totalCount(const std::string& name) const;
  /// Writes every span and count as tab-separated lines, plus a summary
  /// file of per-name totals and self times.  `header` is a JSON object
  /// (the machine fingerprint) stamped on both files.
  bool write(const std::string& stem, const std::string& header) const;

 private:
  /// Per-name self time (us): duration minus the time child spans cover.
  std::map<std::string, double> selfUs() const;

  std::vector<Span> spans_;
  std::vector<Count> counts_;
};

/// Opens a span for the enclosing scope.
class Scoped {
 public:
  Scoped(Tracer& tracer, const char* name, std::uint64_t request,
         int parent = -1)
      : tracer_(tracer), index_(tracer.begin(name, request, parent)) {}
  ~Scoped() { tracer_.end(index_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
