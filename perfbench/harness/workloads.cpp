#include "harness/workloads.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <stdexcept>

#include "behavior/printer.h"
#include "cache/canonical_hash.h"
#include "cache/solution_store.h"
#include "codegen/c_emitter.h"
#include "codegen/merge_program.h"
#include "designs/library.h"
#include "harness/trace.h"
#include "io/binary.h"
#include "partition/engine.h"
#include "partition/verify.h"
#include "randgen/generator.h"
#include "server/protocol.h"
#include "server/server.h"
#include "sim/batch_equivalence.h"
#include "sim/stimulus.h"
#include "synth/synthesizer.h"

namespace perfbench {
namespace {

using namespace eblocks;

/// Set-ups per run; setup_s reports their median.
constexpr int kSetupRepeats = 5;
/// serve-cached keeps every kKeepEvery-th served frame for the byte
/// comparison against one-shot synthesize().
constexpr std::size_t kKeepEvery = 8;
/// Latency charged to a serve-cached request that failed: the drain wait.
constexpr double kMissedUs = 30e6;

// --- the exact-search pool ------------------------------------------------

/// randgen largeNetwork(inner, seed) designs and their optimal inner-block
/// count after synthesis.  Regenerate with `perfbench --print-exact-pool`,
/// which derives each optimum from two differently scheduled searches.
struct PoolEntry {
  int inner;
  std::uint32_t seed;
  int optimum;
};
constexpr PoolEntry kExactPool[] = {
    {14, 1, 11}, {14, 2, 11}, {14, 3, 10}, {14, 4, 10}, {14, 5, 13},
    {15, 1, 12}, {15, 2, 11}, {15, 3, 12}, {15, 4, 11}, {15, 5, 14},
    {16, 1, 13}, {16, 2, 11}, {16, 3, 11}, {16, 4, 11}, {16, 5, 15},
    {17, 1, 14}, {17, 2, 13}, {17, 3, 12}, {17, 4, 12}, {17, 5, 16},
    {18, 1, 15}, {18, 2, 13}, {18, 3, 12}, {18, 4, 15}, {18, 5, 17},
};

Network poolDesign(const PoolEntry& e) {
  return randgen::randomNetwork(
      randgen::GeneratorOptions::largeNetwork(e.inner, e.seed));
}

// --- statistics and process facts -----------------------------------------

/// Linear-interpolated quantile (numpy's default), 0 for no samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Peak resident set of this program image.  VmHWM rather than getrusage:
/// ru_maxrss survives exec, so it would report a larger parent's peak.
double peakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Runs `make` kSetupRepeats times, each from scratch, and keeps the last
/// result.  Returns it with the median set-up time in seconds.
template <class Make>
auto repeatedSetup(Make make) {
  using T = decltype(make());
  std::optional<T> kept;
  std::vector<double> seconds;
  for (int i = 0; i < kSetupRepeats; ++i) {
    kept.reset();
    const std::int64_t t0 = nowNs();
    kept.emplace(make());
    seconds.push_back(static_cast<double>(nowNs() - t0) / 1e9);
  }
  return std::pair<T, double>(std::move(*kept), quantile(seconds, 0.5));
}

/// `rssMiB` is read at the end of the timed region, before the checks and
/// the statistics allocate.
std::vector<Metric> endToEnd(double throughputRps,
                             const std::vector<double>& latencyUs,
                             double innerAfterRatio, std::uint64_t attempted,
                             std::uint64_t failed, double setupS,
                             double rssMiB) {
  const double ok = attempted == 0
                        ? 0.0
                        : 1.0 - static_cast<double>(failed) /
                                    static_cast<double>(attempted);
  return {{"throughput_rps", "req/s", throughputRps},
          {"latency_p50_us", "us", quantile(latencyUs, 0.50)},
          {"latency_p90_us", "us", quantile(latencyUs, 0.90)},
          {"inner_after_ratio", "ratio", innerAfterRatio},
          {"ok_ratio", "ratio", ok},
          {"setup_s", "s", setupS},
          {"peak_rss_mb", "MiB", rssMiB}};
}

/// Sample counts for the summary line.  The p99 is printed for reference
/// only: on a shared host it is set by scheduling hiccups that hit about
/// 1% of serve-cached requests, so it is not steady enough to gate on.
std::string sampleNote(const std::vector<double>& latencyUs) {
  const double p90 = quantile(latencyUs, 0.90);
  const auto beyond = std::count_if(latencyUs.begin(), latencyUs.end(),
                                    [&](double v) { return v > p90; });
  char p99[64];
  std::snprintf(p99, sizeof(p99), " p99_us=%.1f", quantile(latencyUs, 0.99));
  std::string note = "samples=" + std::to_string(latencyUs.size()) +
                     " beyond_p90=" + std::to_string(beyond) + p99;
  if (beyond < 10) note += " (WARNING: fewer than 10 samples beyond p90)";
  return note;
}

// --- one traced request ----------------------------------------------------

/// The spans synth.residual_us subtracts from synthesize()'s wall time.
/// cache.hash is left out: it times the structureHash that lookup and
/// insert already run inside, not a separate step of the pipeline.
constexpr const char* kPipelineLayers[] = {
    "core.validate",    "partition.problem", "cache.lookup",
    "cache.near_miss",  "partition.search",  "cache.insert",
    "partition.verify", "codegen.merge",     "behavior.print",
    "codegen.emit_c"};

/// The request again, one public call per layer, each in its own span:
/// the steps synthesize() takes, minus rewiring and type building.
/// `layerStore` mirrors options.cache so the cache calls see the state
/// synthesize() saw.  Returns the inner-block count after synthesis.
int replayLayers(Tracer& tracer, std::uint64_t id, int root,
                 const Network& net, const synth::SynthOptions& options,
                 cache::SolutionStore* layerStore) {
  {
    Scoped s(tracer, "core.validate", id, root);
    if (!net.validate().empty())
      throw std::logic_error("replay: network fails validation");
  }
  std::optional<partition::PartitionProblem> problem;
  {
    Scoped s(tracer, "partition.problem", id, root);
    problem.emplace(net, options.spec);
  }
  std::optional<partition::PartitionRun> run;
  partition::EngineOptions engine = options.engine;
  if (layerStore) {
    {
      Scoped s(tracer, "cache.hash", id, root);
      (void)cache::structureHash(net);
    }
    {
      Scoped s(tracer, "cache.lookup", id, root);
      run = layerStore->lookup(net, options.algorithm, options.spec,
                               options.engine);
    }
    tracer.count("cache.lookups", id, 1);
    tracer.count("cache.hits", id, run ? 1 : 0);
    if (!run) {
      Scoped s(tracer, "cache.near_miss", id, root);
      if (auto incumbent =
              layerStore->nearMiss(net, options.spec, options.engine))
        engine.initialIncumbent = std::move(*incumbent);
    }
  }
  if (!run) {
    {
      Scoped s(tracer, "partition.search", id, root);
      run = partition::runPartitioner(options.algorithm, *problem, engine);
    }
    tracer.count("partition.explored", id, static_cast<double>(run->explored));
    tracer.count("partition.pruned", id, static_cast<double>(run->pruned));
    if (layerStore) {
      Scoped s(tracer, "cache.insert", id, root);
      layerStore->insert(net, options.algorithm, options.spec, options.engine,
                         *run);
    }
  }
  {
    Scoped s(tracer, "partition.verify", id, root);
    if (!partition::verifyPartitioning(*problem, run->result).empty())
      throw std::logic_error("replay: partitioning fails verification");
  }
  for (const BitSet& part : run->result.partitions) {
    std::optional<codegen::MergedProgram> merged;
    {
      Scoped s(tracer, "codegen.merge", id, root);
      merged.emplace(codegen::mergePartitionProgram(
          net, part, problem->levels(), options.spec.mode));
    }
    {
      Scoped s(tracer, "behavior.print", id, root);
      (void)behavior::toSource(merged->program);
    }
    if (options.emitC) {
      Scoped s(tracer, "codegen.emit_c", id, root);
      (void)codegen::emitC(*merged);
    }
  }
  return run->result.totalAfter(problem->innerCount());
}

/// One traced request: synthesize() as a user calls it, plus the layer
/// replay.  The two run in alternating order so neither always profits
/// from the other's warm caches.
synth::SynthResult tracedSynthesize(Tracer& tracer, std::uint64_t id,
                                    const Network& net,
                                    const synth::SynthOptions& options,
                                    cache::SolutionStore* layerStore) {
  const int root = tracer.begin("bench.request", id);
  std::optional<synth::SynthResult> result;
  int replayed = -1;
  const auto whole = [&] {
    Scoped s(tracer, "synth.synthesize", id, root);
    result.emplace(synth::synthesize(net, options));
  };
  if (id % 2 == 0) {
    whole();
    replayed = replayLayers(tracer, id, root, net, options, layerStore);
  } else {
    replayed = replayLayers(tracer, id, root, net, options, layerStore);
    whole();
  }
  tracer.end(root);
  if (replayed != result->innerAfter)
    throw std::logic_error("replayed layers disagree with synthesize()");
  return std::move(*result);
}

/// Per-layer metrics.  Layers a workload never reaches read 0.
struct LayerInputs {
  const Tracer* tracer = nullptr;
  double requests = 0;      ///< traced requests through synthesize()
  double wireRequests = 0;  ///< traced requests over the wire
  double records = 0;       ///< solution-store records at the end
  double overheadPct = 0;
};

std::vector<Metric> layerMetrics(const LayerInputs& in) {
  const Tracer& t = *in.tracer;
  const auto per = [](double total, double n) { return n > 0 ? total / n : 0.0; };
  const auto us = [&](const char* name) { return per(t.totalUs(name), in.requests); };
  const auto wireUs = [&](const char* name) {
    return per(t.totalUs(name), in.wireRequests);
  };
  double layersUs = 0;
  for (const char* name : kPipelineLayers) layersUs += t.totalUs(name);
  const double explored = t.totalCount("partition.explored");
  const double pruned = t.totalCount("partition.pruned");
  const double lookups = t.totalCount("cache.lookups");
  const double clientUs = wireUs("io.encode_network") +
                          wireUs("server.encode_request") +
                          wireUs("server.decode_response") +
                          wireUs("io.decode_frames");
  return {
      {"codegen.merge_us", "us", us("codegen.merge")},
      {"codegen.emit_c_us", "us", us("codegen.emit_c")},
      {"behavior.print_us", "us", us("behavior.print")},
      {"synth.residual_us", "us",
       per(t.totalUs("synth.synthesize") - layersUs, in.requests)},
      {"core.validate_us", "us", us("core.validate")},
      {"partition.problem_us", "us", us("partition.problem")},
      {"partition.verify_us", "us", us("partition.verify")},
      {"partition.search_us", "us", us("partition.search")},
      {"partition.explored", "count", per(explored, in.requests)},
      {"partition.pruned", "count", per(pruned, in.requests)},
      {"partition.pruned_per_explored", "ratio", per(pruned, explored)},
      {"cache.hash_us", "us", us("cache.hash")},
      {"cache.lookup_us", "us", us("cache.lookup")},
      {"cache.hit_ratio", "ratio", per(t.totalCount("cache.hits"), lookups)},
      {"cache.near_miss_us", "us", us("cache.near_miss")},
      {"cache.insert_us", "us", us("cache.insert")},
      {"cache.records", "count", in.records},
      {"io.encode_network_us", "us", wireUs("io.encode_network")},
      {"io.decode_frames_us", "us", wireUs("io.decode_frames")},
      {"io.frame_bytes", "bytes",
       per(t.totalCount("io.frame_bytes"), in.wireRequests)},
      {"server.encode_request_us", "us", wireUs("server.encode_request")},
      {"server.decode_response_us", "us", wireUs("server.decode_response")},
      {"server.round_trip_us", "us", wireUs("server.round_trip")},
      {"server.residual_us", "us",
       in.wireRequests > 0
           ? wireUs("server.round_trip") - clientUs - us("synth.synthesize")
           : 0.0},
      {"bench.tracing_overhead_pct", "pct", in.overheadPct},
  };
}

// --- closed-loop workloads (oneshot-table1, exact-search) -----------------

/// A copy of `net` with every instance renamed `<prefix><name>`.  Block
/// and connection order are unchanged, so every partitioner sees the same
/// problem and explores the same nodes.
Network renamedCopy(const Network& net, const std::string& prefix) {
  Network out(prefix + net.name());
  for (BlockId b = 0; b < net.blockCount(); ++b)
    out.addBlock(prefix + net.block(b).name, net.block(b).type);
  for (const Connection& c : net.connections()) out.connect(c.from, c.to);
  return out;
}

struct ClosedInputs {
  std::vector<Network> designs;
  std::vector<std::size_t> order;  ///< the cycle, a seeded permutation
};

ClosedInputs closedInputs(const std::vector<Network>& base,
                          std::uint32_t seed) {
  ClosedInputs in;
  const std::string prefix = "s" + std::to_string(seed) + "_";
  for (const Network& net : base) in.designs.push_back(renamedCopy(net, prefix));
  in.order.resize(base.size());
  std::iota(in.order.begin(), in.order.end(), std::size_t{0});
  std::mt19937 rng(seed);
  std::shuffle(in.order.begin(), in.order.end(), rng);
  return in;
}

/// One closed-loop request as recorded in the timed region.
struct Sample {
  float latencyUs = 0;
  std::uint16_t design = 0;  ///< index into ClosedInputs::designs
  std::int16_t innerAfter = -1;  ///< -1 when the request threw
};

/// Samples kept per closed-loop run.  The buffer is allocated and touched
/// before timing, so peak memory does not depend on how many requests a
/// run completes; requests beyond it are timed into throughput only.
constexpr std::size_t kMaxSamples = std::size_t{1} << 19;

struct ClosedRun {
  std::vector<Sample> samples;  ///< the first kMaxSamples requests
  std::uint64_t requests = 0;
  /// The latest result per design, checked after the timed region.
  std::vector<std::optional<synth::SynthResult>> last;
  double seconds = 0;
};

/// Pins the process's threads to distinct CPUs and shifts the assignment
/// by one CPU every kRotateNs.  On a shared host the CPUs run at different
/// speeds that change over minutes; a thread left on one CPU measures that
/// CPU, while rotating averages over all of them (exact-search's ten-run
/// spread fell from 0.23-0.50 to 0.03-0.06).  The destructor restores the
/// original CPU set on every thread.
class CpuRotation {
 public:
  CpuRotation() {
    if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
  }
  ~CpuRotation() {
    if (cpus_.empty()) return;
    for (const pid_t tid : threads())
      sched_setaffinity(tid, sizeof(original_), &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void maybeRotate(std::int64_t now) {
    if (cpus_.size() < 2 || now < next_) return;
    next_ = now + kRotateNs;
    const std::vector<pid_t> tids = threads();
    for (std::size_t i = 0; i < tids.size(); ++i) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus_[(i + step_) % cpus_.size()], &one);
      sched_setaffinity(tids[i], sizeof(one), &one);
    }
    ++step_;
  }

 private:
  static std::vector<pid_t> threads() {
    std::vector<pid_t> tids;
    for (const auto& entry :
         std::filesystem::directory_iterator("/proc/self/task"))
      tids.push_back(static_cast<pid_t>(
          std::strtol(entry.path().filename().c_str(), nullptr, 10)));
    std::sort(tids.begin(), tids.end());
    return tids;
  }

  static constexpr std::int64_t kRotateNs = 250'000'000;
  cpu_set_t original_{};
  std::vector<int> cpus_;
  std::size_t step_ = 0;
  std::int64_t next_ = 0;
};

ClosedRun runClosed(const ClosedInputs& in, const synth::SynthOptions& options,
                    double seconds, CpuRotation& rotation, Tracer* tracer,
                    std::uint64_t firstId) {
  ClosedRun run;
  run.last.resize(in.designs.size());
  run.samples.assign(kMaxSamples, Sample{});
  const std::int64_t start = nowNs();
  const auto stop = start + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t t = start;
  for (std::size_t k = 0; t < stop; ++k) {
    rotation.maybeRotate(t);
    const std::size_t d = in.order[k % in.order.size()];
    int after = -1;
    try {
      synth::SynthResult result =
          tracer ? tracedSynthesize(*tracer, firstId + k, in.designs[d],
                                    options, nullptr)
                 : synth::synthesize(in.designs[d], options);
      after = result.innerAfter;
      run.last[d] = std::move(result);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: request %zu failed: %s\n", k, e.what());
    }
    const std::int64_t done = nowNs();
    if (k < kMaxSamples)
      run.samples[k] = Sample{static_cast<float>(done - t) / 1e3f,
                              static_cast<std::uint16_t>(d),
                              static_cast<std::int16_t>(after)};
    ++run.requests;
    t = done;
  }
  run.samples.resize(std::min<std::uint64_t>(run.requests, kMaxSamples));
  run.seconds = static_cast<double>(t - start) / 1e9;
  return run;
}

/// Each design's fastest quarter of its latencies.  On a shared host a
/// closed-loop request's time is its own work plus interference from other
/// tenants, which moves whole runs by 20-30%; every design repeats
/// hundreds of times per run, and its fastest quarter is what that
/// interference spares.  The closed loops' throughput and percentiles are
/// taken over these samples.
std::vector<double> cleanLatencies(const ClosedRun& run, std::size_t designs) {
  std::vector<std::vector<double>> byDesign(designs);
  for (const Sample& s : run.samples) byDesign[s.design].push_back(s.latencyUs);
  std::vector<double> clean;
  for (std::vector<double>& v : byDesign) {
    std::sort(v.begin(), v.end());
    const std::size_t keep = std::max<std::size_t>(1, v.size() / 4);
    clean.insert(clean.end(), v.begin(),
                 v.begin() + static_cast<std::ptrdiff_t>(std::min(keep, v.size())));
  }
  return clean;
}

/// A closed-loop workload's fixed parts.
struct ClosedSpec {
  /// Builds the designs (part of set-up, like all input generation).
  std::vector<Network> (*makeBase)();
  /// Warm-up passes over the designs before the first timed request.
  int warmupPasses = 1;
  synth::SynthOptions options;
  /// Checks the kept results of one design, returns false when wrong.
  bool (*checkDesign)(const ClosedInputs& in, std::size_t d,
                      const synth::SynthResult& kept, std::uint32_t seed);
  /// Expected inner blocks after synthesis per design (computed or
  /// recorded).
  std::vector<int> expectedAfter;
};

/// Counts wrong requests: a request is wrong when it threw, when its
/// inner-block count differs from the expected one, or when its design's
/// kept output fails the design check.
std::uint64_t checkClosed(const ClosedSpec& spec, const ClosedInputs& in,
                          ClosedRun& run, std::uint32_t seed, bool corrupt) {
  if (corrupt && !run.samples.empty()) {
    // One wrong count, and one design's kept network swapped for
    // another's: the count check and the design check must both see it.
    run.samples.front().innerAfter += 1;
    auto& a = run.last[run.samples.front().design];
    for (const auto& b : run.last)
      if (a && b && &b != &a) {
        a->network = b->network;
        break;
      }
  }
  std::vector<bool> designOk(in.designs.size(), true);
  for (std::size_t d = 0; d < in.designs.size(); ++d) {
    if (!run.last[d]) continue;
    try {
      designOk[d] = spec.checkDesign(in, d, *run.last[d], seed);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: check of design %zu threw: %s\n", d,
                   e.what());
      designOk[d] = false;
    }
  }
  std::uint64_t wrong = 0;
  for (const Sample& s : run.samples)
    if (s.innerAfter != spec.expectedAfter[s.design] || !designOk[s.design])
      ++wrong;
  return wrong;
}

Outcome runClosedWorkload(const RunConfig& cfg, const ClosedSpec& spec) {
  CpuRotation rotation;
  auto [in, setupS] = repeatedSetup([&] {
    ClosedInputs inputs = closedInputs(spec.makeBase(), cfg.seed);
    for (int pass = 0; pass < spec.warmupPasses; ++pass)
      for (std::size_t d : inputs.order) {
        rotation.maybeRotate(nowNs());
        (void)synth::synthesize(inputs.designs[d], spec.options);
      }
    return inputs;
  });
  int before = 0, after = 0;
  for (std::size_t d = 0; d < in.designs.size(); ++d) {
    before += static_cast<int>(in.designs[d].innerBlocks().size());
    after += spec.expectedAfter[d];
  }
  const double ratio = static_cast<double>(after) / before;

  Outcome out;
  if (!cfg.trace) {
    ClosedRun run =
        runClosed(in, spec.options, cfg.seconds, rotation, nullptr, 1);
    const double rssMiB = peakRssMiB();
    out.attempted = run.requests;
    out.failed = checkClosed(spec, in, run, cfg.seed, cfg.corrupt);
    const std::vector<double> clean = cleanLatencies(run, in.designs.size());
    double cleanUs = 0;
    for (double us : clean) cleanUs += us;
    out.metrics = endToEnd(static_cast<double>(clean.size()) * 1e6 / cleanUs,
                           clean, ratio, out.attempted, out.failed, setupS,
                           rssMiB);
    std::vector<double> all;
    for (const Sample& s : run.samples) all.push_back(s.latencyUs);
    char completed[64];
    std::snprintf(completed, sizeof(completed), " completed_rps=%.1f",
                  static_cast<double>(run.requests) / run.seconds);
    out.note = "clean " + sampleNote(clean) + "; all " + sampleNote(all) +
               completed;
  } else {
    ClosedRun plain =
        runClosed(in, spec.options, cfg.seconds / 2, rotation, nullptr, 1);
    Tracer tracer;
    ClosedRun traced = runClosed(in, spec.options, cfg.seconds / 2, rotation,
                                 &tracer, plain.requests + 1);
    out.attempted = plain.requests + traced.requests;
    out.failed = checkClosed(spec, in, plain, cfg.seed, cfg.corrupt) +
                 checkClosed(spec, in, traced, cfg.seed, false);
    const double plainRps = static_cast<double>(plain.requests) / plain.seconds;
    const double tracedRps =
        static_cast<double>(traced.requests) / traced.seconds;
    LayerInputs layers;
    layers.tracer = &tracer;
    layers.requests = static_cast<double>(traced.requests);
    layers.overheadPct = (plainRps / tracedRps - 1.0) * 100.0;
    out.metrics = layerMetrics(layers);
    out.note = "traced=" + std::to_string(traced.requests) +
               " untraced=" + std::to_string(plain.requests);
    if (!cfg.traceStem.empty() && !tracer.write(cfg.traceStem, cfg.fingerprint))
      throw std::runtime_error("cannot write trace files at " + cfg.traceStem);
  }
  out.correct = out.failed == 0;
  return out;
}

/// oneshot-table1: the kept result must be simulation-equivalent to its
/// source and byte-identical (network and C) to a fresh synthesis.
bool checkOneshotDesign(const ClosedInputs& in, std::size_t d,
                        const synth::SynthResult& kept, std::uint32_t seed) {
  const Network& source = in.designs[d];
  synth::SynthOptions options;
  options.algorithm = "paredown";
  const synth::SynthResult fresh = synth::synthesize(source, options);
  if (io::writeNetworkBinary(kept.network) !=
      io::writeNetworkBinary(fresh.network))
    return false;
  if (kept.blocks.size() != fresh.blocks.size()) return false;
  for (std::size_t b = 0; b < kept.blocks.size(); ++b)
    if (kept.blocks[b].cSource != fresh.blocks[b].cSource) return false;
  const std::vector<sim::Stimulus> scripts =
      sim::randomStimulusCorpus(source, 64, 24, seed + static_cast<std::uint32_t>(d));
  return !sim::batchCheckEquivalence(source, kept.network, scripts);
}

/// exact-search: a proven optimum (costs are compared per request).
bool checkExactDesign(const ClosedInputs&, std::size_t,
                      const synth::SynthResult& kept, std::uint32_t) {
  return kept.run.optimal && !kept.run.timedOut;
}

synth::SynthOptions exactOptions() {
  synth::SynthOptions options;
  options.algorithm = "exhaustive";
  options.engine.threads = 1;
  options.engine.timeLimitSeconds = 0;  // no limit
  return options;
}

std::vector<Network> tableOneDesigns() {
  std::vector<Network> nets;
  for (const designs::DesignEntry& e : designs::designLibrary())
    nets.push_back(e.network);
  return nets;
}

std::vector<Network> exactPoolDesigns() {
  std::vector<Network> nets;
  for (const PoolEntry& e : kExactPool) nets.push_back(poolDesign(e));
  return nets;
}

Outcome runOneshot(const RunConfig& cfg) {
  ClosedSpec spec;
  spec.makeBase = tableOneDesigns;
  spec.warmupPasses = 20;
  spec.options.algorithm = "paredown";
  spec.options.emitC = true;
  spec.checkDesign = checkOneshotDesign;
  // paredown is deterministic: the expected counts are a fresh run's.
  for (const Network& net : tableOneDesigns())
    spec.expectedAfter.push_back(synth::synthesize(net, spec.options).innerAfter);
  return runClosedWorkload(cfg, spec);
}

Outcome runExact(const RunConfig& cfg) {
  ClosedSpec spec;
  spec.makeBase = exactPoolDesigns;
  spec.options = exactOptions();
  spec.checkDesign = checkExactDesign;
  for (const PoolEntry& e : kExactPool) spec.expectedAfter.push_back(e.optimum);
  return runClosedWorkload(cfg, spec);
}

// --- serve-cached ----------------------------------------------------------

/// One client connection of the open-loop generator.
struct Conn {
  int fd = -1;
  std::string inbox;  ///< received bytes not yet framed

  Conn() = default;
  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
};

bool connectLoopback(Conn& conn, int port) {
  conn.fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (conn.fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(conn.fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0)
    return false;
  const int one = 1;
  ::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return true;
}

bool sendAll(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) return false;
      pollfd pfd{fd, POLLOUT, 0};
      if (::poll(&pfd, 1, 1000) < 0 && errno != EINTR) return false;
      continue;
    }
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

/// Appends whatever the socket holds; false on EOF or error.
bool readAvailable(Conn& conn) {
  char buf[65536];
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      conn.inbox.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return false;
    if (errno == EINTR) continue;
    return errno == EAGAIN || errno == EWOULDBLOCK;
  }
}

std::optional<std::string> popFrame(std::string& inbox) {
  const std::optional<server::FrameHeader> header =
      server::peekFrameHeader(inbox);
  if (!header) return std::nullopt;
  const std::size_t size = server::frameSize(*header);
  if (inbox.size() < size) return std::nullopt;
  std::string frame = inbox.substr(0, size);
  inbox.erase(0, size);
  return frame;
}

/// Waits up to `timeoutMs` for the next complete frame on `conn`.
std::optional<std::string> awaitFrame(Conn& conn, int timeoutMs) {
  const std::int64_t deadline =
      nowNs() + static_cast<std::int64_t>(timeoutMs) * 1'000'000;
  for (;;) {
    if (std::optional<std::string> frame = popFrame(conn.inbox)) return frame;
    const std::int64_t left = deadline - nowNs();
    if (left <= 0) return std::nullopt;
    pollfd pfd{conn.fd, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left / 1'000'000) + 1) < 0 &&
        errno != EINTR)
      return std::nullopt;
    if (!readAvailable(conn)) return std::nullopt;
  }
}

server::SynthRequest serveRequest(std::uint64_t id, std::string networkFrame) {
  server::SynthRequest request;
  request.id = id;
  request.algorithm = "paredown";
  request.threads = 1;
  request.useCache = true;
  request.networkFrame = std::move(networkFrame);
  return request;
}

/// synthesize() options the daemon derives from serveRequest().
synth::SynthOptions serveOptions(std::shared_ptr<cache::SolutionStore> store) {
  const server::SynthRequest request = serveRequest(0, "");
  synth::SynthOptions options;
  options.algorithm = request.algorithm;
  options.spec.inputs = request.inputs;
  options.spec.outputs = request.outputs;
  options.engine.threads = request.threads;
  options.engine.timeLimitSeconds = request.timeLimitSeconds;
  options.engine.pruningBound = request.prune;
  options.emitC = false;
  options.cache = std::move(store);
  return options;
}

std::shared_ptr<cache::SolutionStore> warmedStore(
    const std::vector<designs::DesignEntry>& lib) {
  auto store = std::make_shared<cache::SolutionStore>(cache::StoreOptions{});
  const synth::SynthOptions options = serveOptions(store);
  for (const designs::DesignEntry& e : lib)
    (void)synth::synthesize(e.network, options);
  return store;
}

/// Request i is a write (a fresh random design) when i % 4 == 3.
bool isWrite(std::size_t i) { return i % 4 == 3; }

struct ServeRig {
  std::vector<Network> requests;  ///< the stream, all distinct bytes
  std::vector<std::int64_t> dueNs;  ///< evenly spaced, from 0
  std::unique_ptr<server::Server> daemon;
  Conn conns[2];
};

std::unique_ptr<ServeRig> setUpServe(
    const std::vector<designs::DesignEntry>& lib, std::uint32_t seed,
    std::size_t n) {
  auto rig = std::make_unique<ServeRig>();
  std::mt19937_64 rng(seed);
  rig->requests.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::string prefix = "q" + std::to_string(i) + "_";
    const auto relabelSeed = static_cast<std::uint32_t>(rng());
    if (isWrite(i)) {
      randgen::GeneratorOptions g;
      g.innerBlocks = 8 + static_cast<int>(rng() % 13);
      g.seed = static_cast<std::uint32_t>(rng());
      rig->requests.push_back(
          randgen::relabeledCopy(randgen::randomNetwork(g), relabelSeed, prefix));
    } else {
      rig->requests.push_back(randgen::relabeledCopy(
          lib[rng() % lib.size()].network, relabelSeed, prefix));
    }
    rig->dueNs.push_back(static_cast<std::int64_t>(
        static_cast<double>(i) * 1e9 / kServeRate));
  }

  server::ServerOptions options;
  options.executors = 2;
  options.queueCapacity = 1 << 16;  // the offered rate never refuses
  options.cacheEnabled = true;      // in-memory store: no fsync noise
  rig->daemon = std::make_unique<server::Server>(options);
  std::string error;
  if (!rig->daemon->start(&error))
    throw std::runtime_error("serve-cached: daemon start: " + error);
  for (Conn& c : rig->conns)
    if (!connectLoopback(c, rig->daemon->port()))
      throw std::runtime_error("serve-cached: cannot connect to the daemon");

  // Warm-up: the Table-1 originals populate the store in library order.
  for (std::size_t k = 0; k < lib.size(); ++k) {
    const server::SynthRequest request = serveRequest(
        1'000'000'000 + k, io::writeNetworkBinary(lib[k].network));
    if (!sendAll(rig->conns[0].fd, server::encodeRequest(request)))
      throw std::runtime_error("serve-cached: warm-up send failed");
    for (;;) {
      const std::optional<std::string> frame = awaitFrame(rig->conns[0], 30000);
      if (!frame) throw std::runtime_error("serve-cached: warm-up timed out");
      const auto header = server::peekFrameHeader(*frame);
      if (header->tag == io::SectionTag::kServerProgress) continue;
      if (header->tag != io::SectionTag::kServerResponse)
        throw std::runtime_error("serve-cached: warm-up request refused");
      break;
    }
  }
  return rig;
}

struct WireRecord {
  std::int64_t dueNs = 0;
  std::int64_t doneNs = 0;
  bool answered = false;
  bool ok = false;
  int originalInner = -1;
  int innerAfter = -1;
  int span = -1;  ///< server.round_trip span (traced runs)
  std::size_t requestBytes = 0;
  std::string networkFrame;  ///< kept for every kKeepEvery-th request
  std::string runFrame;
};

struct OpenLoopRun {
  double seconds = 0;
  double meanLagUs = 0;  ///< how late the generator sent, on average
  std::size_t answered = 0;
};

/// Sends requests [begin, end) at their due times, alternating over the
/// two connections, and collects the replies; one thread does both.
OpenLoopRun runOpenLoop(ServeRig& rig, std::size_t begin, std::size_t end,
                        std::vector<WireRecord>& rec, Tracer* tracer) {
  OpenLoopRun result;
  CpuRotation rotation;
  const std::int64_t origin = nowNs() + 1'000'000 - rig.dueNs[begin];
  const std::int64_t drainUntil = origin + rig.dueNs[end - 1] + 30'000'000'000;
  double lagNs = 0;
  std::size_t next = begin, outstanding = 0;

  const auto send = [&](std::size_t i) {
    WireRecord& r = rec[i];
    const std::uint64_t id = i + 1;
    if (tracer) r.span = tracer->begin("server.round_trip", id);
    std::string networkFrame;
    {
      std::optional<Scoped> s;
      if (tracer) s.emplace(*tracer, "io.encode_network", id, r.span);
      networkFrame = io::writeNetworkBinary(rig.requests[i]);
    }
    std::string bytes;
    {
      std::optional<Scoped> s;
      if (tracer) s.emplace(*tracer, "server.encode_request", id, r.span);
      bytes = server::encodeRequest(serveRequest(id, std::move(networkFrame)));
    }
    r.requestBytes = bytes.size();
    if (!sendAll(rig.conns[i % 2].fd, bytes))
      throw std::runtime_error("serve-cached: send failed");
  };

  const auto receive = [&](const std::string& frame) {
    const auto header = server::peekFrameHeader(frame);
    if (header->tag == io::SectionTag::kServerProgress) return;
    std::uint64_t id = 0;
    bool ok = false;
    server::SynthResponse response;
    if (header->tag == io::SectionTag::kServerResponse) {
      const std::int64_t t0 = nowNs();
      response = server::decodeResponse(frame);
      id = response.id;
      if (id < begin + 1 || id > end) return;
      WireRecord& r = rec[id - 1];
      if (tracer) tracer->add("server.decode_response", t0, nowNs(), id, r.span);
      {
        std::optional<Scoped> s;
        if (tracer) s.emplace(*tracer, "io.decode_frames", id, r.span);
        const Network net = io::readNetworkBinary(response.networkFrame);
        const partition::PartitionRun run =
            io::readPartitionRunBinary(response.runFrame);
        ok = net.blockCount() > 0 && !run.algorithm.empty();
      }
    } else {
      const server::ErrorReply error = server::decodeError(frame);
      std::fprintf(stderr, "perfbench: request %llu refused: %s\n",
                   static_cast<unsigned long long>(error.id),
                   error.message.c_str());
      id = error.id;
      if (id < begin + 1 || id > end) return;
    }
    WireRecord& r = rec[id - 1];
    if (r.answered) {
      r.ok = false;  // a second reply breaks the one-reply contract
      return;
    }
    r.doneNs = nowNs();
    r.answered = true;
    r.ok = ok;
    r.originalInner = response.originalInner;
    r.innerAfter = response.innerAfter;
    if ((id - 1) % kKeepEvery == 0) {
      r.networkFrame = std::move(response.networkFrame);
      r.runFrame = std::move(response.runFrame);
    }
    if (tracer) {
      tracer->end(r.span);
      tracer->count("io.frame_bytes", id,
                    static_cast<double>(r.requestBytes + frame.size()));
    }
    --outstanding;
    ++result.answered;
  };

  pollfd fds[2] = {{rig.conns[0].fd, POLLIN, 0}, {rig.conns[1].fd, POLLIN, 0}};
  while (next < end || outstanding > 0) {
    const std::int64_t now = nowNs();
    rotation.maybeRotate(now);
    if (next < end && now >= origin + rig.dueNs[next]) {
      rec[next].dueNs = origin + rig.dueNs[next];
      lagNs += static_cast<double>(now - rec[next].dueNs);
      send(next);
      ++next;
      ++outstanding;
      continue;
    }
    if (next >= end && now >= drainUntil) break;  // unanswered = failed
    const std::int64_t wait =
        (next < end ? origin + rig.dueNs[next] : drainUntil) - now;
    const timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                      static_cast<long>(wait % 1'000'000'000)};
    if (::ppoll(fds, 2, &ts, nullptr) < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("serve-cached: ppoll failed");
    }
    for (int c = 0; c < 2; ++c) {
      if (fds[c].revents == 0) continue;
      const bool open = readAvailable(rig.conns[c]);
      while (std::optional<std::string> frame = popFrame(rig.conns[c].inbox))
        receive(*frame);
      if (!open) throw std::runtime_error("serve-cached: connection lost");
    }
  }
  std::int64_t last = origin + rig.dueNs[begin];
  for (std::size_t i = begin; i < end; ++i)
    last = std::max(last, rec[i].doneNs);
  result.seconds =
      static_cast<double>(last - (origin + rig.dueNs[begin])) / 1e9;
  result.meanLagUs = lagNs / 1e3 / static_cast<double>(end - begin);
  return result;
}

std::string moduloTime(std::string_view runFrame) {
  partition::PartitionRun run = io::readPartitionRunBinary(runFrame);
  run.seconds = 0.0;
  return io::writePartitionRunBinary(run);
}

/// Counts wrong requests in [begin, end): unanswered, refused, wrong
/// inner-block count, or -- for the kept sample -- frames that differ
/// from a one-shot synthesize() against a store warmed like the daemon's.
std::uint64_t checkServe(const ServeRig& rig,
                         const std::vector<designs::DesignEntry>& lib,
                         std::vector<WireRecord>& rec, std::size_t begin,
                         std::size_t end, bool corrupt) {
  const synth::SynthOptions options = serveOptions(warmedStore(lib));
  std::uint64_t wrong = 0;
  bool damaged = false;
  for (std::size_t i = begin; i < end; ++i) {
    WireRecord& r = rec[i];
    bool good = r.answered && r.ok &&
                r.originalInner ==
                    static_cast<int>(rig.requests[i].innerBlocks().size());
    if (good && !r.networkFrame.empty()) {
      if (corrupt && !damaged) {
        r.networkFrame[r.networkFrame.size() / 2] ^= 0x01;
        damaged = true;
      }
      const synth::SynthResult local =
          synth::synthesize(rig.requests[i], options);
      good = local.innerAfter == r.innerAfter &&
             io::writeNetworkBinary(local.network) == r.networkFrame &&
             moduloTime(io::writePartitionRunBinary(local.run)) ==
                 moduloTime(r.runFrame);
    }
    if (!good) ++wrong;
  }
  return wrong;
}

Outcome runServe(const RunConfig& cfg) {
  const std::vector<designs::DesignEntry> lib = designs::designLibrary();
  const auto n = std::max<std::size_t>(
      2, static_cast<std::size_t>(kServeRate * cfg.seconds));
  auto [rig, setupS] =
      repeatedSetup([&] { return setUpServe(lib, cfg.seed, n); });
  std::vector<WireRecord> rec(n);
  Outcome out;
  out.attempted = n;

  if (!cfg.trace) {
    const OpenLoopRun run = runOpenLoop(*rig, 0, n, rec, nullptr);
    const double rssMiB = peakRssMiB();
    rig->daemon->stop();
    out.failed = checkServe(*rig, lib, rec, 0, n, cfg.corrupt);
    std::vector<double> latencyUs;
    double before = 0, after = 0;
    for (const WireRecord& r : rec) {
      // A refused or unanswered request misses any latency limit.
      latencyUs.push_back(r.answered && r.ok
                              ? static_cast<double>(r.doneNs - r.dueNs) / 1e3
                              : kMissedUs);
      before += r.originalInner;
      after += r.innerAfter;
    }
    out.metrics = endToEnd(static_cast<double>(run.answered) / run.seconds,
                           latencyUs, after / before, out.attempted,
                           out.failed, setupS, rssMiB);
    char lag[64];
    std::snprintf(lag, sizeof(lag), " generator_lag_mean_us=%.1f",
                  run.meanLagUs);
    out.note = sampleNote(latencyUs) + lag;
  } else {
    const std::size_t half = n / 2;
    const OpenLoopRun plain = runOpenLoop(*rig, 0, half, rec, nullptr);
    Tracer tracer;
    const OpenLoopRun traced = runOpenLoop(*rig, half, n, rec, &tracer);
    const auto records = static_cast<double>(rig->daemon->cache()->recordCount());
    rig->daemon->stop();
    out.failed = checkServe(*rig, lib, rec, 0, n, cfg.corrupt);

    // Replay in-process for the layer spans: one store behind
    // synthesize(), one behind the layer calls, both kept in step with
    // the daemon's (Table-1 originals, then the untraced half's writes).
    const auto synthStore = warmedStore(lib);
    const auto layerStore = warmedStore(lib);
    const synth::SynthOptions synthOptions = serveOptions(synthStore);
    const synth::SynthOptions layerOptions = serveOptions(layerStore);
    for (std::size_t i = 0; i < half; ++i) {
      if (!isWrite(i)) continue;
      (void)synth::synthesize(rig->requests[i], synthOptions);
      (void)synth::synthesize(rig->requests[i], layerOptions);
    }
    for (std::size_t i = half; i < n; ++i)
      (void)tracedSynthesize(tracer, i + 1, rig->requests[i], synthOptions,
                             layerStore.get());

    LayerInputs layers;
    layers.tracer = &tracer;
    layers.requests = static_cast<double>(n - half);
    layers.wireRequests = static_cast<double>(n - half);
    layers.records = records;
    layers.overheadPct =
        (static_cast<double>(plain.answered) / plain.seconds /
             (static_cast<double>(traced.answered) / traced.seconds) -
         1.0) *
        100.0;
    out.metrics = layerMetrics(layers);
    out.note = "traced=" + std::to_string(n - half) +
               " untraced=" + std::to_string(half);
    if (!cfg.traceStem.empty() && !tracer.write(cfg.traceStem, cfg.fingerprint))
      throw std::runtime_error("cannot write trace files at " + cfg.traceStem);
  }
  out.correct = out.failed == 0;
  return out;
}

}  // namespace

Outcome runWorkload(const RunConfig& config) {
  if (config.workload == "oneshot-table1") return runOneshot(config);
  if (config.workload == "exact-search") return runExact(config);
  if (config.workload == "serve-cached") return runServe(config);
  throw std::invalid_argument("unknown workload '" + config.workload + "'");
}

int printExactPool() {
  int status = 0;
  for (const PoolEntry& e : kExactPool) {
    const Network net = poolDesign(e);
    const synth::SynthResult serial = synth::synthesize(net, exactOptions());
    synth::SynthOptions other = exactOptions();
    other.engine.threads = 4;
    other.engine.seedFromPareDown = false;
    const synth::SynthResult parallel = synth::synthesize(net, other);
    const bool agree = serial.run.optimal && parallel.run.optimal &&
                       serial.innerAfter == parallel.innerAfter;
    std::printf("{%d, %u, %d},  // explored %llu%s\n", e.inner, e.seed,
                serial.innerAfter,
                static_cast<unsigned long long>(serial.run.explored),
                agree ? "" : "  DISAGREE");
    std::fflush(stdout);
    if (!agree) status = 1;
  }
  return status;
}

}  // namespace perfbench
