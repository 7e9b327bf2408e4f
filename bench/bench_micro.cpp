// Google-benchmark microbenchmarks for the hot paths underlying the
// partitioners: I/O counting, border detection, PortCounter move
// throughput, and the end-to-end PareDown run.
//
// Beyond the google-benchmark timings, the binary measures a fixed
// deterministic PortCounter move workload (adds+removes over a seeded
// random walk, kEdges vs kSignals, with and without frozen-set
// tracking), prints adds+removes/sec, and verifies the per-move hot
// path performs ZERO heap allocations after warm-up by counting global
// operator new calls around the timed window (non-zero exits 1).
//
// Usage: bench_micro [--json=PATH] [google-benchmark flags]
//
// JSON records ("eblocks-bench/2", see docs/benchmarks.md):
//   moves/<kernel>/n=<inner>
//     exact  moves     adds+removes in the timed window (fixed)
//            allocs    heap allocations in that window (must stay 0)
//            checksum  io-trace checksum of the walk (a symmetric
//                      miscount cannot hide in it)
//     info   seconds
//   failpoint/disabled
//     exact  checks, fired, allocs  (fired and allocs must stay 0)
//     info   seconds, ns_per_check
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <new>
#include <random>
#include <string>
#include <vector>

#include "bench_json.h"
#include "core/failpoint.h"
#include "core/subgraph.h"
#include "partition/paredown.h"
#include "partition/port_counter.h"
#include "randgen/generator.h"
#include "sim/simulator.h"

// Global allocation counter: the zero-alloc claim on the PortCounter
// move path is verified by counting every operator new in the process
// during the timed window (single-threaded, so the window is exact).
// The replacement new/delete pair routes through malloc/free, which is
// self-consistent; GCC's -Wmismatched-new-delete cannot see that once
// it inlines the replacement into callers, so silence the false
// positive for this TU.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
namespace {
std::atomic<std::uint64_t> gAllocCount{0};
}  // namespace

void* operator new(std::size_t size) {
  gAllocCount.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace eblocks;

const Network& netOf(int inner) {
  static std::map<int, Network> cache;
  auto it = cache.find(inner);
  if (it == cache.end())
    it = cache
             .emplace(inner, randgen::randomNetwork(
                                 {.innerBlocks = inner,
                                  .seed = static_cast<std::uint32_t>(inner)}))
             .first;
  return it->second;
}

/// The fixed random walk every move benchmark replays: block i of the
/// walk is toggled (added if absent, removed if present), so the counter
/// state -- and therefore the walk's io() trace -- is identical run to
/// run and kernel to kernel.
std::vector<BlockId> moveWalk(const Network& net, std::size_t moves) {
  const std::vector<BlockId> inner = net.innerBlocks();
  std::mt19937 rng(12345);
  std::uniform_int_distribution<std::size_t> pick(0, inner.size() - 1);
  std::vector<BlockId> walk(moves);
  for (std::size_t i = 0; i < moves; ++i) walk[i] = inner[pick(rng)];
  return walk;
}

void runWalk(partition::PortCounter& counter,
             const std::vector<BlockId>& walk) {
  for (const BlockId b : walk) {
    if (counter.contains(b))
      counter.remove(b);
    else
      counter.add(b);
  }
}

/// runWalk plus a checksum of the io() trace after every move.  The
/// walk toggles each block an even number of times across warm-up +
/// timed pass, so the *final* io() is vacuously 0/0; the running
/// checksum is the deterministic fingerprint that a miscounting kernel
/// -- even one symmetric in add/remove -- cannot reproduce.
std::uint64_t runWalkChecksum(partition::PortCounter& counter,
                              const std::vector<BlockId>& walk) {
  std::uint64_t checksum = 0;
  for (const BlockId b : walk) {
    if (counter.contains(b))
      counter.remove(b);
    else
      counter.add(b);
    checksum = checksum * 31 +
               static_cast<std::uint64_t>(
                   counter.io().inputs * 1000 + counter.io().outputs);
  }
  return checksum;
}

void BM_CountIoEdges(benchmark::State& state) {
  const Network& net = netOf(static_cast<int>(state.range(0)));
  const BitSet inner = net.innerSet();
  for (auto _ : state)
    benchmark::DoNotOptimize(countIo(net, inner, CountingMode::kEdges));
}
BENCHMARK(BM_CountIoEdges)->Arg(10)->Arg(100)->Arg(465);

void BM_CountIoSignals(benchmark::State& state) {
  const Network& net = netOf(static_cast<int>(state.range(0)));
  const BitSet inner = net.innerSet();
  for (auto _ : state)
    benchmark::DoNotOptimize(countIo(net, inner, CountingMode::kSignals));
}
BENCHMARK(BM_CountIoSignals)->Arg(10)->Arg(100)->Arg(465);

void BM_BorderBlocks(benchmark::State& state) {
  const Network& net = netOf(static_cast<int>(state.range(0)));
  const BitSet inner = net.innerSet();
  for (auto _ : state)
    benchmark::DoNotOptimize(borderBlocks(net, inner));
}
BENCHMARK(BM_BorderBlocks)->Arg(10)->Arg(100)->Arg(465);

void BM_Convexity(benchmark::State& state) {
  const Network& net = netOf(static_cast<int>(state.range(0)));
  const BitSet inner = net.innerSet();
  for (auto _ : state) benchmark::DoNotOptimize(isConvex(net, inner));
}
BENCHMARK(BM_Convexity)->Arg(10)->Arg(100)->Arg(465);

/// PortCounter move throughput: toggle membership along the fixed walk.
/// Items processed = moves (one add or remove each).
void BM_PortCounterMoves(benchmark::State& state, CountingMode mode,
                         bool withFrozen) {
  const Network& net = netOf(static_cast<int>(state.range(0)));
  const std::vector<BlockId> walk = moveWalk(net, 4096);
  BitSet frozen(net.blockCount());
  for (BlockId b = 0; b < net.blockCount(); ++b)
    if (!net.isInner(b)) frozen.set(b);
  const partition::CompactGraph graph(net, net.innerSet());
  partition::PortCounter counter(graph, mode, partition::BorderTracking::kOff,
                                 withFrozen ? &frozen : nullptr);
  for (auto _ : state) {
    runWalk(counter, walk);
    benchmark::DoNotOptimize(counter.io());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(walk.size()));
}
BENCHMARK_CAPTURE(BM_PortCounterMoves, edges, CountingMode::kEdges, false)
    ->Arg(100)->Arg(465);
BENCHMARK_CAPTURE(BM_PortCounterMoves, signals, CountingMode::kSignals, false)
    ->Arg(100)->Arg(465);
BENCHMARK_CAPTURE(BM_PortCounterMoves, signals_fixed, CountingMode::kSignals,
                  true)
    ->Arg(100)->Arg(465);

/// A disarmed failpoint check: one relaxed atomic load and a
/// predictable branch.  This is the price every syscall-shaped edge in
/// the cache/io/server pays in production, so it must stay in the
/// low-nanosecond range.
void BM_FailpointDisabledCheck(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(
        static_cast<bool>(core::failpoint::check(
            core::failpoint::name::kCacheFsync)));
}
BENCHMARK(BM_FailpointDisabledCheck);

void BM_PareDownEndToEnd(benchmark::State& state) {
  const Network& net = netOf(static_cast<int>(state.range(0)));
  const partition::PartitionProblem problem(net, {});
  for (auto _ : state)
    benchmark::DoNotOptimize(partition::pareDown(problem));
}
BENCHMARK(BM_PareDownEndToEnd)->Arg(10)->Arg(50)->Arg(200)->Arg(465)
    ->Unit(benchmark::kMillisecond);

void BM_SimulatorSettle(benchmark::State& state) {
  const Network& net = netOf(static_cast<int>(state.range(0)));
  sim::SimOptions options;
  options.recordTrace = false;
  sim::Simulator simulator(net, options);
  std::vector<std::string> sensors;
  for (BlockId b = 0; b < net.blockCount(); ++b)
    if (net.isSensor(b)) sensors.push_back(net.block(b).name);
  std::int64_t v = 0;
  for (auto _ : state) {
    simulator.setSensor(sensors[static_cast<std::size_t>(v) % sensors.size()],
                        v & 1);
    simulator.settle();
    ++v;
  }
}
BENCHMARK(BM_SimulatorSettle)->Arg(50)->Arg(200)
    ->Unit(benchmark::kMicrosecond);

/// One deterministic move workload for the JSON record + zero-alloc
/// verification.  Returns false when the timed window allocated.
bool runMoveWorkload(const char* name, int inner, CountingMode mode,
                     bool withFrozen, eblocks::bench::BenchJson& json) {
  constexpr std::size_t kMoves = 1u << 18;  // 262144 adds+removes
  const Network& net = netOf(inner);
  const std::vector<BlockId> walk = moveWalk(net, kMoves);
  BitSet frozen(net.blockCount());
  for (BlockId b = 0; b < net.blockCount(); ++b)
    if (!net.isInner(b)) frozen.set(b);
  const partition::CompactGraph graph(net, net.innerSet());
  partition::PortCounter counter(graph, mode, partition::BorderTracking::kOff,
                                 withFrozen ? &frozen : nullptr);
  // Warm up one full pass so every internal buffer reaches steady-state
  // capacity, then time (and allocation-count) a second identical pass.
  runWalk(counter, walk);
  const std::uint64_t allocsBefore =
      gAllocCount.load(std::memory_order_relaxed);
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t checksum = runWalkChecksum(counter, walk);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const std::uint64_t allocs =
      gAllocCount.load(std::memory_order_relaxed) - allocsBefore;
  const double mps = static_cast<double>(kMoves) / seconds / 1e6;
  // The io-trace checksum, folded below 2^53 so a JSON number holds it
  // exactly.
  const std::uint64_t fingerprint = checksum % 900000007ull;
  std::printf("%-28s n=%-4d %8.2f Mmoves/s  (%zu moves, %.4fs, "
              "%llu allocs, io-checksum=%llu)\n",
              name, inner, mps, kMoves, seconds,
              static_cast<unsigned long long>(allocs),
              static_cast<unsigned long long>(fingerprint));
  json.add(std::string("moves/") + name + "/n=" + std::to_string(inner),
           true,
           {{"moves", kMoves}, {"allocs", allocs}, {"checksum", fingerprint}},
           {{"seconds", seconds}});
  if (allocs != 0)
    std::fprintf(stderr,
                 "!! %s n=%d: %llu heap allocations on the move hot path "
                 "(expected 0)\n",
                 name, inner, static_cast<unsigned long long>(allocs));
  return allocs == 0;
}

/// The zero-overhead-when-disabled guard for the failpoint subsystem
/// (docs/robustness.md): 2^22 disarmed checks must fire nothing and
/// allocate nothing (non-zero exit otherwise).  Both counts are exact
/// JSON values, so compare_bench.py also warns if they move; the
/// per-check cost is informational.
bool runFailpointWorkload(eblocks::bench::BenchJson& json) {
  constexpr std::uint64_t kChecks = 1u << 22;
  core::failpoint::clearAll();
  std::uint64_t fired = 0;
  // Warm-up pass, then the timed + allocation-counted pass.
  for (std::uint64_t i = 0; i < kChecks / 16; ++i)
    if (core::failpoint::check(core::failpoint::name::kCacheFsync)) ++fired;
  const std::uint64_t allocsBefore =
      gAllocCount.load(std::memory_order_relaxed);
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < kChecks; ++i)
    if (core::failpoint::check(core::failpoint::name::kCacheFsync)) ++fired;
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const std::uint64_t allocs =
      gAllocCount.load(std::memory_order_relaxed) - allocsBefore;
  const double nsPerCheck = seconds / static_cast<double>(kChecks) * 1e9;
  std::printf("%-28s %8.2f ns/check  (%llu checks, %.4fs, "
              "%llu fired, %llu allocs)\n",
              "failpoint/disabled", nsPerCheck,
              static_cast<unsigned long long>(kChecks), seconds,
              static_cast<unsigned long long>(fired),
              static_cast<unsigned long long>(allocs));
  json.add("failpoint/disabled", true,
           {{"checks", kChecks}, {"fired", fired}, {"allocs", allocs}},
           {{"seconds", seconds}, {"ns_per_check", nsPerCheck}});
  if (fired != 0 || allocs != 0)
    std::fprintf(stderr,
                 "!! failpoint/disabled: %llu fired, %llu allocs on the "
                 "disarmed check path (expected 0)\n",
                 static_cast<unsigned long long>(fired),
                 static_cast<unsigned long long>(allocs));
  return fired == 0 && allocs == 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string jsonPath =
      eblocks::bench::BenchJson::extractPath(argc, argv);
  eblocks::bench::BenchJson json("bench_micro", jsonPath);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::printf("\nPortCounter move throughput (deterministic walk, "
              "steady state must be allocation-free):\n");
  bool ok = true;
  for (const int n : {100, 465}) {
    ok = runMoveWorkload("edges", n, CountingMode::kEdges, false, json) && ok;
    ok = runMoveWorkload("signals", n, CountingMode::kSignals, false, json) &&
         ok;
    ok = runMoveWorkload("signals_fixed", n, CountingMode::kSignals, true,
                         json) &&
         ok;
  }
  std::printf("\nFailpoint disarmed-check overhead (must fire nothing, "
              "allocate nothing):\n");
  ok = runFailpointWorkload(json) && ok;
  if (!json.write()) ok = false;
  return ok ? 0 : 1;
}
