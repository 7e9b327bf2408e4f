// The partition engine: one registration point for every partitioning
// strategy.
//
// The four partitioners grew up behind two incompatible call conventions
// (free functions over PartitionProblem for the plain problem, free
// functions over Network+ProgCostModel for the multi-type one), so adding
// an algorithm meant touching the synthesizer's enum, the shell's parser,
// and every bench by hand.  The engine replaces that with a name-keyed
// registry of strategy objects: `synthesize()` and the shell select by
// name, new algorithms register once and are immediately reachable
// everywhere, and engine-level options (time limit, threads, seeding)
// apply uniformly.
//
// Registered built-ins -- plain: paredown, aggregation, exhaustive,
// greedy, fm, lns, ladder; multi-type: paredown, exhaustive, fm.  The
// heuristic chain greedy -> fm -> lns is anytime (each stage refines the
// last, never worse); `initialIncumbent` feeds any of their solutions
// back into the exact searches as a warm start; `ladder` climbs the
// whole chain into the exact B&B under one deadline, tagging how far it
// got (ladder.h).
#ifndef EBLOCKS_PARTITION_ENGINE_H_
#define EBLOCKS_PARTITION_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "partition/multitype.h"
#include "partition/problem.h"
#include "partition/result.h"

namespace eblocks::partition {

/// Engine-level knobs forwarded to whichever strategy runs.  Strategies
/// ignore knobs that do not apply to them (the heuristics have no time
/// limit or thread pool, for example).
struct EngineOptions {
  /// Wall-clock budget for anytime strategies (exhaustive search).
  double timeLimitSeconds = 60.0;
  /// Worker threads for parallel strategies.  0 = one per hardware
  /// thread, 1 = serial.  Completed searches return identical results at
  /// every thread count; only timed-out runs are scheduling-dependent.
  int threads = 0;
  /// Require convex partitions (classical DAG covering; see validity.h).
  bool requireConvex = false;
  /// Exhaustive strategies seed their branch-and-bound with the PareDown
  /// solution by default -- a pure accelerator that never changes the
  /// optimum.  Disable to measure the unseeded search.
  bool seedFromPareDown = true;
  /// Admissible lower-bound pruning for the exhaustive strategies
  /// (irreducible-I/O floors; see exhaustive.h).  Like the seed, a pure
  /// accelerator: results are bit-identical on or off.  Disable to
  /// measure the unpruned search (bench_exhaustive_blowup ablates it).
  bool pruningBound = true;
  /// Warm start for the exhaustive strategies: a known-valid solution
  /// (commonly `fm`'s) that seeds the shared atomic incumbent.  A pure
  /// pruning accelerator like seedFromPareDown -- the optimum returned
  /// is bit-identical -- but a tighter incumbent cuts more subtrees; the
  /// exhaustive strategies seed with whichever of PareDown's solution
  /// and this one is cheaper.  Heuristic strategies ignore it.
  std::optional<Partitioning> initialIncumbent;
  /// Multi-type counterpart of initialIncumbent.
  std::optional<TypedPartitioning> initialTypedIncumbent;
  /// `lns` strategy: blocks per destroyed pocket (0 = auto; see lns.h).
  int lnsPocket = 0;
  /// `lns` strategy: destroy/repair rounds (0 = until the time limit).
  int lnsRounds = 0;
  /// `lns` strategy: node budget per repair search.
  std::uint64_t lnsRepairNodes = 200000;
  /// Seed for randomized strategies (`lns`'s destroy step).
  std::uint32_t rngSeed = 1;
  /// Cooperative cancellation, riding the searches' timeout plumbing
  /// (ExhaustiveOptions::cancel / LnsOptions::cancel): when non-null and
  /// set, the anytime strategies (`exhaustive`, `lns`) stop at their next
  /// periodic check and return the best solution so far with
  /// run.timedOut = true.  The fast constructive strategies (paredown,
  /// aggregation, greedy, fm) finish in milliseconds and ignore it.  The
  /// synthesis daemon (src/server) flips this when a client cancels or
  /// disconnects.
  const std::atomic<bool>* cancel = nullptr;
  /// Live search-effort telemetry (ExhaustiveOptions::progressNodes):
  /// the anytime strategies add explored nodes in 4096-node granules;
  /// the daemon's progress ticks read it.
  std::atomic<std::uint64_t>* progressNodes = nullptr;
};

/// A partitioning strategy for the plain (single block type) problem.
class Partitioner {
 public:
  virtual ~Partitioner() = default;
  /// Registry key; lowercase, stable across releases.
  virtual std::string name() const = 0;
  /// One-line human description (the shell's `algorithms` listing).
  virtual std::string description() const = 0;
  virtual PartitionRun run(const PartitionProblem& problem,
                           const EngineOptions& options) const = 0;
};

/// A partitioning strategy for the multi-type, cost-aware problem.
class TypedPartitioner {
 public:
  virtual ~TypedPartitioner() = default;
  virtual std::string name() const = 0;
  virtual std::string description() const = 0;
  virtual TypedPartitionRun run(const Network& net,
                                const ProgCostModel& model,
                                const EngineOptions& options) const = 0;
};

/// Name-keyed registry of strategies.  The process-wide instance() comes
/// pre-loaded with the built-ins (paredown, exhaustive, aggregation, and
/// the multi-type pair); add() registers custom strategies at runtime.
/// Thread-safe.
class PartitionerRegistry {
 public:
  static PartitionerRegistry& instance();

  /// Registers a strategy; replaces any previous holder of the name.
  void add(std::unique_ptr<Partitioner> partitioner);
  void add(std::unique_ptr<TypedPartitioner> partitioner);

  /// Lookup by name; nullptr when unknown.
  const Partitioner* find(std::string_view name) const;
  const TypedPartitioner* findTyped(std::string_view name) const;

  /// Registered names, sorted.
  std::vector<std::string> names() const;
  std::vector<std::string> typedNames() const;

  /// Description of a registered strategy ("" when unknown).
  std::string describe(std::string_view name) const;

 private:
  PartitionerRegistry();

  struct Impl;
  std::shared_ptr<Impl> impl_;
};

/// Runs the named strategy from the process registry.  Throws
/// std::invalid_argument (listing the registered names) when unknown.
PartitionRun runPartitioner(std::string_view name,
                            const PartitionProblem& problem,
                            const EngineOptions& options = {});

/// Multi-type counterpart of runPartitioner().
TypedPartitionRun runTypedPartitioner(std::string_view name,
                                      const Network& net,
                                      const ProgCostModel& model,
                                      const EngineOptions& options = {});

}  // namespace eblocks::partition

#endif  // EBLOCKS_PARTITION_ENGINE_H_
