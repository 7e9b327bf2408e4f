#include "partition/engine.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <stdexcept>

#include "partition/aggregation.h"
#include "partition/exhaustive.h"
#include "partition/fm_refine.h"
#include "partition/greedy_seed.h"
#include "partition/ladder.h"
#include "partition/lns.h"
#include "partition/paredown.h"

namespace eblocks::partition {

namespace {

class PareDownStrategy final : public Partitioner {
 public:
  std::string name() const override { return "paredown"; }
  std::string description() const override {
    return "border-paring heuristic (Section 4.2); O(n^2), near-optimal";
  }
  PartitionRun run(const PartitionProblem& problem,
                   const EngineOptions&) const override {
    return pareDown(problem);
  }
};

class AggregationStrategy final : public Partitioner {
 public:
  std::string name() const override { return "aggregation"; }
  std::string description() const override {
    return "greedy neighbor aggregation (Section 4.2); fast, no look-ahead";
  }
  PartitionRun run(const PartitionProblem& problem,
                   const EngineOptions&) const override {
    return aggregation(problem);
  }
};

class ExhaustiveStrategy final : public Partitioner {
 public:
  std::string name() const override { return "exhaustive"; }
  std::string description() const override {
    return "optimal work-stealing branch-and-bound (Section 4.1), "
           "PareDown-seeded, admissible-bound pruned";
  }
  PartitionRun run(const PartitionProblem& problem,
                   const EngineOptions& options) const override {
    ExhaustiveOptions ex;
    ex.timeLimitSeconds = options.timeLimitSeconds;
    ex.requireConvex = options.requireConvex;
    ex.threads = options.threads;
    ex.pruningBound = options.pruningBound;
    ex.cancel = options.cancel;
    ex.progressNodes = options.progressNodes;
    // Warm start: seed the incumbent with the cheapest known solution.
    // Both sources are pure accelerators (trust-but-verify inside the
    // search), so taking the cheaper one never changes the optimum.
    if (options.seedFromPareDown) ex.seed = pareDown(problem).result;
    if (options.initialIncumbent) {
      const int n = problem.innerCount();
      if (!ex.seed || options.initialIncumbent->totalAfter(n) <
                          ex.seed->totalAfter(n))
        ex.seed = options.initialIncumbent;
    }
    return exhaustiveSearch(problem, ex);
  }
};

class GreedySeedStrategy final : public Partitioner {
 public:
  std::string name() const override { return "greedy"; }
  std::string description() const override {
    return "constructive BFS cluster growth + residual PareDown; "
           "near-linear seed for fm/lns";
  }
  PartitionRun run(const PartitionProblem& problem,
                   const EngineOptions&) const override {
    return greedySeed(problem);
  }
};

class FmStrategy final : public Partitioner {
 public:
  std::string name() const override { return "fm"; }
  std::string description() const override {
    return "FM-style pass-based refinement of the greedy seed (gain "
           "buckets, rollback-to-best-prefix)";
  }
  PartitionRun run(const PartitionProblem& problem,
                   const EngineOptions&) const override {
    const PartitionRun seed = greedySeed(problem);
    PartitionRun refined = fmRefine(problem, seed.result);
    refined.explored += seed.explored;
    refined.seconds += seed.seconds;
    return refined;
  }
};

class LnsStrategy final : public Partitioner {
 public:
  std::string name() const override { return "lns"; }
  std::string description() const override {
    return "anytime large-neighborhood search over fm's solution "
           "(pocket destroy + exact B&B repair)";
  }
  PartitionRun run(const PartitionProblem& problem,
                   const EngineOptions& options) const override {
    const PartitionRun seed = greedySeed(problem);
    const PartitionRun refined = fmRefine(problem, seed.result);
    LnsOptions lns;
    lns.timeLimitSeconds = options.timeLimitSeconds;
    lns.pocketSize = options.lnsPocket;
    lns.maxRounds = options.lnsRounds;
    lns.repairNodeBudget = options.lnsRepairNodes;
    lns.rngSeed = options.rngSeed;
    lns.cancel = options.cancel;
    lns.progressNodes = options.progressNodes;
    PartitionRun out = lnsSearch(problem, refined.result, lns);
    out.explored += seed.explored + refined.explored;
    out.seconds += seed.seconds + refined.seconds;
    return out;
  }
};

class LadderStrategy final : public Partitioner {
 public:
  std::string name() const override { return "ladder"; }
  std::string description() const override {
    return "deadline degradation ladder greedy -> fm -> lns -> exact "
           "B&B; always feasible, run.degradedTier reports the rung";
  }
  PartitionRun run(const PartitionProblem& problem,
                   const EngineOptions& options) const override {
    return degradationLadder(problem, options);
  }
};

class MultiTypePareDownStrategy final : public TypedPartitioner {
 public:
  std::string name() const override { return "paredown"; }
  std::string description() const override {
    return "cost-aware PareDown over multiple programmable block types";
  }
  TypedPartitionRun run(const Network& net, const ProgCostModel& model,
                        const EngineOptions&) const override {
    return multiTypePareDown(net, model);
  }
};

class MultiTypeExhaustiveStrategy final : public TypedPartitioner {
 public:
  std::string name() const override { return "exhaustive"; }
  std::string description() const override {
    return "optimal work-stealing branch-and-bound over types and "
           "assignments, admissible-bound pruned";
  }
  TypedPartitionRun run(const Network& net, const ProgCostModel& model,
                        const EngineOptions& options) const override {
    MultiTypeExhaustiveOptions ex;
    ex.timeLimitSeconds = options.timeLimitSeconds;
    ex.threads = options.threads;
    ex.pruningBound = options.pruningBound;
    if (options.seedFromPareDown)
      ex.seed = multiTypePareDown(net, model).result;
    if (options.initialTypedIncumbent) {
      const int n = static_cast<int>(net.innerBlocks().size());
      if (!ex.seed || options.initialTypedIncumbent->totalCost(n, model) <
                          ex.seed->totalCost(n, model))
        ex.seed = options.initialTypedIncumbent;
    }
    return multiTypeExhaustive(net, model, ex);
  }
};

class MultiTypeFmStrategy final : public TypedPartitioner {
 public:
  std::string name() const override { return "fm"; }
  std::string description() const override {
    return "FM-style refinement of the cost-aware PareDown solution "
           "under the option cost model";
  }
  TypedPartitionRun run(const Network& net, const ProgCostModel& model,
                        const EngineOptions&) const override {
    const TypedPartitionRun seed = multiTypePareDown(net, model);
    TypedPartitionRun refined = multiTypeFmRefine(net, model, seed.result);
    refined.explored += seed.explored;
    refined.seconds += seed.seconds;
    return refined;
  }
};

std::string joinNames(const std::vector<std::string>& names) {
  std::string joined;
  for (const std::string& n : names) {
    if (!joined.empty()) joined += ", ";
    joined += n;
  }
  return joined;
}

}  // namespace

struct PartitionerRegistry::Impl {
  mutable std::mutex mutex;
  std::map<std::string, std::unique_ptr<Partitioner>, std::less<>> plain;
  std::map<std::string, std::unique_ptr<TypedPartitioner>, std::less<>> typed;
};

PartitionerRegistry::PartitionerRegistry() : impl_(std::make_shared<Impl>()) {}

PartitionerRegistry& PartitionerRegistry::instance() {
  static PartitionerRegistry* registry = [] {
    auto* r = new PartitionerRegistry();
    r->add(std::make_unique<PareDownStrategy>());
    r->add(std::make_unique<ExhaustiveStrategy>());
    r->add(std::make_unique<AggregationStrategy>());
    r->add(std::make_unique<GreedySeedStrategy>());
    r->add(std::make_unique<FmStrategy>());
    r->add(std::make_unique<LnsStrategy>());
    r->add(std::make_unique<LadderStrategy>());
    r->add(std::make_unique<MultiTypePareDownStrategy>());
    r->add(std::make_unique<MultiTypeExhaustiveStrategy>());
    r->add(std::make_unique<MultiTypeFmStrategy>());
    return r;
  }();
  return *registry;
}

void PartitionerRegistry::add(std::unique_ptr<Partitioner> partitioner) {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->plain[partitioner->name()] = std::move(partitioner);
}

void PartitionerRegistry::add(std::unique_ptr<TypedPartitioner> partitioner) {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->typed[partitioner->name()] = std::move(partitioner);
}

const Partitioner* PartitionerRegistry::find(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  const auto it = impl_->plain.find(name);
  return it == impl_->plain.end() ? nullptr : it->second.get();
}

const TypedPartitioner* PartitionerRegistry::findTyped(
    std::string_view name) const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  const auto it = impl_->typed.find(name);
  return it == impl_->typed.end() ? nullptr : it->second.get();
}

std::vector<std::string> PartitionerRegistry::names() const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  std::vector<std::string> out;
  out.reserve(impl_->plain.size());
  for (const auto& [name, unused] : impl_->plain) out.push_back(name);
  return out;  // std::map iterates sorted
}

std::vector<std::string> PartitionerRegistry::typedNames() const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  std::vector<std::string> out;
  out.reserve(impl_->typed.size());
  for (const auto& [name, unused] : impl_->typed) out.push_back(name);
  return out;
}

std::string PartitionerRegistry::describe(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  const auto it = impl_->plain.find(name);
  if (it != impl_->plain.end()) return it->second->description();
  const auto typedIt = impl_->typed.find(name);
  if (typedIt != impl_->typed.end()) return typedIt->second->description();
  return "";
}

PartitionRun runPartitioner(std::string_view name,
                            const PartitionProblem& problem,
                            const EngineOptions& options) {
  PartitionerRegistry& registry = PartitionerRegistry::instance();
  const Partitioner* partitioner = registry.find(name);
  if (!partitioner)
    throw std::invalid_argument(
        "unknown partitioning algorithm '" + std::string(name) +
        "' (registered: " + joinNames(registry.names()) + ")");
  return partitioner->run(problem, options);
}

TypedPartitionRun runTypedPartitioner(std::string_view name,
                                      const Network& net,
                                      const ProgCostModel& model,
                                      const EngineOptions& options) {
  PartitionerRegistry& registry = PartitionerRegistry::instance();
  const TypedPartitioner* partitioner = registry.findTyped(name);
  if (!partitioner)
    throw std::invalid_argument(
        "unknown multi-type partitioning algorithm '" + std::string(name) +
        "' (registered: " + joinNames(registry.typedNames()) + ")");
  return partitioner->run(net, model, options);
}

}  // namespace eblocks::partition
