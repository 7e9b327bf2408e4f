#include "partition/fm_refine.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "partition/port_counter.h"
#include "partition/validity.h"

namespace eblocks::partition {

namespace {

constexpr long long kNoEntry = std::numeric_limits<long long>::min();
constexpr int kDetach = -1;  // move target: a fresh singleton bin

/// The objective seen by the refiner: scaled-integer cost of one bin.
/// fitsBin() is the feasibility test for bins of >= 2 members (empty and
/// singleton bins are always feasible -- a singleton is just an
/// uncovered block paying its pre-defined cost).
class CostAdapter {
 public:
  virtual ~CostAdapter() = default;
  virtual bool fitsBin(const IoCount& io) const = 0;
  virtual long long binCost(const IoCount& io, int size) const = 0;
};

/// Plain problem: (#bins, port-sum) lexicographic via W-scaling.  W
/// exceeds any possible whole-solution port-sum, so minimizing the
/// scaled total minimizes the paper's "inner blocks after replacement"
/// first and crossing ports second.
class PlainCost final : public CostAdapter {
 public:
  PlainCost(const ProgBlockSpec& spec, long long w) : spec_(spec), w_(w) {}
  bool fitsBin(const IoCount& io) const override { return fits(io, spec_); }
  long long binCost(const IoCount& io, int size) const override {
    if (size == 0) return 0;
    if (size == 1) return w_;
    return w_ + io.inputs + io.outputs;
  }

 private:
  ProgBlockSpec spec_;
  long long w_;
};

/// Multi-type problem: the cost model itself, in the exact milli-units of
/// toMilliCosts(), so the integer total is MilliCostModel::totalCost.
class TypedCost final : public CostAdapter {
 public:
  TypedCost(const ProgCostModel& model, MilliCostModel milli)
      : model_(&model), milli_(std::move(milli)) {}
  bool fitsBin(const IoCount& io) const override {
    return cheapestFittingOption(io, *model_).has_value();
  }
  long long binCost(const IoCount& io, int size) const override {
    if (size == 0) return 0;
    if (size == 1) return milli_.preDefinedBlockCost;
    const std::optional<int> opt = cheapestFittingOption(io, *model_);
    // The refiner never forms a bin no option fits; a desynced caller
    // would have tripped the feasibility probes long before this.
    return milli_.optionCost[static_cast<std::size_t>(*opt)];
  }

 private:
  const ProgCostModel* model_;
  MilliCostModel milli_;
};

struct Move {
  long long gain = 0;
  int target = kDetach;
  bool feasible = false;
};

/// The shared pass engine (see the header comment for the algorithm).
class Refiner {
 public:
  Refiner(const PartitionProblem& problem, const CostAdapter& cost)
      : graph_(&problem.graph()),
        mode_(problem.spec().mode),
        cost_(&cost),
        binOf_(graph_->blockCount(), -1),
        entryGain_(graph_->blockCount(), kNoEntry),
        locked_(graph_->blockCount(), 0),
        binStamp_() {}

  /// Installs a solution: the given member sets become bins, every inner
  /// block outside them becomes a singleton bin.
  void load(const std::vector<BitSet>& partitions) {
    for (auto& bin : bins_)
      if (bin) bin->clear();
    freeBins_.clear();
    for (int i = 0; i < static_cast<int>(bins_.size()); ++i)
      freeBins_.push_back(i);
    std::fill(binOf_.begin(), binOf_.end(), -1);
    total_ = 0;
    for (const BitSet& members : partitions) {
      const int q = newBin();
      members.forEach([&](std::size_t b) {
        bins_[q]->add(static_cast<BlockId>(b));
        binOf_[b] = q;
      });
      total_ += cost_->binCost(bins_[q]->io(), bins_[q]->memberCount());
    }
    for (const BlockId b : graph_->innerBlocks()) {
      if (binOf_[b] >= 0) continue;
      const int q = newBin();
      bins_[q]->add(b);
      binOf_[b] = q;
      total_ += cost_->binCost(bins_[q]->io(), 1);
    }
  }

  long long totalCost() const { return total_; }
  std::uint64_t probes() const { return probes_; }

  /// Runs passes until one fails to improve.
  void refine() {
    while (pass()) {
    }
  }

  /// The current bins of >= 2 members, sorted by lowest member id.
  std::vector<BitSet> partitions() const {
    std::vector<BitSet> out;
    for (const auto& bin : bins_)
      if (bin && bin->memberCount() >= 2) out.push_back(bin->members());
    std::sort(out.begin(), out.end(), [](const BitSet& a, const BitSet& b) {
      return a.findFirst() < b.findFirst();
    });
    return out;
  }

 private:
  int newBin() {
    if (!freeBins_.empty()) {
      const int q = freeBins_.back();
      freeBins_.pop_back();
      return q;
    }
    bins_.push_back(std::make_unique<PortCounter>(*graph_, mode_));
    binStamp_.push_back(0);
    return static_cast<int>(bins_.size()) - 1;
  }

  /// Target bins of `b`: the bins of its CSR neighbors, deduped,
  /// ascending, excluding its own.
  void collectTargets(BlockId b) {
    targets_.clear();
    ++stamp_;
    const int own = binOf_[b];
    const auto consider = [&](BlockId nb) {
      const int q = binOf_[nb];
      if (q < 0 || q == own || binStamp_[q] == stamp_) return;
      binStamp_[q] = stamp_;
      targets_.push_back(q);
    };
    for (const CompactArc& a : graph_->inArcs(b)) consider(a.neighbor);
    for (const CompactArc& a : graph_->outArcs(b)) consider(a.neighbor);
    std::sort(targets_.begin(), targets_.end());
  }

  /// Probes every candidate move of `b` and returns the best (highest
  /// gain; ties toward the lowest target bin index, detach last).
  Move bestMove(BlockId b) {
    const int p = binOf_[b];
    PortCounter& src = *bins_[p];
    const int psize = src.memberCount();
    const long long oldP = cost_->binCost(src.io(), psize);
    // Source-after-removal probe: I/O is not monotone under removal, so
    // the shrunk bin must re-prove it still fits.
    ++probes_;
    src.remove(b);
    const bool srcOk = psize - 1 < 2 || cost_->fitsBin(src.io());
    // Cost the shrunk bin only once it has re-proved feasibility: under
    // the typed model binCost on an infeasible bin has no answer.
    const long long newP = srcOk ? cost_->binCost(src.io(), psize - 1) : 0;
    src.add(b);
    Move best;
    if (!srcOk) return best;
    collectTargets(b);
    for (const int q : targets_) {
      PortCounter& dst = *bins_[q];
      const long long oldQ = cost_->binCost(dst.io(), dst.memberCount());
      ++probes_;
      dst.add(b);
      const bool ok = cost_->fitsBin(dst.io());
      const long long newQ =
          ok ? cost_->binCost(dst.io(), dst.memberCount()) : 0;
      dst.remove(b);
      if (!ok) continue;
      const long long gain = oldP + oldQ - newP - newQ;
      if (!best.feasible || gain > best.gain) best = {gain, q, true};
    }
    if (psize >= 2) {
      // Detach into a fresh singleton (back to uncovered).
      const long long gain = oldP - newP - cost_->binCost(IoCount{}, 1);
      if (!best.feasible || gain > best.gain) best = {gain, kDetach, true};
    }
    return best;
  }

  void file(BlockId b) {
    const Move m = bestMove(b);
    if (m.feasible) {
      entryGain_[b] = m.gain;
      buckets_[m.gain].push_back(b);
    } else {
      entryGain_[b] = kNoEntry;
    }
  }

  /// Pops the best valid entry: greatest gain bucket, lowest block id.
  /// Stale entries (gain no longer current, or block locked) are
  /// discarded along the way.  Returns kNoBlock when the queue is dry.
  BlockId pop(long long* key) {
    while (!buckets_.empty()) {
      const auto top = buckets_.begin();
      std::vector<BlockId>& bucket = top->second;
      BlockId best = kNoBlock;
      std::size_t w = 0;
      for (const BlockId b : bucket) {
        if (locked_[b] || entryGain_[b] != top->first) continue;  // stale
        bucket[w++] = b;
        if (best == kNoBlock || b < best) best = b;
      }
      bucket.resize(w);
      if (best == kNoBlock) {
        buckets_.erase(top);
        continue;
      }
      bucket.erase(std::find(bucket.begin(), bucket.end(), best));
      *key = top->first;
      if (bucket.empty()) buckets_.erase(top);
      return best;
    }
    return kNoBlock;
  }

  void apply(BlockId b, const Move& m) {
    const int p = binOf_[b];
    PortCounter& src = *bins_[p];
    const long long oldP = cost_->binCost(src.io(), src.memberCount());
    src.remove(b);
    total_ += cost_->binCost(src.io(), src.memberCount()) - oldP;
    if (src.memberCount() == 0) freeBins_.push_back(p);
    const int q = m.target == kDetach ? newBin() : m.target;
    PortCounter& dst = *bins_[q];
    const long long oldQ = cost_->binCost(dst.io(), dst.memberCount());
    dst.add(b);
    total_ += cost_->binCost(dst.io(), dst.memberCount()) - oldQ;
    binOf_[b] = q;
  }

  /// Re-files every unlocked block whose best gain the move may have
  /// changed: both touched bins' members plus the mover's neighbors.
  void refileAffected(BlockId b, int fromBin) {
    ++stamp2_;
    const auto touch = [&](BlockId x) {
      if (locked_[x] || blockStamp_[x] == stamp2_) return;
      blockStamp_[x] = stamp2_;
      file(x);
    };
    if (fromBin >= 0)
      bins_[fromBin]->members().forEach(
          [&](std::size_t x) { touch(static_cast<BlockId>(x)); });
    bins_[binOf_[b]]->members().forEach(
        [&](std::size_t x) { touch(static_cast<BlockId>(x)); });
    for (const CompactArc& a : graph_->inArcs(b))
      if (binOf_[a.neighbor] >= 0) touch(a.neighbor);
    for (const CompactArc& a : graph_->outArcs(b))
      if (binOf_[a.neighbor] >= 0) touch(a.neighbor);
  }

  /// Snapshot of the full assignment (every non-empty bin, singletons
  /// included) -- rollback-to-best-prefix reloads the cheapest one.
  std::vector<BitSet> snapshot() const {
    std::vector<BitSet> out;
    for (const auto& bin : bins_)
      if (bin && bin->memberCount() > 0) out.push_back(bin->members());
    return out;
  }

  bool pass() {
    if (blockStamp_.size() != graph_->blockCount())
      blockStamp_.assign(graph_->blockCount(), 0);
    std::fill(locked_.begin(), locked_.end(), 0);
    buckets_.clear();
    std::fill(entryGain_.begin(), entryGain_.end(), kNoEntry);
    for (const BlockId b : graph_->innerBlocks()) file(b);

    const long long startCost = total_;
    long long bestCost = total_;
    std::vector<BitSet> bestState = snapshot();
    while (true) {
      long long key = 0;
      const BlockId b = pop(&key);
      if (b == kNoBlock) break;
      const Move m = bestMove(b);
      if (!m.feasible) {
        entryGain_[b] = kNoEntry;
        continue;
      }
      if (m.gain != key) {  // stale: re-file at the fresh gain
        entryGain_[b] = m.gain;
        buckets_[m.gain].push_back(b);
        continue;
      }
      const int fromBin = binOf_[b];
      apply(b, m);
      locked_[b] = 1;
      entryGain_[b] = kNoEntry;
      if (total_ < bestCost) {
        bestCost = total_;
        bestState = snapshot();
      }
      refileAffected(b, fromBin);
    }
    // Roll back to the best prefix of the move sequence.
    load(bestState);
    return bestCost < startCost;
  }

  const CompactGraph* graph_;
  CountingMode mode_;
  const CostAdapter* cost_;
  std::vector<std::unique_ptr<PortCounter>> bins_;
  std::vector<int> freeBins_;
  std::vector<int> binOf_;
  long long total_ = 0;
  std::uint64_t probes_ = 0;
  // Pass state.
  std::map<long long, std::vector<BlockId>, std::greater<long long>> buckets_;
  std::vector<long long> entryGain_;
  std::vector<char> locked_;
  // Dedup stamps: per-bin for target collection, per-block for refiling.
  std::vector<std::uint32_t> binStamp_;
  std::uint32_t stamp_ = 0;
  std::vector<std::uint32_t> blockStamp_;
  std::uint32_t stamp2_ = 0;
  std::vector<int> targets_;
};

/// Loads `initial` into a refiner over `cost`, refines it, and returns
/// the refined bins of >= 2 members.
PartitionRun refineUnder(const PartitionProblem& problem,
                         const CostAdapter& cost, const Partitioning& initial,
                         const char* algorithm) {
  const auto start = std::chrono::steady_clock::now();
  Refiner refiner(problem, cost);
  refiner.load(initial.partitions);
  refiner.refine();
  PartitionRun run;
  run.algorithm = algorithm;
  run.result.partitions = refiner.partitions();
  run.explored = refiner.probes();
  run.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  return run;
}

}  // namespace

PartitionRun fmRefine(const PartitionProblem& problem,
                      const Partitioning& initial) {
  const ProgBlockSpec& spec = problem.spec();
  // W > any possible whole-solution port-sum, so #bins dominates.
  const long long w =
      static_cast<long long>(problem.innerCount() + 1) *
          (spec.inputs + spec.outputs) +
      1;
  return refineUnder(problem, PlainCost(spec, w), initial, "fm");
}

PartitionRun multiTypeFmRefine(const PartitionProblem& problem,
                               const ProgCostModel& model,
                               const Partitioning& initial) {
  const TypedCost cost(model, toMilliCosts(model, problem.innerCount()));
  PartitionRun run = refineUnder(problem, cost, initial, "multitype-fm");
  for (const BitSet& members : run.result.partitions)
    run.result.optionIndex.push_back(*cheapestFittingOption(
        countIo(problem.network(), members, problem.spec().mode), model));
  return run;
}

}  // namespace eblocks::partition
