#include "partition/exhaustive.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/deadline.h"
#include "partition/multitype.h"
#include "partition/port_counter.h"
#include "partition/validity.h"
#include "partition/verify.h"
#include "partition/work_steal.h"

namespace eblocks::partition {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::int16_t kUncovered = -1;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t packKey(int cost, std::uint32_t ordinal) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cost))
          << 32) |
         ordinal;
}

/// One open bin: the incremental port counter over its members plus the
/// members' irreducible connection counts.
struct Bin {
  Bin(const CompactGraph& graph, CountingMode mode, const BitSet* frozen)
      : counter(graph, mode, BorderTracking::kOff, frozen) {}
  PortCounter counter;
  int fixedIn = 0;   // irreducible inputs (edges from outside the universe)
  int fixedOut = 0;  // irreducible outputs (edges to outside the universe)
};

// The plain search (Section 4.1) and the multi-type search (Section 6)
// are one branch-and-bound kernel -- Worker and branchAndBound() below --
// instantiated on a compile-time cost policy.  A policy supplies, as
// inline non-virtual calls:
//   cost(bins, uncovered)     the baseline lower bound of a node;
//   blockCost(), binnable()   the terms of the unbinnable-suffix floor;
//   canJoin(), canOpen()      the per-child feasibility filter;
//   floorPrunes()             the admissible layer (pruningBound);
//   leafCost()                a leaf's cost, or nullopt when the leaf is
//                             invalid or not below the given bound.
// Both policies' costs are integers, so both searches share the packed
// (cost, DFS-ordinal) incumbent key and its deterministic tie-break.

/// The paper's objective: every bin and every uncovered block costs one
/// unit, and a bin is a valid partition when it has >= 2 members and fits
/// the port budget (plus the optional convexity requirement).
class PlainCost {
 public:
  PlainCost(const PartitionProblem& problem, const ExhaustiveOptions& options)
      : net_(&problem.network()),
        spec_(problem.spec()),
        edgesMode_(spec_.mode == CountingMode::kEdges),
        requireConvex_(options.requireConvex) {}

  int cost(std::size_t bins, int uncovered) const {
    return static_cast<int>(bins) + uncovered;
  }
  int blockCost() const { return 1; }
  bool binnable(const IoCount& own) const { return fits(own, spec_); }

  /// The irreducible-I/O child filter (edge counting only): a block's
  /// edges to blocks outside the universe can never be internalized, so
  /// a bin whose such I/O alone would exceed the budget leads to no valid
  /// leaf.
  bool canJoin(const Bin& bin, int in, int out) const {
    return !(edgesMode_ && (bin.fixedIn + in > spec_.inputs ||
                            bin.fixedOut + out > spec_.outputs));
  }
  bool canOpen(int in, int out) const {
    return !(edgesMode_ && (in > spec_.inputs || out > spec_.outputs));
  }

  /// Remaining unbinnable blocks each add +1 to any valid completion,
  /// and a bin whose irreducible I/O already overflows admits no valid
  /// completion at all.
  template <typename Prunes>
  bool floorPrunes(const Bin* bins, std::size_t binCount, int costSoFar,
                   int /*uncovered*/, int floor, Prunes&& prunes) const {
    if (floor > 0 && prunes(costSoFar + floor)) return true;
    for (std::size_t j = 0; j < binCount; ++j)
      if (!fits(bins[j].counter.fixedIo(), spec_)) return true;
    return false;
  }

  std::optional<int> leafCost(const Bin* bins, std::size_t binCount,
                              int uncovered, int bound,
                              std::vector<int>& /*chosen*/) const {
    const int total = cost(binCount, uncovered);
    if (total >= bound) return std::nullopt;
    for (std::size_t j = 0; j < binCount; ++j) {
      const PortCounter& bin = bins[j].counter;
      if (bin.memberCount() < 2)
        return std::nullopt;  // single-node partitions are invalid
      if (!fits(bin.io(), spec_)) return std::nullopt;
      if (requireConvex_ && !isConvex(*net_, bin.members()))
        return std::nullopt;
    }
    return total;
  }

 private:
  const Network* net_;
  ProgBlockSpec spec_;
  bool edgesMode_;
  bool requireConvex_;
};

/// Section 6's cost model in exact milli-units (toMilliCosts): a bin
/// costs its cheapest fitting option, an uncovered block
/// preDefinedBlockCost.  Every child is feasible; a leaf is valid when
/// each bin fits some option.
class TypedCost {
 public:
  TypedCost(const ProgCostModel& model, MilliCostModel milli)
      : model_(&model), milli_(std::move(milli)) {
    if (!milli_.optionCost.empty())
      minOption_ = *std::min_element(milli_.optionCost.begin(),
                                     milli_.optionCost.end());
  }

  int cost(std::size_t bins, int uncovered) const {
    return static_cast<int>(bins) * minOption_ +
           milli_.preDefinedBlockCost * uncovered;
  }
  int blockCost() const { return milli_.preDefinedBlockCost; }
  bool binnable(const IoCount& own) const {
    return cheapestFittingOption(own, *model_).has_value();
  }
  bool canJoin(const Bin&, int, int) const { return true; }
  bool canOpen(int, int) const { return true; }

  /// Each bin's final option must fit its irreducible I/O, so the
  /// cheapest such option floors the bin's cost (none fitting kills the
  /// subtree outright); remaining unbinnable blocks add `floor`.
  template <typename Prunes>
  bool floorPrunes(const Bin* bins, std::size_t binCount, int /*costSoFar*/,
                   int uncovered, int floor, Prunes&& prunes) const {
    int bound = milli_.preDefinedBlockCost * uncovered + floor;
    for (std::size_t j = 0; j < binCount; ++j) {
      const auto option =
          cheapestFittingOption(bins[j].counter.fixedIo(), *model_);
      if (!option) return true;
      bound += milli_.optionCost[static_cast<std::size_t>(*option)];
    }
    return prunes(bound);
  }

  std::optional<int> leafCost(const Bin* bins, std::size_t binCount,
                              int uncovered, int bound,
                              std::vector<int>& chosen) const {
    int total = milli_.preDefinedBlockCost * uncovered;
    chosen.clear();
    for (std::size_t j = 0; j < binCount; ++j) {
      const auto option =
          cheapestFittingOption(bins[j].counter.io(), *model_);
      if (!option) return std::nullopt;  // some bin fits no block type
      chosen.push_back(*option);
      total += milli_.optionCost[static_cast<std::size_t>(*option)];
    }
    if (total >= bound) return std::nullopt;
    return total;
  }

 private:
  const ProgCostModel* model_;
  MilliCostModel milli_;
  int minOption_ = 0;  // no options: bins price at zero (and never fit)
};

/// Immutable per-search configuration shared by every worker.
template <typename Policy>
struct SearchContext {
  SearchContext(Policy p, const PartitionProblem& problem,
                const ExhaustiveOptions& o)
      : policy(std::move(p)),
        graph(problem.graph()),
        mode(problem.spec().mode),
        inner(problem.innerBlocks()),
        options(o),
        deadline(deadlineAfter(o.timeLimitSeconds)) {
    // Pre-compute each universe block's irreducible connection counts
    // (edges to blocks outside the universe can never be internalized),
    // indexed by the block's dense inner rank -- the search always knows
    // the rank (its depth), so no per-block-id table is needed.
    fixedIn.resize(inner.size(), 0);
    fixedOut.resize(inner.size(), 0);
    for (std::size_t i = 0; i < inner.size(); ++i) {
      const IoCount edges =
          irreducibleBlockIo(graph, inner[i], CountingMode::kEdges);
      fixedIn[i] = edges.inputs;
      fixedOut[i] = edges.outputs;
    }
    if (o.pruningBound) {
      // The admissible-bound layer's static half: the frozen-set root
      // (blocks outside the universe can never join any bin) and the
      // unbinnable suffix floor -- a block whose own mode-aware
      // irreducible I/O fits no bin stays uncovered in every valid
      // completion, paying the policy's uncovered-block cost.
      baseFrozen = graph.nonInnerSet();
      suffixFloor.assign(inner.size() + 1, 0);
      for (std::size_t i = inner.size(); i-- > 0;) {
        const IoCount own = irreducibleBlockIo(graph, inner[i], mode);
        suffixFloor[i] = suffixFloor[i + 1] +
                         (policy.binnable(own) ? 0 : policy.blockCost());
      }
    }
  }

  const Policy policy;
  const CompactGraph& graph;
  CountingMode mode;
  const std::vector<BlockId>& inner;
  const ExhaustiveOptions& options;
  // Irreducible in/out connection counts per *inner rank* (not block id).
  std::vector<int> fixedIn, fixedOut;
  // pruningBound statics (empty / unused when the layer is off).
  std::vector<int> suffixFloor;
  BitSet baseFrozen;
  /// Strict cost bound from the initial incumbent: nodes at or above it
  /// prune (see branchAndBound).
  int initialBound = 0;
  Clock::time_point deadline;
};

/// One unit of parallel work: the assignment of the first `choice.size()`
/// inner blocks (kUncovered, a bin index, or the number of bins open so
/// far meaning "open a new bin"), plus the half-open DFS-ordinal range
/// [ordLo, ordHi) owned by the subtree.
///
/// Ordinals realize the deterministic tie-break: the serial DFS visits
/// subtrees in ordinal order, every leaf reached inside a task carries an
/// ordinal from the task's range, and ranges of distinct tasks are
/// disjoint -- so "earlier in serial DFS order" is exactly "smaller
/// ordinal", no matter which worker runs the subtree or when.  When a
/// range becomes too narrow to subdivide, the whole remaining subtree
/// shares ordLo and runs inline on one worker, whose in-order DFS settles
/// the remaining ties.
struct Task {
  std::vector<std::int16_t> choice;
  std::uint32_t ordLo = 1;
  std::uint32_t ordHi = std::numeric_limits<std::uint32_t>::max();
};

/// Mutable state shared across workers.
///
/// The incumbent is a packed (cost, DFS-ordinal) pair: ordinal 0 is the
/// initial "replace nothing" baseline.  A node with ordinal o prunes iff
/// ((costSoFar << 32) | o) >= liveKey, which is exactly the
/// lexicographic rule "worse cost, or equal cost but not earlier in
/// serial DFS order".  This keeps the subtree containing the serial
/// winner alive while still pruning equal-cost subtrees behind it, so
/// the parallel result is bit-identical to the serial one.
struct SharedState {
  std::atomic<std::uint64_t> liveKey{0};
  std::atomic<bool> timedOut{false};
  /// Nodes charged against ExhaustiveOptions::nodeBudget, in 4096-node
  /// granules (workers charge a granule each time their periodic check
  /// fires, so the counter lags explored_ by at most one granule per
  /// worker).
  std::atomic<std::uint64_t> budgetUsed{0};
};

/// Depth-first branch-and-bound below one task's prefix.  One instance
/// per worker thread; reused across tasks.  Accumulates the worker's best
/// solution as a packed (cost, ordinal) key plus partitioning; the final
/// reduction takes the smallest key over all workers.
template <typename Policy>
class Worker {
 public:
  Worker(const SearchContext<Policy>& ctx, SharedState& shared,
         detail::WorkStealingPool<Task>* pool, int workerId)
      : ctx_(ctx),
        shared_(shared),
        pool_(pool),
        workerId_(workerId),
        pruning_(ctx.options.pruningBound),
        frozen_(ctx.baseFrozen),
        owner_(ctx.graph.blockCount(), kUncovered),
        bestKey_(packKey(ctx.initialBound, 0)) {
    bins_.reserve(ctx.inner.size() + 1);
    choice_.reserve(ctx.inner.size());
  }

  void runTask(const Task& task) {
    localBest_ = ctx_.initialBound;
    resetBins();
    choice_ = task.choice;  // copy into retained capacity
    int uncovered = 0;
    for (std::size_t i = 0; i < task.choice.size(); ++i) {
      const std::int16_t c = task.choice[i];
      if (c == kUncovered) {
        ++uncovered;
      } else {
        if (static_cast<std::size_t>(c) == binCount_) openBin();
        addToBin(static_cast<std::size_t>(c), i);
      }
      if (pruning_) freezeAssigned(ctx_.inner[i], c);
    }
    dfs(task.choice.size(), uncovered, task.ordLo, task.ordHi);
  }

  /// A recycled task frame for the next push: its choice vector keeps
  /// the capacity it grew while circulating through the pool, so
  /// steady-state splits copy into existing storage instead of
  /// allocating.  Frames come back via recycleFrame() after execution.
  Task takeFrame() {
    if (frames_.empty()) return {};
    Task t = std::move(frames_.back());
    frames_.pop_back();
    return t;
  }
  void recycleFrame(Task&& t) { frames_.push_back(std::move(t)); }

  std::uint64_t explored() const { return explored_; }
  std::uint64_t pruned() const { return pruned_; }
  std::uint64_t bestKey() const { return bestKey_; }
  Partitioning takeBest() { return std::move(best_); }

 private:
  void resetBins() {
    for (std::size_t j = 0; j < binCount_; ++j) {
      bins_[j].counter.clear();
      bins_[j].fixedIn = 0;
      bins_[j].fixedOut = 0;
    }
    binCount_ = 0;
    std::fill(owner_.begin(), owner_.end(), kUncovered);
    if (pruning_) frozen_ = ctx_.baseFrozen;
  }

  void openBin() {
    if (binCount_ == bins_.size())
      bins_.emplace_back(ctx_.graph, ctx_.mode, pruning_ ? &frozen_ : nullptr);
    ++binCount_;
  }

  /// Marks just-assigned block `b` frozen (its fate is fixed for the
  /// whole subtree) and walks its arcs once: every arc whose far end
  /// sits in another open bin just became an irreducible output
  /// (u -> b) or input (b -> v) of that bin.  `own` is the bin `b`
  /// joined, kUncovered when left uncovered.  O(degree(b)).
  void freezeAssigned(BlockId b, std::int16_t own) {
    frozen_.set(b);
    for (const CompactArc& a : ctx_.graph.inArcs(b)) {
      const std::int16_t k = owner_[a.neighbor];
      if (k != kUncovered && k != own)
        bins_[static_cast<std::size_t>(k)].counter.freezeOutput(a);
    }
    for (const CompactArc& a : ctx_.graph.outArcs(b)) {
      const std::int16_t k = owner_[a.neighbor];
      if (k != kUncovered && k != own)
        bins_[static_cast<std::size_t>(k)].counter.freezeInput(a);
    }
  }

  void unfreezeAssigned(BlockId b, std::int16_t own) {
    for (const CompactArc& a : ctx_.graph.inArcs(b)) {
      const std::int16_t k = owner_[a.neighbor];
      if (k != kUncovered && k != own)
        bins_[static_cast<std::size_t>(k)].counter.unfreezeOutput(a);
    }
    for (const CompactArc& a : ctx_.graph.outArcs(b)) {
      const std::int16_t k = owner_[a.neighbor];
      if (k != kUncovered && k != own)
        bins_[static_cast<std::size_t>(k)].counter.unfreezeInput(a);
    }
    frozen_.reset(b);
  }

  // Bin updates take the block's dense inner rank `i` (the search
  // depth); the fixed-I/O tables are rank-indexed.
  void addToBin(std::size_t j, std::size_t i) {
    bins_[j].counter.add(ctx_.inner[i]);
    bins_[j].fixedIn += ctx_.fixedIn[i];
    bins_[j].fixedOut += ctx_.fixedOut[i];
    owner_[ctx_.inner[i]] = static_cast<std::int16_t>(j);
  }

  void removeFromBin(std::size_t j, std::size_t i) {
    owner_[ctx_.inner[i]] = kUncovered;
    bins_[j].fixedOut -= ctx_.fixedOut[i];
    bins_[j].fixedIn -= ctx_.fixedIn[i];
    bins_[j].counter.remove(ctx_.inner[i]);
  }

  bool canJoin(std::size_t j, std::size_t i) const {
    return ctx_.policy.canJoin(bins_[j], ctx_.fixedIn[i], ctx_.fixedOut[i]);
  }

  bool timeExpired() {
    if (aborted_) return true;
    if ((explored_ & 0xfff) == 0) {
      if (ctx_.options.progressNodes)
        ctx_.options.progressNodes->fetch_add(0x1000,
                                              std::memory_order_relaxed);
      if (shared_.timedOut.load(std::memory_order_relaxed)) {
        aborted_ = true;
      } else if (Clock::now() > ctx_.deadline ||
                 (ctx_.options.cancel &&
                  ctx_.options.cancel->load(std::memory_order_relaxed))) {
        shared_.timedOut.store(true, std::memory_order_relaxed);
        aborted_ = true;
      } else if (ctx_.options.nodeBudget != 0 &&
                 shared_.budgetUsed.fetch_add(
                     0x1000, std::memory_order_relaxed) +
                         0x1000 >=
                     ctx_.options.nodeBudget) {
        shared_.timedOut.store(true, std::memory_order_relaxed);
        aborted_ = true;
      }
    }
    return aborted_;
  }

  bool boundPrunes(int costSoFar, std::uint32_t lo) const {
    if (costSoFar >= localBest_) return true;
    return packKey(costSoFar, lo) >=
           shared_.liveKey.load(std::memory_order_relaxed);
  }

  void dfs(std::size_t idx, int uncovered, std::uint32_t lo,
           std::uint32_t hi) {
    ++explored_;
    if (timeExpired()) return;
    // Lower bound on the final cost: every open bin stays a bin, every
    // uncovered block stays uncovered.
    const int costSoFar = ctx_.policy.cost(binCount_, uncovered);
    if (boundPrunes(costSoFar, lo)) return;
    // The admissible layer, counted as a pruned subtree only here, where
    // the baseline bound above did not already cut the node.
    if (pruning_ &&
        ctx_.policy.floorPrunes(
            bins_.data(), binCount_, costSoFar, uncovered,
            ctx_.suffixFloor[idx],
            [&](int bound) { return boundPrunes(bound, lo); })) {
      ++pruned_;
      return;
    }
    if (idx == ctx_.inner.size()) {
      finish(uncovered, lo);
      return;
    }
    const BlockId b = ctx_.inner[idx];
    // Children, in serial DFS order: join each feasible open bin, open a
    // new bin (all empty bins are interchangeable, so a single branch
    // suffices -- the paper's symmetry pruning), leave uncovered.
    const std::size_t openBins = binCount_;
    const bool newBin =
        ctx_.policy.canOpen(ctx_.fixedIn[idx], ctx_.fixedOut[idx]);
    // Ordinal ranges are split only where a child could be offloaded
    // (parallel pool present, subtree above the leaf margin): everywhere
    // else -- the serial search, and the leaf region that dominates node
    // counts -- children inherit [lo, hi) wholesale and the within-task
    // DFS order settles ties, sparing the hot path the child-count scan
    // and the split arithmetic.
    std::optional<detail::RangeSplitter> ranges;
    if (pool_ != nullptr && ctx_.inner.size() - idx > detail::kLeafMargin) {
      std::size_t k = 1;  // "leave uncovered" is always a child
      for (std::size_t j = 0; j < openBins; ++j)
        if (canJoin(j, idx)) ++k;
      if (newBin) ++k;
      ranges.emplace(lo, hi, k);
    }
    // A child subtree is offloaded to the pool instead of recursed into
    // when peers are starved -- except the first child, which this worker
    // always walks itself (guaranteed progress, and the earliest ordinals
    // stay on the worker that already holds the bins).
    const bool offloadable = ranges && ranges->offloadable();
    bool firstChild = true;
    // Visits child `c` with its ordinal slice: either inline (apply the
    // choice, recurse, undo) or as a pushed task built in a recycled
    // frame (no allocation once frame capacities have warmed up).
    const auto visit = [&](std::int16_t c, int childUncovered,
                           auto&& apply, auto&& undo) {
      std::uint32_t clo = lo, chi = hi;
      if (ranges) std::tie(clo, chi) = ranges->next();
      const bool inlineChild = firstChild;
      firstChild = false;
      if (!inlineChild && offloadable && pool_->hungry() > 0 &&
          pool_->queueDepth(workerId_) < detail::kMaxLocalBacklog) {
        Task t = takeFrame();
        t.choice = choice_;
        t.choice.push_back(c);
        t.ordLo = clo;
        t.ordHi = chi;
        pool_->push(workerId_, std::move(t));
        return;
      }
      apply();
      choice_.push_back(c);
      dfs(idx + 1, childUncovered, clo, chi);
      choice_.pop_back();
      undo();
    };
    for (std::size_t j = 0; j < openBins; ++j) {
      if (!canJoin(j, idx)) continue;
      const auto c = static_cast<std::int16_t>(j);
      visit(c, uncovered,
            [&] {
              addToBin(j, idx);
              if (pruning_) freezeAssigned(b, c);
            },
            [&] {
              if (pruning_) unfreezeAssigned(b, c);
              removeFromBin(j, idx);
            });
    }
    if (newBin) {
      const auto c = static_cast<std::int16_t>(openBins);
      visit(c, uncovered,
            [&] {
              openBin();
              addToBin(openBins, idx);
              if (pruning_) freezeAssigned(b, c);
            },
            [&] {
              if (pruning_) unfreezeAssigned(b, c);
              removeFromBin(openBins, idx);
              --binCount_;
            });
    }
    visit(kUncovered, uncovered + 1,
          [&] {
            if (pruning_) freezeAssigned(b, kUncovered);
          },
          [&] {
            if (pruning_) unfreezeAssigned(b, kUncovered);
          });
  }

  void finish(int uncovered, std::uint32_t lo) {
    // Tie handling: within a task only strict cost improvements pass
    // (leafCost rejects cost >= localBest_), so the first optimum found
    // in DFS order is kept; across tasks the packed (cost, ordinal) key
    // decides.
    const std::optional<int> cost = ctx_.policy.leafCost(
        bins_.data(), binCount_, uncovered, localBest_, chosen_);
    if (!cost) return;
    localBest_ = *cost;
    const std::uint64_t key = packKey(*cost, lo);
    if (key < bestKey_) {
      bestKey_ = key;
      best_.partitions.clear();
      for (std::size_t j = 0; j < binCount_; ++j)
        best_.partitions.push_back(bins_[j].counter.members());
      best_.optionIndex = chosen_;
    }
    // Publish to the shared incumbent (monotone lexicographic minimum).
    std::uint64_t cur = shared_.liveKey.load(std::memory_order_relaxed);
    while (key < cur && !shared_.liveKey.compare_exchange_weak(
                            cur, key, std::memory_order_relaxed)) {
    }
  }

  const SearchContext<Policy>& ctx_;
  SharedState& shared_;
  detail::WorkStealingPool<Task>* pool_;  // null = no splitting (serial)
  int workerId_ = 0;
  bool pruning_ = false;
  BitSet frozen_;  // non-inner + assigned prefix; bins point at this
  // The open bin holding each block id, kUncovered when in none: lets
  // freezeAssigned() notify only the bins that border the block.
  std::vector<std::int16_t> owner_;
  std::vector<Bin> bins_;  // pool; the first binCount_ entries are live
  std::size_t binCount_ = 0;
  std::vector<std::int16_t> choice_;  // live assignment of blocks [0, idx)
  std::vector<Task> frames_;  // recycled task frames (see takeFrame)
  std::vector<int> chosen_;   // leafCost scratch: the option per bin
  int localBest_ = 0;
  std::uint64_t bestKey_;
  Partitioning best_;
  std::uint64_t explored_ = 0;
  std::uint64_t pruned_ = 0;
  bool aborted_ = false;
};

/// Runs the kernel from the "replace nothing" incumbent `baseline`,
/// improved by a verified `seed` of cost `seedCost` when that is cheaper.
///
/// The baseline sits at ordinal 0 with strict bound `baseline`, so
/// unseeded node counts are those of the plain serial search.  A seed is
/// installed at ordinal UINT32_MAX -- lexicographically *behind* every
/// real DFS node of equal cost -- with strict bound seedCost + 1, so the
/// search still rediscovers and returns the canonical (first in serial
/// DFS order) optimum whenever the seed merely ties it: the result stays
/// bit-identical to the unseeded search's.
template <typename Policy>
PartitionRun branchAndBound(SearchContext<Policy>& ctx, int baseline,
                            const Partitioning* seed, int seedCost) {
  int bestCost = baseline;
  std::uint32_t bestOrdinal = 0;
  Partitioning best;
  ctx.initialBound = baseline;
  if (seed && seedCost < baseline) {
    bestCost = seedCost;
    bestOrdinal = std::numeric_limits<std::uint32_t>::max();
    best = *seed;
    ctx.initialBound = seedCost + 1;
  }
  SharedState shared;
  shared.liveKey.store(packKey(bestCost, bestOrdinal),
                       std::memory_order_relaxed);

  // Work-stealing: seed the pool with the whole tree as one task owning
  // the full ordinal range; workers split subtrees on demand when peers
  // are starved and steal half a victim's deque when their own is dry.
  const int workerCount =
      ctx.inner.size() >= 2 ? resolveSearchThreads(ctx.options.threads) : 1;
  detail::WorkStealingPool<Task> taskPool(workerCount);
  taskPool.push(0, Task{});
  std::vector<std::unique_ptr<Worker<Policy>>> workers(
      static_cast<std::size_t>(workerCount));
  detail::runOnWorkers(workerCount, [&](int w) {
    auto worker = std::make_unique<Worker<Policy>>(
        ctx, shared, workerCount > 1 ? &taskPool : nullptr, w);
    Task task;
    while (taskPool.acquire(w, task, shared.timedOut)) {
      worker->runTask(task);
      taskPool.release();
      // The executed frame's buffer feeds this worker's future splits.
      worker->recycleFrame(std::move(task));
    }
    workers[static_cast<std::size_t>(w)] = std::move(worker);
  });

  // Deterministic reduction: every worker accumulated its best solution
  // as a packed (cost, DFS-ordinal) key; the smallest key over all
  // workers -- against the initial incumbent -- reproduces the serial
  // result bit for bit.
  PartitionRun out;
  std::uint64_t bestKey = packKey(bestCost, bestOrdinal);
  for (const auto& worker : workers) {
    out.explored += worker->explored();
    out.pruned += worker->pruned();
    if (worker->bestKey() < bestKey) {
      bestKey = worker->bestKey();
      best = worker->takeBest();
    }
    if (workers.size() > 1) {
      out.workerExplored.push_back(worker->explored());
      out.workerPruned.push_back(worker->pruned());
    }
  }
  out.result = std::move(best);
  out.timedOut = shared.timedOut.load(std::memory_order_relaxed);
  out.optimal = !out.timedOut;
  return out;
}

}  // namespace

int resolveSearchThreads(int threads) {
  if (threads > 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

PartitionRun exhaustiveSearch(const PartitionProblem& problem,
                              const ExhaustiveOptions& options) {
  const auto start = Clock::now();
  SearchContext<PlainCost> ctx(PlainCost(problem, options), problem,
                               options);

  // Trust but verify: only use a seed that is actually feasible -- every
  // partition valid on its own AND all pairwise disjoint (overlap would
  // understate totalAfter and over-tighten the bound) -- and carries no
  // option choices, which the plain problem does not have.
  const bool seeded =
      options.seed &&
      verifyPartitioning(problem, *options.seed,
                         {.requireConvex = options.requireConvex})
          .empty();
  const int n = problem.innerCount();
  PartitionRun out =
      branchAndBound(ctx, n, seeded ? &*options.seed : nullptr,
                     seeded ? options.seed->totalAfter(n) : 0);
  out.algorithm = "exhaustive";
  out.seconds = secondsSince(start);
  return out;
}

PartitionRun multiTypeExhaustive(const PartitionProblem& problem,
                                 const ProgCostModel& model,
                                 const ExhaustiveOptions& options) {
  const auto start = Clock::now();
  const int n = problem.innerCount();
  const MilliCostModel milli = toMilliCosts(model, n);
  SearchContext<TypedCost> ctx(TypedCost(model, milli), problem, options);

  const bool seeded =
      options.seed &&
      verifyPartitioning(problem, model, *options.seed).empty();
  PartitionRun out = branchAndBound(
      ctx, milli.preDefinedBlockCost * n,
      seeded ? &*options.seed : nullptr,
      seeded ? milli.totalCost(*options.seed, n) : 0);
  // A leaf prices each bin at its cheapest fitting option, even one that
  // costs more than the blocks it replaces.  An optimum never holds such
  // a bin, but a search stopped by its time limit or node budget can
  // return one, and the verifier rejects it.  Leaving its blocks
  // uncovered instead only lowers the cost, so the incumbent's price was
  // a sound bound all along; the returned partitioning is the valid one.
  Partitioning& p = out.result;
  std::size_t kept = 0;
  for (std::size_t k = 0; k < p.partitions.size(); ++k) {
    const int price = milli.optionCost[static_cast<std::size_t>(
        p.optionIndex[k])];
    if (price > milli.preDefinedBlockCost *
                    static_cast<int>(p.partitions[k].count()))
      continue;
    std::swap(p.partitions[kept], p.partitions[k]);
    p.optionIndex[kept++] = p.optionIndex[k];
  }
  p.partitions.resize(kept);
  p.optionIndex.resize(kept);
  out.algorithm = "multitype-exhaustive";
  out.seconds = secondsSince(start);
  return out;
}

}  // namespace eblocks::partition
