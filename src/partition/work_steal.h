// Work-stealing task pool and subtree-splitting helpers behind the
// parallel branch-and-bound kernel (exhaustive.cpp), which runs both the
// plain and the multi-type search.
//
// Design: one deque of tasks per worker.  A worker pushes and pops at the
// *back* of its own deque (LIFO keeps it close to serial DFS order, which
// finds strong incumbents early); a starved worker steals the front
// *half* of a victim's deque (the oldest entries are the shallowest --
// and therefore largest -- subtrees, so one steal buys a long stretch of
// independent work).  Workers signal starvation through a shared counter;
// the search consults hungry() while walking a subtree and peels off
// stealable child tasks only when somebody is actually starved, so a
// single-threaded or well-balanced run degenerates to plain DFS with no
// task traffic at all.
//
// Deques are mutex-per-worker rather than lock-free: steals and splits
// are rare next to the millions of search nodes between them, and the
// mutexes keep the pool trivially correct under ASan/TSan.  Termination
// uses an in-flight task count -- tasks are counted when pushed and
// released when fully executed, so when the count reaches zero every
// deque is empty and no worker holds work.  Starved workers park on a
// condition variable (with a short timeout as a lost-wakeup backstop)
// instead of spinning, so the unsplittable tail of a search does not
// burn the idle cores.
//
// The pool moves *tasks*, not results: determinism is the callers' job
// (each task carries a DFS-ordinal range split with RangeSplitter; see
// docs/partitioning.md for the tie-break argument).
#ifndef EBLOCKS_PARTITION_WORK_STEAL_H_
#define EBLOCKS_PARTITION_WORK_STEAL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace eblocks::partition::detail {

// Shared splitting granularity.  A subtree is only split into stealable
// tasks while it is at least kLeafMargin levels above the leaves
// (smaller subtrees finish faster than a steal round-trip), while every
// child can receive an ordinal range at least kMinSplitWidth wide (once
// ranges run dry, the subtree runs inline under one ordinal and the
// within-task DFS order settles ties), and only while the worker's own
// deque holds fewer than kMaxLocalBacklog unstolen tasks (starved peers
// just have not stolen them yet; fragmenting further only adds overhead,
// acute on oversubscribed machines where "starved" workers are merely
// descheduled).
constexpr std::size_t kLeafMargin = 6;
constexpr std::uint32_t kMinSplitWidth = 64;
constexpr std::size_t kMaxLocalBacklog = 16;

/// Splits a subtree's half-open ordinal range [lo, hi) into k
/// consecutive child subranges in DFS order -- the arithmetic behind the
/// deterministic tie-break.  When the range is too narrow to give every child a
/// non-empty slice (width < k), splitting is off: every child inherits
/// the parent range, shares its lo, and must run inline on one worker.
class RangeSplitter {
 public:
  RangeSplitter(std::uint32_t lo, std::uint32_t hi, std::size_t k)
      : lo_(lo),
        hi_(hi),
        split_(hi - lo >= static_cast<std::uint32_t>(k)),
        base_(split_ ? (hi - lo) / static_cast<std::uint32_t>(k) : 0),
        extra_(split_ ? (hi - lo) % static_cast<std::uint32_t>(k) : 0),
        cursor_(lo) {}

  /// True when children received disjoint ranges (offloading is sound)
  /// and every child's slice is at least kMinSplitWidth wide (offloading
  /// is worthwhile).
  bool offloadable() const { return split_ && base_ >= kMinSplitWidth; }

  /// The next child's range; call exactly once per child, in DFS order.
  std::pair<std::uint32_t, std::uint32_t> next() {
    if (!split_) return {lo_, hi_};
    const std::uint32_t clo = cursor_;
    const std::uint32_t chi =
        cursor_ + base_ + (index_++ < extra_ ? 1u : 0u);
    cursor_ = chi;
    return {clo, chi};
  }

 private:
  std::uint32_t lo_, hi_;
  bool split_;
  std::uint32_t base_, extra_;
  std::uint32_t cursor_;
  std::uint32_t index_ = 0;
};

/// Runs fn(0..workerCount-1) on workerCount threads (worker 0 on the
/// calling thread) and joins.
template <typename Fn>
void runOnWorkers(int workerCount, Fn&& fn) {
  if (workerCount <= 1) {
    fn(0);
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workerCount) - 1);
  for (int t = 1; t < workerCount; ++t) pool.emplace_back(fn, t);
  fn(0);
  for (std::thread& th : pool) th.join();
}

template <typename Task>
class WorkStealingPool {
 public:
  explicit WorkStealingPool(int workers)
      : slots_(static_cast<std::size_t>(workers)) {}

  int workers() const { return static_cast<int>(slots_.size()); }

  /// Number of workers currently failing to find work.  The search
  /// checks this (relaxed) to decide whether to split its current subtree.
  int hungry() const { return hungry_.load(std::memory_order_relaxed); }

  /// Current size of worker w's own deque (the kMaxLocalBacklog gate).
  std::size_t queueDepth(int w) {
    Slot& slot = slots_[static_cast<std::size_t>(w)];
    const std::lock_guard<std::mutex> lock(slot.mutex);
    return slot.queue.size();
  }

  /// Makes `task` stealable.  Called by worker `w` for its own deque --
  /// including the initial seeding of the root task.
  void push(int w, Task&& task) {
    inFlight_.fetch_add(1, std::memory_order_relaxed);
    Slot& slot = slots_[static_cast<std::size_t>(w)];
    {
      const std::lock_guard<std::mutex> lock(slot.mutex);
      slot.queue.push_back(std::move(task));
    }
    idleCv_.notify_all();
  }

  /// Releases one task obtained from acquire() after it has been fully
  /// executed (or deliberately abandoned, e.g. on timeout).
  void release() {
    if (inFlight_.fetch_sub(1, std::memory_order_acq_rel) == 1)
      idleCv_.notify_all();  // drained: wake everyone to terminate
  }

  /// Blocks until a task is available (true) or the pool is drained /
  /// `stop` is set (false).  Every successful acquire() must be paired
  /// with exactly one release().
  bool acquire(int w, Task& out, const std::atomic<bool>& stop) {
    if (popOwn(w, out)) return true;
    hungry_.fetch_add(1, std::memory_order_relaxed);
    for (;;) {
      if (stop.load(std::memory_order_relaxed)) break;
      if (popOwn(w, out) || (stealInto(w) && popOwn(w, out))) {
        hungry_.fetch_sub(1, std::memory_order_relaxed);
        return true;
      }
      // All deques empty *and* nothing executing: the search is complete.
      if (inFlight_.load(std::memory_order_acquire) == 0) break;
      // Park until work is pushed or the pool drains.  The timeout
      // bounds the stall if a push slips between the scan above and the
      // wait, and doubles as the stop-flag poll interval.
      std::unique_lock<std::mutex> lock(idleMutex_);
      idleCv_.wait_for(lock, std::chrono::milliseconds(1));
    }
    hungry_.fetch_sub(1, std::memory_order_relaxed);
    return false;
  }

 private:
  struct Slot {
    std::mutex mutex;
    std::deque<Task> queue;
  };

  bool popOwn(int w, Task& out) {
    Slot& slot = slots_[static_cast<std::size_t>(w)];
    const std::lock_guard<std::mutex> lock(slot.mutex);
    if (slot.queue.empty()) return false;
    out = std::move(slot.queue.back());
    slot.queue.pop_back();
    return true;
  }

  /// Steals the front half of the first non-empty victim deque into w's
  /// own deque.  Stolen tasks are re-pushed in reverse so the thief pops
  /// them oldest-first (closest to serial DFS order).  The loot buffer
  /// is thread-local so repeated steals reuse its capacity instead of
  /// allocating (two locks are never held at once, so the transfer must
  /// stage through a buffer).
  bool stealInto(int w) {
    const std::size_t n = slots_.size();
    static thread_local std::vector<Task> lootBuffer;
    std::vector<Task>& loot = lootBuffer;
    loot.clear();
    for (std::size_t step = 1; step < n && loot.empty(); ++step) {
      Slot& victim =
          slots_[(static_cast<std::size_t>(w) + step) % n];
      const std::lock_guard<std::mutex> lock(victim.mutex);
      const std::size_t take = (victim.queue.size() + 1) / 2;
      for (std::size_t i = 0; i < take; ++i) {
        loot.push_back(std::move(victim.queue.front()));
        victim.queue.pop_front();
      }
    }
    if (loot.empty()) return false;
    Slot& own = slots_[static_cast<std::size_t>(w)];
    const std::lock_guard<std::mutex> lock(own.mutex);
    for (auto it = loot.rbegin(); it != loot.rend(); ++it)
      own.queue.push_back(std::move(*it));
    return true;
  }

  std::vector<Slot> slots_;
  std::atomic<long> inFlight_{0};
  std::atomic<int> hungry_{0};
  std::mutex idleMutex_;
  std::condition_variable idleCv_;
};

}  // namespace eblocks::partition::detail

#endif  // EBLOCKS_PARTITION_WORK_STEAL_H_
