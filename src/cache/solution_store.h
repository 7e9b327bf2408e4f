// The persistent, content-addressed solution cache.
//
// Repeated synthesis traffic becomes a lookup: every completed,
// deterministic partitioning run is stored under its canonical key
// (cache/canonical_hash.h), so a request for the same design -- or an
// isomorphic/renamed variant of it -- returns the stored PartitionRun
// instead of re-running the search.  A request that keeps the stored
// declaration order gets exactly what a fresh run would return; a
// reordered copy gets the stored run carried over by canonical position
// and verified -- a valid partitioning with the stored block count,
// though a heuristic's fresh run on the copy may break ties differently.
// A *near miss* (same structure, looser port budget) contributes its
// solution as a warm-start incumbent that the exact search uses as a
// pure pruning accelerator (EngineOptions::initialIncumbent --
// bit-identical results, fewer explored nodes).  synth::synthesize()
// drives both paths through SynthOptions::cache; the shell's `cache`
// command manages a store interactively.
//
// Store layout: one io/binary.h frame per record (SectionTag::
// kSolutionRecord) in a flat directory, named `<solution-key-hex>.eblk`.
// Each record holds the spec/options needed for near-miss compatibility
// checks and the full PartitionRun with every partition kept by
// *canonical position* (a member's index in canonicalForm(net).order),
// so it names no block id and needs no copy of the network: a hit maps
// positions onto the request through the request's own canonical order
// and *verifies* the result before it is trusted.  An in-memory index
// built by scanning the directory at construction serves lookups; writes go
// through a temp file plus atomic rename, so concurrent readers (and
// crashed writers) never observe a half-written record.  Records whose
// frames fail to validate -- truncation, bit rot, version skew -- are
// counted, dropped, and treated as misses, never trusted and never
// fatal; so are records of an older layout, whose keys (the layout
// revision is folded into solutionKey) no longer match their file
// names.  A byte-budget LRU cap (StoreOptions::maxBytes) bounds what the
// store holds; least-recently-used records are deleted first.
//
// One index serves both paths: an ordered map keyed by value on
// (structure hash, options fingerprint).  A lookup finds its key; the
// key range of one structure is that design's set of near-miss
// candidates.  Each record costs the index one map node and one
// recency-list node, and the budget charges a record those nodes plus
// its encoded bytes, so maxBytes bounds the heap an in-memory store
// holds (docs/caching.md has the measured figures).
//
// Every public method is thread-safe (one internal mutex; the tests
// hammer a single store from 8 threads under TSan).  An empty directory
// string selects a purely in-memory store -- same semantics, nothing
// persisted -- which is what `cache on` in the shell gives you.
//
// What is cacheable: completed runs of the deterministic strategies
// (paredown, aggregation, exhaustive when optimal, greedy, fm, and lns
// with a fixed round count).  Timed-out runs, lns driven by the wall
// clock, and ladder runs are never stored -- a stored run must be one a
// fresh run on the stored design reproduces.
#ifndef EBLOCKS_CACHE_SOLUTION_STORE_H_
#define EBLOCKS_CACHE_SOLUTION_STORE_H_

#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "cache/canonical_hash.h"
#include "core/network.h"
#include "partition/engine.h"
#include "partition/problem.h"
#include "partition/result.h"

namespace eblocks::cache {

struct StoreOptions {
  /// Record directory; created if missing.  "" = in-memory only.
  std::string directory;
  /// Byte budget across all records; least-recently-used records are
  /// evicted (and their files deleted) to stay under it.  A record is
  /// charged its encoded size plus its index nodes (SolutionStore::
  /// kNodeBytes); one whose charge alone exceeds the budget is not stored.
  std::uint64_t maxBytes = 256ull << 20;
};

struct StoreStats {
  std::uint64_t hits = 0;        ///< exact-key lookups served
  std::uint64_t misses = 0;      ///< exact-key lookups not served
  std::uint64_t warmStarts = 0;  ///< near-miss incumbents handed out
  std::uint64_t inserts = 0;     ///< records stored
  std::uint64_t evictions = 0;   ///< records removed by the LRU cap
  std::uint64_t corrupt = 0;     ///< records dropped as unreadable
  /// Inserts abandoned because the disk write failed (ENOSPC, short
  /// write, fsync or rename failure).  The tmp file is deleted and the
  /// run is simply not cached -- a degraded-to-miss, never an error the
  /// caller sees.
  std::uint64_t writeFailures = 0;
};

class SolutionStore {
 public:
  explicit SolutionStore(StoreOptions options);

  /// Exact hit: the stored run for this (structure, options) key, its
  /// partitions placed onto `net`'s block ids through net's canonical
  /// order and verified (a record that does not verify is a miss).
  /// nullopt = miss.
  std::optional<partition::PartitionRun> lookup(
      const Network& net, std::string_view algorithm,
      const partition::ProgBlockSpec& spec,
      const partition::EngineOptions& engine);

  /// Near miss: the best stored solution for the same structure under
  /// compatible-but-different constraints (counting mode equal, stored
  /// port budget <= requested, convexity at least as strict), placed
  /// onto `net` and verified against the *requested* constraints.
  /// Suitable as EngineOptions::initialIncumbent.  nullopt = nothing
  /// compatible.
  std::optional<partition::Partitioning> nearMiss(
      const Network& net, const partition::ProgBlockSpec& spec,
      const partition::EngineOptions& engine);

  /// Stores a completed run if it is cacheable (see header comment);
  /// silently a no-op otherwise.
  void insert(const Network& net, std::string_view algorithm,
              const partition::ProgBlockSpec& spec,
              const partition::EngineOptions& engine,
              const partition::PartitionRun& run);

  StoreStats stats() const;
  std::size_t recordCount() const;
  std::uint64_t totalBytes() const;
  const std::string& directory() const { return options_.directory; }

 private:
  /// (structure hash, options fingerprint).  Ordered structure first, so
  /// one structure's records are one contiguous key range.
  using Key = std::pair<Hash128, std::uint64_t>;
  struct Entry {
    partition::ProgBlockSpec spec;
    bool requireConvex = false;
    std::uint64_t bytes = 0;      ///< charged: kNodeBytes + record size
    std::string blob;             ///< in-memory stores only
    std::list<const Key*>::iterator recency;  ///< into recency_
  };
  using Index = std::map<Key, Entry>;
  /// What the index holds for one record beside its encoded bytes: its
  /// map node (three links and a color word before the key and Entry)
  /// and its recency-list node (two links before a key pointer).
  static constexpr std::uint64_t kNodeBytes =
      4 * sizeof(void*) + sizeof(Index::value_type) + 2 * sizeof(void*) +
      sizeof(const Key*);

  std::string pathFor(const Key& key) const;
  /// Durable atomic write: tmp file + fsync + rename.  False on any IO
  /// failure (the tmp file is unlinked; caller counts a writeFailure).
  bool writeRecordFile(const Key& key, const std::string& blob);
  /// Indexes a record as the most recently used, then evicts the least
  /// recently used ones until the store is back within its budget.
  void addEntry(const Key& key, Entry e);
  /// Marks a record as the most recently used.
  void touch(Entry& e);
  /// Unindexes a record and deletes its file.
  void drop(Index::iterator it);
  void indexDirectory();
  /// The shared read step of lookup() and nearMiss(): reads the record
  /// filed under `it`, decodes it, checks that its content derives the
  /// key it is filed under, and places it onto the request.  A record
  /// that fails to read, decode or match is counted corrupt, dropped,
  /// and nullopt; one that does not place is nullopt; one that does is
  /// touched.
  std::optional<partition::PartitionRun> placedRecord(
      Index::iterator it, const CanonicalForm& form,
      const partition::PartitionProblem& problem, bool requireConvex);

  StoreOptions options_;
  mutable std::mutex mu_;
  Index entries_;
  /// Keys of entries_, most recently used first: a use splices its key to
  /// the front and eviction pops the back -- never a scan of the index.
  std::list<const Key*> recency_;
  std::uint64_t bytes_ = 0;
  std::uint64_t tmpCounter_ = 0;
  StoreStats stats_;
};

}  // namespace eblocks::cache

#endif  // EBLOCKS_CACHE_SOLUTION_STORE_H_
