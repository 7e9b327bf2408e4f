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
// names.  A byte-budget LRU cap (StoreOptions::maxBytes) bounds the
// directory; least-recently-used records are deleted first, in O(1)
// each.
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
#include <vector>

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
  /// evicted (and their files deleted) to stay under it.
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
  struct Entry {
    Hash128 structure;            ///< for near-miss grouping
    partition::ProgBlockSpec spec;
    bool requireConvex = false;
    std::uint64_t bytes = 0;
    std::string blob;             ///< in-memory stores only
    std::list<const std::string*>::iterator recency;  ///< into recency_
  };

  std::string pathFor(const std::string& keyHex) const;
  /// Reads a record blob; empty on failure (the decode then fails and the
  /// caller drops the entry).
  std::string loadBlob(const std::string& keyHex, const Entry& e) const;
  /// Durable atomic write: tmp file + fsync + rename.  False on any IO
  /// failure (the tmp file is unlinked; caller counts a writeFailure).
  bool writeRecordFile(const std::string& keyHex, const std::string& blob);
  /// Indexes a record as the most recently used.
  void addEntry(const std::string& keyHex, Entry e);
  /// Marks a record as the most recently used.
  void touch(Entry& e);
  void dropEntry(const std::string& keyHex, bool deleteFile);
  void evictToBudget();
  void indexDirectory();

  StoreOptions options_;
  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;  // keyHex -> record
  std::map<Hash128, std::vector<std::string>> byStructure_;
  /// Keys of entries_, most recently used first: a use splices its key to
  /// the front and eviction pops the back -- never a scan of the index.
  std::list<const std::string*> recency_;
  std::uint64_t bytes_ = 0;
  std::uint64_t tmpCounter_ = 0;
  StoreStats stats_;
};

}  // namespace eblocks::cache

#endif  // EBLOCKS_CACHE_SOLUTION_STORE_H_
