// Canonical content hashing for the solution cache.
//
// Production synthesis traffic is heavily repetitive, but rarely
// byte-identical: the same design arrives re-drawn, with blocks renamed,
// declared in a different order, or with internal behavior variables
// spelled differently.  A cache keyed on the netlist text would miss all
// of them.  This module keys on what the partitioner actually consumes:
//
//   structureHash(net)  --  a Weisfeiler-Lehman-style iterative color
//     refinement over the network's flattened (CSR-shaped) adjacency.
//     Every block starts from a fingerprint of its *type semantics*
//     (class, flags, port arity, and its behavior program re-printed
//     with ports and `var` state canonically renamed via behavior/
//     rename -- so internal signal names cannot distinguish two
//     functionally identical types), then repeatedly absorbs the sorted
//     multiset of (own port, neighbor color, neighbor port) over its in-
//     and out-arcs until the color partition stabilizes.  The final hash
//     aggregates the *sorted* color multiset, so it is invariant under
//     instance renaming, block declaration order, and connection
//     declaration order by construction: isomorphic designs collide, and
//     structurally distinct designs separate (up to WL's classical
//     limits, which the layered DAGs here do not approach; the property
//     tests in tests/cache/canonical_hash_test.cpp pin both directions).
//
//   optionsFingerprint(algorithm, spec, engine)  --  the *normalized*
//     option set: only knobs that can change the returned partitioning
//     participate (algorithm, port budget, counting mode, convexity;
//     plus the lns knobs and rng seed for `lns`).  Accelerator-only
//     knobs -- threads, time limit, pruning, seeding -- are
//     bit-identity-preserving by the engine's contract, so they
//     normalize away and a request at 8 threads hits a record computed
//     at 1.
//
//   solutionKey = structureHash x optionsFingerprint  --  the exact-hit
//     cache key, with the store's record-layout revision folded in.
//     Records that share a structureHash but differ in fingerprint are
//     near-miss candidates (same design, different constraints);
//     cache/solution_store.h decides warm-start compatibility.
//
// canonicalForm() extends the refinement with individualization until
// every block has its own color, and returns the blocks sorted by color
// next to the structure hash.  A block's index in that order is its
// *canonical position*; the store keeps partitions by position, so a hit
// on a renamed or reordered variant maps them onto the requesting
// network's ids through the request's own order.  Positions correspond
// exactly whenever refinement individualizes every block (all realistic
// designs here); for networks with true automorphisms the class-internal
// choice is arbitrary, so callers must verify the mapped result and
// degrade to a miss -- never trust it blindly.
#ifndef EBLOCKS_CACHE_CANONICAL_HASH_H_
#define EBLOCKS_CACHE_CANONICAL_HASH_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/network.h"
#include "partition/engine.h"
#include "partition/problem.h"

namespace eblocks::cache {

/// A 128-bit content hash (two independent 64-bit aggregations of the
/// same refinement, so accidental collisions need both halves to agree).
struct Hash128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  friend auto operator<=>(const Hash128&, const Hash128&) = default;
};

/// 32 lowercase hex digits, hi half first (stable across platforms --
/// used as the on-disk record file name).
std::string toHex(const Hash128& h);

/// The rename- and order-invariant structure hash (see header comment).
/// Deterministic: a pure function of the network's structure, pinned by
/// golden values in the property tests so accidental format drift fails.
Hash128 structureHash(const Network& net);

/// Normalized option fingerprint: hashes exactly the knobs that can
/// change the returned partitioning, never the accelerator-only ones.
std::uint64_t optionsFingerprint(std::string_view algorithm,
                                 const partition::ProgBlockSpec& spec,
                                 const partition::EngineOptions& engine);

/// The exact-hit cache key: structureHash folded with optionsFingerprint
/// and the record-layout revision, from precomputed parts (what a store
/// record carries in its header, so re-indexing never re-runs the
/// refinement).
Hash128 solutionKey(const Hash128& structure, std::uint64_t optionsFp);

/// A network's canonical form, from one refinement: its structure hash
/// and its blocks in canonical order (order[i] = the block at canonical
/// position i).  Two isomorphic networks yield orders that correspond
/// position-by-position (exactly when refinement alone separates all
/// blocks; best-effort under true automorphisms -- see header comment).
struct CanonicalForm {
  Hash128 structure;  ///< == structureHash(net)
  std::vector<BlockId> order;
};
CanonicalForm canonicalForm(const Network& net);

}  // namespace eblocks::cache

#endif  // EBLOCKS_CACHE_CANONICAL_HASH_H_
