#include "cache/canonical_hash.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "behavior/printer.h"
#include "io/binary.h"

namespace eblocks::cache {

namespace {

// splitmix64: the standard 64-bit finalizer-style mixer.  Every hash in
// this file is built from it so the whole scheme is a pure function of
// the inputs -- no pointers, no iteration-order dependence -- which the
// pinned golden-hash tests rely on.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t combine(std::uint64_t seed, std::uint64_t v) {
  return mix(seed ^ mix(v));
}

std::uint64_t hashString(std::string_view s, std::uint64_t seed = 0) {
  return mix(io::fnv1a64(s, io::kFnvBasis ^ seed));
}

/// The type's behavior program with its interface and state canonically
/// renamed: input port i -> "$iN", output port j -> "$oN", and every
/// `var` declaration -> "$vK" in declaration order.  Builtin names
/// (tick, env, display) pass through untouched.  Two types that differ
/// only in how their signals are spelled print identically here -- the
/// "signal renaming" half of the hash's invariance.  The type's shared
/// program (BlockType::program), printed with a canonical name per slot.
std::string canonicalBehavior(const BlockType& t) {
  if (t.behaviorSource().empty()) return "";
  const behavior::Program& program = t.program();
  const behavior::NameTable& bindings = t.nameTable();
  std::vector<std::string> names(program.names.size());
  for (std::size_t s = 0; s < names.size(); ++s) {
    const behavior::NameBinding& nb = bindings[s];
    if (nb.kind == behavior::NameBinding::Kind::kInput)
      names[s] = "$i" + std::to_string(nb.port);
    else if (nb.kind == behavior::NameBinding::Kind::kOutput)
      names[s] = "$o" + std::to_string(nb.port);
    else if (nb.stateOrdinal >= 0)
      names[s] = "$v" + std::to_string(nb.stateOrdinal);
    else
      names[s] = program.names[s];
  }
  return behavior::toSource(program, names);
}

/// Initial WL color: the block's type *semantics*.  Instance names are
/// deliberately absent; type names too (a copy of `and2` registered
/// under another name is the same function).  Port identity is
/// positional, which the canonical behavior rename makes sound.
std::uint64_t typeColor(const BlockType& t) {
  std::uint64_t h = combine(0x7459ull, static_cast<std::uint64_t>(t.blockClass()));
  h = combine(h, static_cast<std::uint64_t>(t.inputCount()));
  h = combine(h, static_cast<std::uint64_t>(t.outputCount()));
  h = combine(h, t.sequential() ? 1 : 0);
  h = combine(h, t.programmable() ? 2 : 0);
  h = combine(h, hashString(canonicalBehavior(t)));
  return h;
}

std::vector<std::uint64_t> initialColors(const Network& net) {
  // Distinct BlockTypePtrs are fingerprinted once (printing the canonical
  // behavior dominates otherwise).
  std::unordered_map<const BlockType*, std::uint64_t> memo;
  std::vector<std::uint64_t> colors(net.blockCount());
  for (BlockId b = 0; b < net.blockCount(); ++b) {
    const BlockType* t = net.block(b).type.get();
    const auto it = memo.find(t);
    colors[b] = it != memo.end() ? it->second
                                 : (memo[t] = typeColor(*t));
  }
  return colors;
}

std::size_t distinctCount(const std::vector<std::uint64_t>& colors) {
  return std::unordered_set<std::uint64_t>(colors.begin(), colors.end())
      .size();
}

/// One refinement round: every block absorbs the sorted multiset of
/// (direction, own port, neighbor color, neighbor port) over its arcs.
/// Sorting is what buys connection-declaration-order invariance.
std::vector<std::uint64_t> refineOnce(const Network& net,
                                      const std::vector<std::uint64_t>& colors) {
  std::vector<std::uint64_t> next(colors.size());
  std::vector<std::uint64_t> arcs;
  for (BlockId b = 0; b < net.blockCount(); ++b) {
    arcs.clear();
    for (const Connection& c : net.inputsOf(b)) {
      std::uint64_t h = combine(0x1Dull, c.to.port);
      h = combine(h, colors[c.from.block]);
      h = combine(h, c.from.port);
      arcs.push_back(h);
    }
    for (const Connection& c : net.outputsOf(b)) {
      std::uint64_t h = combine(0x07ull, c.from.port);
      h = combine(h, colors[c.to.block]);
      h = combine(h, c.to.port);
      arcs.push_back(h);
    }
    std::sort(arcs.begin(), arcs.end());
    std::uint64_t h = combine(0xC01ull, colors[b]);
    for (const std::uint64_t a : arcs) h = combine(h, a);
    next[b] = h;
  }
  return next;
}

/// Refine to the fixpoint: stop when a round no longer splits any color
/// class.  At most blockCount productive rounds exist.
std::vector<std::uint64_t> refineToFixpoint(const Network& net,
                                            std::vector<std::uint64_t> colors) {
  std::size_t distinct = distinctCount(colors);
  for (std::size_t round = 0; round <= net.blockCount(); ++round) {
    std::vector<std::uint64_t> next = refineOnce(net, colors);
    const std::size_t nextDistinct = distinctCount(next);
    colors = std::move(next);
    if (nextDistinct == distinct) break;
    distinct = nextDistinct;
  }
  return colors;
}

/// The structure hash of stable colors.  Only their sorted multiset
/// enters it: block ids (and with them declaration order and instance
/// names) vanish.
Hash128 hashColors(const Network& net, std::vector<std::uint64_t> colors) {
  std::sort(colors.begin(), colors.end());
  Hash128 h;
  h.hi = combine(0x5EEDull, net.blockCount());
  h.lo = combine(0xFACEull, net.connections().size());
  for (const std::uint64_t c : colors) {
    h.hi = combine(h.hi, c);
    h.lo = combine(h.lo, mix(c ^ 0xA5A5A5A5A5A5A5A5ull));
  }
  return h;
}

/// Revision of the store's record layout (cache/solution_store.h), folded
/// into every solution key: a record written in another layout derives a
/// key that differs from its file name and is swept at open.  Layout 1
/// keeps partitions by canonical position and no network.
constexpr std::uint64_t kRecordLayout = 1;

}  // namespace

std::string toHex(const Hash128& h) {
  static const char* digits = "0123456789abcdef";
  std::string s(32, '0');
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t word = i < 8 ? h.hi : h.lo;
    const int shift = 56 - 8 * (i % 8);
    const auto byte = static_cast<std::uint8_t>((word >> shift) & 0xff);
    s[2 * static_cast<std::size_t>(i)] = digits[byte >> 4];
    s[2 * static_cast<std::size_t>(i) + 1] = digits[byte & 0xf];
  }
  return s;
}

Hash128 structureHash(const Network& net) {
  return hashColors(net, refineToFixpoint(net, initialColors(net)));
}

std::uint64_t optionsFingerprint(std::string_view algorithm,
                                 const partition::ProgBlockSpec& spec,
                                 const partition::EngineOptions& engine) {
  std::uint64_t h = hashString(algorithm, 0x0075ull);
  h = combine(h, static_cast<std::uint64_t>(spec.inputs));
  h = combine(h, static_cast<std::uint64_t>(spec.outputs));
  h = combine(h, static_cast<std::uint64_t>(spec.mode));
  h = combine(h, engine.requireConvex ? 1 : 0);
  // Only `lns` consults its knobs and rng seed; for every other
  // strategy they are inert, and folding them in would
  // fragment the key space for no behavioral difference.
  if (algorithm == "lns") {
    h = combine(h, static_cast<std::uint64_t>(engine.lnsPocket));
    h = combine(h, static_cast<std::uint64_t>(engine.lnsRounds));
    // The repair node budget is LnsOptions' fixed default; it stays
    // folded so `lns` keys match the records already on disk.
    h = combine(h, partition::LnsOptions{}.repairNodeBudget);
    h = combine(h, engine.rngSeed);
  }
  return h;
}

Hash128 solutionKey(const Hash128& structure, std::uint64_t optionsFp) {
  const std::uint64_t fp = combine(optionsFp, kRecordLayout);
  return Hash128{combine(structure.hi, fp), combine(structure.lo, mix(fp))};
}

CanonicalForm canonicalForm(const Network& net) {
  std::vector<std::uint64_t> colors =
      refineToFixpoint(net, initialColors(net));
  CanonicalForm form{hashColors(net, colors), {}};

  // Individualization: while any color class has several members, give
  // one member of the smallest ambiguous color a fresh color and
  // re-refine.  Picking the lowest block id is arbitrary -- under a true
  // automorphism any member is equivalent, and when it is NOT a true
  // automorphism (WL-equivalent but not interchangeable) positions can
  // correspond wrongly across networks, which is why the store verifies
  // every mapped result.  Each round splits at least one class, so this
  // terminates in < blockCount rounds.
  for (std::size_t round = 0; round < net.blockCount(); ++round) {
    std::unordered_map<std::uint64_t, std::uint32_t> classSize;
    for (const std::uint64_t c : colors) ++classSize[c];
    std::uint64_t target = 0;
    bool found = false;
    for (const auto& [color, n] : classSize)
      if (n > 1 && (!found || color < target)) {
        target = color;
        found = true;
      }
    if (!found) break;
    for (BlockId b = 0; b < net.blockCount(); ++b)
      if (colors[b] == target) {
        colors[b] = combine(0x1D1Dull, colors[b]);
        break;
      }
    colors = refineToFixpoint(net, std::move(colors));
  }

  form.order.resize(net.blockCount());
  for (BlockId b = 0; b < net.blockCount(); ++b) form.order[b] = b;
  std::sort(form.order.begin(), form.order.end(), [&](BlockId a, BlockId b) {
    return colors[a] != colors[b] ? colors[a] < colors[b] : a < b;
  });
  return form;
}

}  // namespace eblocks::cache
