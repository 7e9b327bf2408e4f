#include "cache/solution_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <system_error>
#include <utility>

#include "core/failpoint.h"
#include "io/binary.h"
#include "partition/verify.h"

namespace eblocks::cache {

namespace fs = std::filesystem;

namespace {

constexpr const char* kRecordSuffix = ".eblk";
// Temp files carry this marker so a crashed writer's leftovers are swept
// at the next open instead of shadowing real records.
constexpr const char* kTmpMarker = ".eblk.tmp";

/// The store's correctness contract is "only ever return what a fresh
/// run would have", so only completed runs of deterministic strategies
/// qualify.  lns is deterministic exactly when its round count is fixed
/// (rounds == 0 runs until the wall clock, which no two machines agree
/// on); exhaustive results are only reproducible when the search proved
/// them optimal.  Any other name never qualifies.
bool cacheable(std::string_view algorithm,
               const partition::EngineOptions& engine,
               const partition::PartitionRun& run) {
  if (run.timedOut) return false;
  if (algorithm == "lns") return engine.lnsRounds > 0;
  if (algorithm == "exhaustive") return run.optimal;
  // `ladder` is deliberately absent: how deep it descends depends on the
  // wall clock, so even a completed (optimal) ladder run is only
  // reproducible on an idle machine.  Ladder requests rely on the
  // server's idempotency table (server.h) for retry stability instead.
  return algorithm == "paredown" || algorithm == "aggregation" ||
         algorithm == "greedy" || algorithm == "fm";
}

/// Type equality by semantics, not identity: records decoded from disk
/// carry fresh BlockType objects, so pointer comparison alone would
/// never match.  Type *names* are compared last and least -- two
/// catalogs may register the same descriptor under different names.
bool sameType(const BlockType& a, const BlockType& b) {
  return &a == &b ||
         (a.blockClass() == b.blockClass() &&
          a.sequential() == b.sequential() &&
          a.programmable() == b.programmable() &&
          a.inputNames() == b.inputNames() &&
          a.outputNames() == b.outputNames() &&
          a.behaviorSource() == b.behaviorSource());
}

/// Positionally aligned: same shape, same semantics at every block id.
/// The stored partitioning then transfers without translation -- this is
/// the repeated-identical-request fast path (instance names may differ).
bool aligned(const Network& a, const Network& b) {
  if (a.blockCount() != b.blockCount()) return false;
  const auto ca = a.connections();
  const auto cb = b.connections();
  if (ca.size() != cb.size() ||
      !std::equal(ca.begin(), ca.end(), cb.begin()))
    return false;
  for (BlockId i = 0; i < a.blockCount(); ++i)
    if (!sameType(*a.block(i).type, *b.block(i).type)) return false;
  return true;
}

/// Carries a stored partitioning onto the requesting network: directly
/// when positionally aligned, otherwise through the canonical
/// isomorphism -- and in the latter case the translated result is
/// verified against the problem before it is trusted (isomorphismMap is
/// best-effort under true automorphisms; see canonical_hash.h).
/// nullopt = could not translate; the caller treats it as a miss.
std::optional<partition::Partitioning> translate(
    const Network& stored, const partition::Partitioning& p,
    const partition::PartitionProblem& problem, bool requireConvex) {
  const Network& net = problem.network();
  for (const BitSet& s : p.partitions)
    if (s.size() != stored.blockCount()) return std::nullopt;
  if (aligned(stored, net)) return p;

  const std::optional<std::vector<BlockId>> map =
      isomorphismMap(stored, net);
  if (!map) return std::nullopt;
  partition::Partitioning out;
  out.partitions.reserve(p.partitions.size());
  for (const BitSet& s : p.partitions) {
    BitSet t(net.blockCount());
    s.forEach([&](std::size_t b) { t.set((*map)[b]); });
    out.partitions.push_back(std::move(t));
  }
  partition::VerifyOptions vo;
  vo.requireConvex = requireConvex;
  if (!partition::verifyPartitioning(problem, out, vo).empty())
    return std::nullopt;
  return out;
}

// --- record codec ---------------------------------------------------------

struct RecordFields {
  Hash128 structure;
  std::uint64_t fp = 0;
  std::string algorithm;
  partition::ProgBlockSpec spec;
  bool requireConvex = false;
};

std::string encodeRecord(const RecordFields& f, const Network& net,
                         const partition::PartitionRun& run) {
  io::BinaryWriter w;
  w.u64(f.structure.hi);
  w.u64(f.structure.lo);
  w.u64(f.fp);
  w.str(f.algorithm);
  w.varint(static_cast<std::uint64_t>(f.spec.inputs));
  w.varint(static_cast<std::uint64_t>(f.spec.outputs));
  w.u8(static_cast<std::uint8_t>(f.spec.mode));
  w.u8(f.requireConvex ? 1 : 0);
  const std::string netFrame = io::writeNetworkBinary(net);
  w.varint(netFrame.size());
  w.bytes(netFrame);
  const std::string runFrame = io::writePartitionRunBinary(run);
  w.varint(runFrame.size());
  w.bytes(runFrame);
  return w.finish(io::SectionTag::kSolutionRecord);
}

/// The fixed prefix alone -- all the index needs, so opening a store
/// never decodes networks.
RecordFields decodePrefix(io::BinaryReader& r) {
  RecordFields f;
  f.structure.hi = r.u64();
  f.structure.lo = r.u64();
  f.fp = r.u64();
  f.algorithm = std::string(r.str());
  f.spec.inputs = static_cast<int>(r.varint());
  f.spec.outputs = static_cast<int>(r.varint());
  if (f.spec.inputs < 0 || f.spec.outputs < 0)
    throw io::BinaryError("solution record: port budget out of range");
  const std::uint8_t mode = r.u8();
  if (mode > static_cast<std::uint8_t>(CountingMode::kSignals))
    throw io::BinaryError("solution record: unknown counting mode");
  f.spec.mode = static_cast<CountingMode>(mode);
  f.requireConvex = r.u8() != 0;
  return f;
}

struct Record {
  RecordFields fields;
  Network net;
  partition::PartitionRun run;
};

Record decodeRecord(std::string_view blob) {
  namespace fp = core::failpoint;
  if (const fp::Hit hit = fp::check(fp::name::kCacheRecordDecode)) {
    if (hit.mode == fp::Mode::kError)
      throw io::BinaryError("failpoint: injected record decode fault");
  }
  io::BinaryReader r(blob, io::SectionTag::kSolutionRecord);
  Record rec;
  rec.fields = decodePrefix(r);
  const std::uint64_t netLen = r.varint();
  if (netLen > r.remaining())
    throw io::BinaryError("solution record: network blob truncated");
  rec.net = io::readNetworkBinary(r.bytes(static_cast<std::size_t>(netLen)));
  const std::uint64_t runLen = r.varint();
  if (runLen > r.remaining())
    throw io::BinaryError("solution record: run blob truncated");
  rec.run =
      io::readPartitionRunBinary(r.bytes(static_cast<std::size_t>(runLen)));
  if (!r.atEnd())
    throw io::BinaryError("solution record: trailing bytes");
  return rec;
}

std::string readFile(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return "";
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string blob = in ? ss.str() : "";
  namespace fp = core::failpoint;
  if (const fp::Hit hit = fp::check(fp::name::kCacheRead)) {
    // A vanished file reads as empty; a truncated one as a prefix.  Both
    // fail frame validation downstream and degrade to a counted miss.
    if (hit.mode == fp::Mode::kError) return "";
    if (hit.mode == fp::Mode::kPartial && blob.size() > hit.arg)
      blob.resize(static_cast<std::size_t>(hit.arg));
  }
  return blob;
}

}  // namespace

SolutionStore::SolutionStore(StoreOptions options)
    : options_(std::move(options)) {
  if (!options_.directory.empty()) {
    std::error_code ec;
    fs::create_directories(options_.directory, ec);
    indexDirectory();
  }
}

std::string SolutionStore::pathFor(const std::string& keyHex) const {
  return (fs::path(options_.directory) / (keyHex + kRecordSuffix)).string();
}

std::string SolutionStore::loadBlob(const Entry& e) const {
  if (options_.directory.empty()) return e.blob;
  return readFile(pathFor(e.keyHex));
}

void SolutionStore::dropEntry(const std::string& keyHex, bool deleteFile) {
  const auto it = entries_.find(keyHex);
  if (it == entries_.end()) return;
  bytes_ -= it->second.bytes;
  const auto bit = byStructure_.find(toHex(it->second.structure));
  if (bit != byStructure_.end()) {
    std::erase(bit->second, keyHex);
    if (bit->second.empty()) byStructure_.erase(bit);
  }
  entries_.erase(it);
  if (deleteFile && !options_.directory.empty()) {
    std::error_code ec;
    fs::remove(pathFor(keyHex), ec);
  }
}

void SolutionStore::evictToBudget() {
  while (bytes_ > options_.maxBytes && !entries_.empty()) {
    const Entry* lru = nullptr;
    for (const auto& [key, e] : entries_)
      if (!lru || e.lastUse < lru->lastUse) lru = &e;
    const std::string victim = lru->keyHex;
    dropEntry(victim, /*deleteFile=*/true);
    ++stats_.evictions;
  }
}

void SolutionStore::indexDirectory() {
  std::error_code ec;
  for (const auto& de : fs::directory_iterator(options_.directory, ec)) {
    if (!de.is_regular_file()) continue;
    const fs::path p = de.path();
    const std::string fname = p.filename().string();
    if (fname.find(kTmpMarker) != std::string::npos) {
      std::error_code rec;
      fs::remove(p, rec);
      continue;
    }
    if (p.extension().string() != kRecordSuffix) continue;
    const std::string blob = readFile(p);
    try {
      io::BinaryReader r(blob, io::SectionTag::kSolutionRecord);
      const RecordFields f = decodePrefix(r);
      Entry e;
      e.keyHex = toHex(solutionKey(f.structure, f.fp));
      // A record renamed away from its content key can never be found
      // again by pathFor(); treat the mismatch like any other damage.
      if (e.keyHex + kRecordSuffix != fname)
        throw io::BinaryError("solution record: file name != content key");
      e.structure = f.structure;
      e.algorithm = f.algorithm;
      e.spec = f.spec;
      e.requireConvex = f.requireConvex;
      e.bytes = blob.size();
      e.lastUse = ++clock_;
      bytes_ += e.bytes;
      byStructure_[toHex(e.structure)].push_back(e.keyHex);
      entries_.emplace(e.keyHex, std::move(e));
    } catch (const io::BinaryError&) {
      ++stats_.corrupt;
      std::error_code rec;
      fs::remove(p, rec);
    }
  }
  evictToBudget();
}

std::optional<partition::PartitionRun> SolutionStore::lookup(
    const Network& net, std::string_view algorithm,
    const partition::ProgBlockSpec& spec,
    const partition::EngineOptions& engine) {
  const Hash128 s = structureHash(net);
  const std::uint64_t fp = optionsFingerprint(algorithm, spec, engine);
  const std::string keyHex = toHex(solutionKey(s, fp));

  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(keyHex);
  if (it == entries_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  const std::string blob = loadBlob(it->second);
  Record rec;
  try {
    rec = decodeRecord(blob);
    // The file may have rotted since it was indexed; its content must
    // still derive the key it is filed under.
    if (toHex(solutionKey(rec.fields.structure, rec.fields.fp)) != keyHex)
      throw io::BinaryError("solution record: content key drifted");
  } catch (const io::BinaryError&) {
    ++stats_.corrupt;
    dropEntry(keyHex, /*deleteFile=*/true);
    ++stats_.misses;
    return std::nullopt;
  }
  const partition::PartitionProblem problem(net, spec);
  std::optional<partition::Partitioning> translated =
      translate(rec.net, rec.run.result, problem, engine.requireConvex);
  if (!translated) {
    ++stats_.misses;
    return std::nullopt;
  }
  it->second.lastUse = ++clock_;
  ++stats_.hits;
  partition::PartitionRun run = std::move(rec.run);
  run.result = std::move(*translated);
  return run;
}

std::optional<partition::Partitioning> SolutionStore::nearMiss(
    const Network& net, const partition::ProgBlockSpec& spec,
    const partition::EngineOptions& engine) {
  const Hash128 s = structureHash(net);

  std::lock_guard<std::mutex> lock(mu_);
  const auto bit = byStructure_.find(toHex(s));
  if (bit == byStructure_.end()) return std::nullopt;

  const partition::PartitionProblem problem(net, spec);
  std::optional<partition::Partitioning> best;
  int bestCost = std::numeric_limits<int>::max();
  // dropEntry() below mutates the byStructure_ vector; iterate a copy.
  const std::vector<std::string> candidates = bit->second;
  for (const std::string& keyHex : candidates) {
    const auto it = entries_.find(keyHex);
    if (it == entries_.end()) continue;
    const Entry& e = it->second;
    // Compatibility: a partitioning valid under a tighter port budget
    // stays valid under a looser one (same counting rules); convexity
    // must be at least as strict as the request demands.
    if (e.spec.mode != spec.mode) continue;
    if (e.spec.inputs > spec.inputs || e.spec.outputs > spec.outputs)
      continue;
    if (engine.requireConvex && !e.requireConvex) continue;

    const std::string blob = loadBlob(e);
    Record rec;
    try {
      rec = decodeRecord(blob);
    } catch (const io::BinaryError&) {
      ++stats_.corrupt;
      dropEntry(keyHex, /*deleteFile=*/true);
      continue;
    }
    std::optional<partition::Partitioning> translated =
        translate(rec.net, rec.run.result, problem, engine.requireConvex);
    if (!translated) continue;
    it->second.lastUse = ++clock_;
    const int cost = translated->totalAfter(problem.innerCount());
    if (cost < bestCost) {
      bestCost = cost;
      best = std::move(*translated);
    }
  }
  if (best) ++stats_.warmStarts;
  return best;
}

bool SolutionStore::writeRecordFile(const std::string& keyHex,
                                    const std::string& blob) {
  namespace fp = core::failpoint;
  const fs::path dir(options_.directory);
  const fs::path tmp =
      dir / (keyHex + kTmpMarker + std::to_string(++tmpCounter_));
  const fs::path final = dir / (keyHex + kRecordSuffix);

  const int fd = ::open(tmp.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return false;

  // A torn write is the crash-consistency probe: some bytes land, the
  // writer believes it succeeded, and the damage must be caught by frame
  // validation at read time -- never served.
  std::size_t limit = blob.size();
  bool tearSilently = false;
  if (const fp::Hit hit = fp::check(fp::name::kCacheTmpTorn);
      hit.mode == fp::Mode::kPartial && hit.arg < limit) {
    limit = static_cast<std::size_t>(hit.arg);
    tearSilently = true;
  }

  bool ok = true;
  if (const fp::Hit hit = fp::check(fp::name::kCacheTmpWrite)) {
    // Simulated ENOSPC / short write: possibly land a prefix, then fail.
    if (hit.mode == fp::Mode::kPartial && hit.arg < limit)
      limit = static_cast<std::size_t>(hit.arg);
    if (hit.mode == fp::Mode::kError || hit.mode == fp::Mode::kPartial) {
      errno = hit.arg != 0 && hit.mode == fp::Mode::kError
                  ? static_cast<int>(hit.arg)
                  : ENOSPC;
      ok = false;
    }
  }
  std::size_t written = 0;
  while (ok && written < limit) {
    const ssize_t n =
        ::write(fd, blob.data() + written, limit - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ok = false;  // ENOSPC, EIO, ...: nothing retryable about these
      break;
    }
    written += static_cast<std::size_t>(n);
  }
  // But for the simulated tear, a partial landing is a failed insert.
  if (ok && !tearSilently && written != blob.size()) ok = false;

  // fsync *before* rename: the rename must never publish a record whose
  // bytes are still only in the page cache -- a crash after rename but
  // before writeback would leave a named, torn record for the next open.
  if (ok) {
    if (const fp::Hit hit = fp::check(fp::name::kCacheFsync);
        hit.mode == fp::Mode::kError) {
      errno = hit.arg != 0 ? static_cast<int>(hit.arg) : EIO;
      ok = false;
    } else if (::fsync(fd) != 0) {
      ok = false;
    }
  }
  if (::close(fd) != 0) ok = false;

  if (ok) {
    if (const fp::Hit hit = fp::check(fp::name::kCacheRename);
        hit.mode == fp::Mode::kError) {
      errno = hit.arg != 0 ? static_cast<int>(hit.arg) : EIO;
      ok = false;
    } else if (::rename(tmp.c_str(), final.c_str()) != 0) {
      ok = false;
    }
  }
  if (!ok) {
    ::unlink(tmp.c_str());
    return false;
  }
  // Best-effort directory fsync so the rename itself is durable.  A
  // failure here is not a failed insert: the record is already valid and
  // visible, the entry is merely not yet crash-durable.
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return true;
}

void SolutionStore::insert(const Network& net, std::string_view algorithm,
                           const partition::ProgBlockSpec& spec,
                           const partition::EngineOptions& engine,
                           const partition::PartitionRun& run) {
  if (!cacheable(algorithm, engine, run)) return;
  RecordFields f;
  f.structure = structureHash(net);
  f.fp = optionsFingerprint(algorithm, spec, engine);
  f.algorithm = std::string(algorithm);
  f.spec = spec;
  f.requireConvex = engine.requireConvex;
  const std::string keyHex = toHex(solutionKey(f.structure, f.fp));
  const std::string blob = encodeRecord(f, net, run);
  if (blob.size() > options_.maxBytes) return;

  std::lock_guard<std::mutex> lock(mu_);
  const auto existing = entries_.find(keyHex);
  if (existing != entries_.end()) {
    // Bit-identity makes the stored record equivalent; just refresh LRU.
    existing->second.lastUse = ++clock_;
    return;
  }
  if (!options_.directory.empty() && !writeRecordFile(keyHex, blob)) {
    // Degraded-to-miss: the run is simply not cached.  The tmp file is
    // already unlinked, so the next indexDirectory() sweep has nothing
    // to misread.
    ++stats_.writeFailures;
    return;
  }
  Entry e;
  e.keyHex = keyHex;
  e.structure = f.structure;
  e.algorithm = f.algorithm;
  e.spec = spec;
  e.requireConvex = f.requireConvex;
  e.bytes = blob.size();
  if (options_.directory.empty()) e.blob = blob;
  e.lastUse = ++clock_;
  bytes_ += e.bytes;
  byStructure_[toHex(e.structure)].push_back(keyHex);
  entries_.emplace(keyHex, std::move(e));
  ++stats_.inserts;
  evictToBudget();
}

StoreStats SolutionStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t SolutionStore::recordCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::uint64_t SolutionStore::totalBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

}  // namespace eblocks::cache
