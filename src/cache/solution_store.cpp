#include "cache/solution_store.h"

#include <fcntl.h>
#include <unistd.h>

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
// A temp file is its record's path plus `.tmpN`; the marker lets a
// crashed writer's leftovers be swept at the next open instead of
// shadowing real records.
constexpr const char* kTmpMarker = ".eblk.tmp";

/// A record's file name: its solution key in hex plus the suffix -- the
/// only place a key becomes text.
std::string fileName(const Hash128& structure, std::uint64_t fp) {
  return toHex(solutionKey(structure, fp)) + kRecordSuffix;
}

/// A stored run must be one a fresh run on the stored design
/// reproduces, so only completed runs of deterministic strategies
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

/// Every partition with each member m replaced by map[m]: block ids to
/// canonical positions on insert, positions to the request's ids on a
/// hit.
partition::Partitioning renumbered(const partition::Partitioning& p,
                                   const std::vector<BlockId>& map) {
  partition::Partitioning out;
  out.partitions.reserve(p.partitions.size());
  for (const BitSet& s : p.partitions) {
    BitSet t(map.size());
    s.forEach([&](std::size_t m) { t.set(map[m]); });
    out.partitions.push_back(std::move(t));
  }
  return out;
}

/// Carries a stored partitioning (members by canonical position) onto the
/// requesting network through its canonical order, then verifies it
/// against the problem before it is trusted (positions correspond only
/// best-effort under true automorphisms; see canonical_hash.h).
/// nullopt = could not place; the caller treats it as a miss.
std::optional<partition::Partitioning> placed(
    const partition::Partitioning& p, const CanonicalForm& form,
    const partition::PartitionProblem& problem, bool requireConvex) {
  for (const BitSet& s : p.partitions)
    if (s.size() != form.order.size()) return std::nullopt;
  partition::Partitioning out = renumbered(p, form.order);
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
  partition::ProgBlockSpec spec;
  bool requireConvex = false;
};

std::string encodeRecord(const RecordFields& f,
                         const partition::PartitionRun& run) {
  io::BinaryWriter w;
  w.u64(f.structure.hi);
  w.u64(f.structure.lo);
  w.u64(f.fp);
  w.varint(static_cast<std::uint64_t>(f.spec.inputs));
  w.varint(static_cast<std::uint64_t>(f.spec.outputs));
  w.u8(static_cast<std::uint8_t>(f.spec.mode));
  w.u8(f.requireConvex ? 1 : 0);
  const std::string runFrame = io::writePartitionRunBinary(run);
  w.varint(runFrame.size());
  w.bytes(runFrame);
  return w.finish(io::SectionTag::kSolutionRecord);
}

/// The fixed prefix alone -- all the index needs, so opening a store
/// never decodes runs.
RecordFields decodePrefix(io::BinaryReader& r) {
  RecordFields f;
  f.structure.hi = r.u64();
  f.structure.lo = r.u64();
  f.fp = r.u64();
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
  partition::PartitionRun run;  ///< partitions by canonical position
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

std::string SolutionStore::pathFor(const Key& key) const {
  return (fs::path(options_.directory) / fileName(key.first, key.second))
      .string();
}

void SolutionStore::addEntry(const Key& key, Entry e) {
  bytes_ += e.bytes;
  const auto it = entries_.emplace(key, std::move(e)).first;
  recency_.push_front(&it->first);
  it->second.recency = recency_.begin();
  while (bytes_ > options_.maxBytes) {
    drop(entries_.find(*recency_.back()));
    ++stats_.evictions;
  }
}

void SolutionStore::touch(Entry& e) {
  recency_.splice(recency_.begin(), recency_, e.recency);
}

void SolutionStore::drop(Index::iterator it) {
  bytes_ -= it->second.bytes;
  if (!options_.directory.empty()) {
    std::error_code ec;
    fs::remove(pathFor(it->first), ec);
  }
  recency_.erase(it->second.recency);
  entries_.erase(it);
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
      // A record renamed away from its content key can never be found
      // again by pathFor(); treat the mismatch like any other damage.
      // Records of an older layout land here too: the key folds in the
      // layout revision.
      if (fileName(f.structure, f.fp) != fname)
        throw io::BinaryError("solution record: file name != content key");
      addEntry(Key{f.structure, f.fp},
               Entry{f.spec, f.requireConvex, kNodeBytes + blob.size(), "",
                     {}});
    } catch (const io::BinaryError&) {
      ++stats_.corrupt;
      std::error_code rec;
      fs::remove(p, rec);
    }
  }
}

std::optional<partition::PartitionRun> SolutionStore::placedRecord(
    Index::iterator it, const CanonicalForm& form,
    const partition::PartitionProblem& problem, bool requireConvex) {
  const bool inMemory = options_.directory.empty();
  const std::string fromDisk = inMemory ? "" : readFile(pathFor(it->first));
  Record rec;
  try {
    rec = decodeRecord(inMemory ? it->second.blob : fromDisk);
    // The file may have rotted since it was indexed; its content must
    // still derive the key it is filed under.
    if (Key{rec.fields.structure, rec.fields.fp} != it->first)
      throw io::BinaryError("solution record: content key drifted");
  } catch (const io::BinaryError&) {
    ++stats_.corrupt;
    drop(it);
    return std::nullopt;
  }
  std::optional<partition::Partitioning> result =
      placed(rec.run.result, form, problem, requireConvex);
  if (!result) return std::nullopt;
  touch(it->second);
  rec.run.result = std::move(*result);
  return std::move(rec.run);
}

std::optional<partition::PartitionRun> SolutionStore::lookup(
    const Network& net, std::string_view algorithm,
    const partition::ProgBlockSpec& spec,
    const partition::EngineOptions& engine) {
  const CanonicalForm form = canonicalForm(net);
  const Key key{form.structure, optionsFingerprint(algorithm, spec, engine)};

  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  std::optional<partition::PartitionRun> run;
  if (it != entries_.end())
    run = placedRecord(it, form, partition::PartitionProblem(net, spec),
                       engine.requireConvex);
  if (run)
    ++stats_.hits;
  else
    ++stats_.misses;
  return run;
}

std::optional<partition::Partitioning> SolutionStore::nearMiss(
    const Network& net, const partition::ProgBlockSpec& spec,
    const partition::EngineOptions& engine) {
  const CanonicalForm form = canonicalForm(net);

  std::lock_guard<std::mutex> lock(mu_);
  // The structure's key range, in fingerprint order.
  auto it = entries_.lower_bound(Key{form.structure, 0});
  const auto inRange = [&] {
    return it != entries_.end() && it->first.first == form.structure;
  };
  if (!inRange()) return std::nullopt;

  const partition::PartitionProblem problem(net, spec);
  std::optional<partition::Partitioning> best;
  int bestCost = std::numeric_limits<int>::max();
  while (inRange()) {
    // Step past the candidate first: placedRecord() may drop it.
    const auto candidate = it++;
    const Entry& e = candidate->second;
    // Compatibility: a partitioning valid under a tighter port budget
    // stays valid under a looser one (same counting rules); convexity
    // must be at least as strict as the request demands.
    if (e.spec.mode != spec.mode) continue;
    if (e.spec.inputs > spec.inputs || e.spec.outputs > spec.outputs)
      continue;
    if (engine.requireConvex && !e.requireConvex) continue;

    std::optional<partition::PartitionRun> run =
        placedRecord(candidate, form, problem, engine.requireConvex);
    if (!run) continue;
    const int cost = run->result.totalAfter(problem.innerCount());
    if (cost < bestCost) {
      bestCost = cost;
      best = std::move(run->result);
    }
  }
  if (best) ++stats_.warmStarts;
  return best;
}

bool SolutionStore::writeRecordFile(const Key& key,
                                    const std::string& blob) {
  namespace fp = core::failpoint;
  const fs::path dir(options_.directory);
  const fs::path final = pathFor(key);
  const fs::path tmp =
      final.string() + ".tmp" + std::to_string(++tmpCounter_);

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
  const CanonicalForm form = canonicalForm(net);
  std::vector<BlockId> position(form.order.size());
  for (std::size_t i = 0; i < form.order.size(); ++i)
    position[form.order[i]] = static_cast<BlockId>(i);
  partition::PartitionRun stored = run;
  stored.result = renumbered(run.result, position);
  const RecordFields f{form.structure,
                       optionsFingerprint(algorithm, spec, engine), spec,
                       engine.requireConvex};
  const Key key{f.structure, f.fp};
  std::string blob = encodeRecord(f, stored);
  const std::uint64_t charge = kNodeBytes + blob.size();
  if (charge > options_.maxBytes) return;

  std::lock_guard<std::mutex> lock(mu_);
  const auto existing = entries_.find(key);
  if (existing != entries_.end()) {
    // Keep the record already stored under this key; just refresh LRU.
    touch(existing->second);
    return;
  }
  const bool inMemory = options_.directory.empty();
  if (!inMemory && !writeRecordFile(key, blob)) {
    // Degraded-to-miss: the run is simply not cached.  The tmp file is
    // already unlinked, so the next indexDirectory() sweep has nothing
    // to misread.
    ++stats_.writeFailures;
    return;
  }
  addEntry(key, Entry{spec, f.requireConvex, charge,
                      inMemory ? std::move(blob) : std::string(), {}});
  ++stats_.inserts;
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
