#include "io/binary.h"

#include <bit>
#include <cstring>
#include <map>
#include <unordered_map>
#include <vector>

#include "blocks/catalog.h"
#include "core/failpoint.h"
#include "io/netlist.h"

namespace eblocks::io {

namespace {

constexpr std::size_t kHeaderSize = 16;   // magic + version + tag + pad + len
constexpr std::size_t kTrailerSize = 8;   // FNV-1a-64 checksum

void putU16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>(v >> 8));
}

void putU32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void putU64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::uint64_t getU64(std::string_view data, std::size_t off) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(data[off + i]))
         << (8 * i);
  return v;
}

/// Interns strings so repeated names (type names, port names) are stored
/// once; ids are assigned in first-use order, so output is deterministic.
class StringTable {
 public:
  std::uint64_t intern(std::string_view s) {
    const auto [it, inserted] = ids_.try_emplace(std::string(s), strings_.size());
    if (inserted) strings_.push_back(it->first);
    return it->second;
  }

  void writeTo(BinaryWriter& w) const {
    w.varint(strings_.size());
    for (const std::string& s : strings_) w.str(s);
  }

 private:
  std::map<std::string, std::uint64_t> ids_;
  std::vector<std::string> strings_;
};

std::vector<std::string> readStringTable(BinaryReader& r) {
  const std::uint64_t count = r.varint();
  // A table can never have more entries than payload bytes remain; this
  // bounds allocation before the (checksum-validated but still possibly
  // adversarial) count is trusted.
  if (count > r.remaining())
    throw BinaryError("binary: string table count exceeds payload size");
  std::vector<std::string> table;
  table.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) table.emplace_back(r.str());
  return table;
}

const std::string& tableAt(const std::vector<std::string>& table,
                           std::uint64_t id) {
  if (id >= table.size())
    throw BinaryError("binary: string reference " + std::to_string(id) +
                      " out of range (table has " +
                      std::to_string(table.size()) + " entries)");
  return table[id];
}

/// True when the catalog resolves `name` to a type interchangeable with
/// `t`, so the frame can reference it by name instead of embedding it.
bool catalogResolvable(const BlockType& t) {
  // find(), not get(): synthesized types (prog_IxO_pK) are no catalog
  // name, and the miss must not cost an exception per type.
  const BlockTypePtr c = blocks::defaultCatalog().find(t.name());
  return c && c->blockClass() == t.blockClass() &&
         c->inputNames() == t.inputNames() &&
         c->outputNames() == t.outputNames() &&
         c->behaviorSource() == t.behaviorSource() &&
         c->sequential() == t.sequential() &&
         c->programmable() == t.programmable();
}

}  // namespace

// --- BinaryWriter ---------------------------------------------------------

void BinaryWriter::u64(std::uint64_t v) { putU64(payload_, v); }

void BinaryWriter::varint(std::uint64_t v) {
  while (v >= 0x80) {
    payload_.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  payload_.push_back(static_cast<char>(v));
}

void BinaryWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void BinaryWriter::str(std::string_view v) {
  varint(v.size());
  payload_.append(v);
}

std::string BinaryWriter::finish(SectionTag tag, std::uint16_t version) const {
  std::string frame;
  frame.reserve(kHeaderSize + payload_.size() + kTrailerSize);
  putU32(frame, kBinaryMagic);
  putU16(frame, version);
  frame.push_back(static_cast<char>(tag));
  frame.push_back(0);  // reserved
  putU64(frame, payload_.size());
  frame.append(payload_);
  putU64(frame, fnv1a64(frame));
  return frame;
}

// --- BinaryReader ---------------------------------------------------------

BinaryReader::BinaryReader(std::string_view frame, SectionTag expected) {
  if (frame.size() < kHeaderSize + kTrailerSize)
    throw BinaryError("binary: frame truncated (" +
                      std::to_string(frame.size()) + " bytes, minimum " +
                      std::to_string(kHeaderSize + kTrailerSize) + ")");
  std::uint32_t magic = 0;
  std::memcpy(&magic, frame.data(), 4);
  if (magic != kBinaryMagic)
    throw BinaryError("binary: bad magic (not an EBLK frame)");
  const std::uint16_t version =
      static_cast<std::uint16_t>(static_cast<std::uint8_t>(frame[4])) |
      static_cast<std::uint16_t>(static_cast<std::uint8_t>(frame[5]) << 8);
  if (version < kBinaryMinVersion || version > kBinaryVersion)
    throw BinaryError("binary: unsupported format version " +
                      std::to_string(version) + " (this reader handles " +
                      std::to_string(kBinaryMinVersion) + ".." +
                      std::to_string(kBinaryVersion) + ")");
  const std::uint64_t length = getU64(frame, 8);
  if (length != frame.size() - kHeaderSize - kTrailerSize)
    throw BinaryError("binary: payload length mismatch (header says " +
                      std::to_string(length) + ", frame holds " +
                      std::to_string(frame.size() - kHeaderSize -
                                     kTrailerSize) +
                      ")");
  const std::uint64_t stored = getU64(frame, frame.size() - kTrailerSize);
  const std::uint64_t computed =
      fnv1a64(frame.substr(0, frame.size() - kTrailerSize));
  if (stored != computed)
    throw BinaryError("binary: checksum mismatch (frame is corrupt)");
  const auto tag = static_cast<std::uint8_t>(frame[6]);
  if (tag != static_cast<std::uint8_t>(expected))
    throw BinaryError("binary: section tag " + std::to_string(tag) +
                      " where " +
                      std::to_string(static_cast<int>(expected)) +
                      " was expected");
  if (frame[7] != 0)
    throw BinaryError("binary: reserved header byte is not zero");
  payload_ = frame.substr(kHeaderSize, length);
}

std::uint8_t BinaryReader::u8() {
  if (pos_ + 1 > payload_.size())
    throw BinaryError("binary: payload truncated reading u8");
  return static_cast<std::uint8_t>(payload_[pos_++]);
}

std::uint64_t BinaryReader::u64() {
  if (pos_ + 8 > payload_.size())
    throw BinaryError("binary: payload truncated reading u64");
  const std::uint64_t v = getU64(payload_, pos_);
  pos_ += 8;
  return v;
}

std::uint64_t BinaryReader::varint() {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    if (pos_ >= payload_.size())
      throw BinaryError("binary: payload truncated reading varint");
    const auto byte = static_cast<std::uint8_t>(payload_[pos_++]);
    if (shift == 63 && (byte & 0x7f) > 1)
      throw BinaryError("binary: varint overflows 64 bits");
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if (!(byte & 0x80)) return v;
    shift += 7;
    if (shift > 63) throw BinaryError("binary: varint longer than 10 bytes");
  }
}

double BinaryReader::f64() { return std::bit_cast<double>(u64()); }

std::string_view BinaryReader::str() {
  const std::uint64_t n = varint();
  return bytes(n);
}

std::string_view BinaryReader::bytes(std::size_t n) {
  if (n > payload_.size() - pos_)
    throw BinaryError("binary: payload truncated reading " +
                      std::to_string(n) + " bytes");
  const std::string_view v = payload_.substr(pos_, n);
  pos_ += n;
  return v;
}

// --- networks ---------------------------------------------------------

namespace {

constexpr std::uint8_t kTypeCatalog = 0;   // resolve by catalog name
constexpr std::uint8_t kTypeEmbedded = 1;  // full descriptor inline

void writeEmbeddedType(BinaryWriter& body, StringTable& strings,
                       const BlockType& t) {
  body.u8(static_cast<std::uint8_t>(t.blockClass()));
  body.u8(static_cast<std::uint8_t>((t.sequential() ? 1 : 0) |
                                    (t.programmable() ? 2 : 0)));
  body.varint(static_cast<std::uint64_t>(t.inputCount()));
  for (const std::string& n : t.inputNames()) body.varint(strings.intern(n));
  body.varint(static_cast<std::uint64_t>(t.outputCount()));
  for (const std::string& n : t.outputNames()) body.varint(strings.intern(n));
  body.varint(strings.intern(t.behaviorSource()));
}

BlockTypePtr readEmbeddedType(BinaryReader& r,
                              const std::vector<std::string>& strings,
                              const std::string& name) {
  const std::uint8_t cls = r.u8();
  if (cls > static_cast<std::uint8_t>(BlockClass::kCommunication))
    throw BinaryError("binary: invalid block class " + std::to_string(cls));
  const std::uint8_t flags = r.u8();
  if (flags & ~0x3u)
    throw BinaryError("binary: invalid type flags " + std::to_string(flags));
  const std::uint64_t inCount = r.varint();
  if (inCount > r.remaining())
    throw BinaryError("binary: input port count exceeds payload size");
  std::vector<std::string> ins;
  ins.reserve(inCount);
  for (std::uint64_t i = 0; i < inCount; ++i)
    ins.push_back(tableAt(strings, r.varint()));
  const std::uint64_t outCount = r.varint();
  if (outCount > r.remaining())
    throw BinaryError("binary: output port count exceeds payload size");
  std::vector<std::string> outs;
  outs.reserve(outCount);
  for (std::uint64_t i = 0; i < outCount; ++i)
    outs.push_back(tableAt(strings, r.varint()));
  const std::string& behavior = tableAt(strings, r.varint());
  try {
    return std::make_shared<const BlockType>(
        name, static_cast<BlockClass>(cls), std::move(ins), std::move(outs),
        behavior, (flags & 1) != 0, (flags & 2) != 0);
  } catch (const std::exception& e) {
    throw BinaryError(std::string("binary: invalid embedded type: ") +
                      e.what());
  }
}

}  // namespace

std::string writeNetworkBinary(const Network& net) {
  StringTable strings;
  BinaryWriter body;

  body.varint(strings.intern(net.name()));

  // Type table: one entry per distinct BlockTypePtr, in first-use order.
  std::unordered_map<const BlockType*, std::uint64_t> typeIds;
  std::vector<const BlockType*> types;
  for (BlockId b = 0; b < net.blockCount(); ++b) {
    const BlockType* t = net.block(b).type.get();
    if (typeIds.try_emplace(t, types.size()).second) types.push_back(t);
  }
  body.varint(types.size());
  for (const BlockType* t : types) {
    body.varint(strings.intern(t->name()));
    if (catalogResolvable(*t)) {
      body.u8(kTypeCatalog);
    } else {
      body.u8(kTypeEmbedded);
      writeEmbeddedType(body, strings, *t);
    }
  }

  body.varint(net.blockCount());
  for (BlockId b = 0; b < net.blockCount(); ++b) {
    const Block& blk = net.block(b);
    body.varint(strings.intern(blk.name));
    body.varint(typeIds.at(blk.type.get()));
  }

  // The arc stripe: every connection in insertion order (the on-disk
  // mirror of compact_graph's flat arc array; insertion order is
  // semantic, see the header comment).
  body.varint(net.connections().size());
  for (const Connection& c : net.connections()) {
    body.varint(c.from.block);
    body.varint(c.from.port);
    body.varint(c.to.block);
    body.varint(c.to.port);
  }

  // The string table is interned while encoding the body but must lead
  // the payload, so the body is spliced in after it.
  BinaryWriter out;
  strings.writeTo(out);
  out.bytes(body.payload());
  return out.finish(SectionTag::kNetwork);
}

Network readNetworkBinary(std::string_view frame) {
  namespace fp = core::failpoint;
  if (const fp::Hit hit = fp::check(fp::name::kIoReadNetwork);
      hit.mode == fp::Mode::kError)
    throw BinaryError("failpoint: injected network read fault");
  BinaryReader r(frame, SectionTag::kNetwork);
  const std::vector<std::string> strings = readStringTable(r);

  Network net(tableAt(strings, r.varint()));

  const std::uint64_t typeCount = r.varint();
  if (typeCount > r.remaining())
    throw BinaryError("binary: type count exceeds payload size");
  std::vector<BlockTypePtr> types;
  types.reserve(typeCount);
  for (std::uint64_t i = 0; i < typeCount; ++i) {
    const std::string& name = tableAt(strings, r.varint());
    const std::uint8_t kind = r.u8();
    if (kind == kTypeCatalog) {
      try {
        types.push_back(blocks::defaultCatalog().get(name));
      } catch (const std::exception&) {
        throw BinaryError("binary: unknown catalog type '" + name + "'");
      }
    } else if (kind == kTypeEmbedded) {
      types.push_back(readEmbeddedType(r, strings, name));
    } else {
      throw BinaryError("binary: invalid type-table kind " +
                        std::to_string(kind));
    }
  }

  const std::uint64_t blockCount = r.varint();
  if (blockCount > r.remaining())
    throw BinaryError("binary: block count exceeds payload size");
  for (std::uint64_t b = 0; b < blockCount; ++b) {
    const std::string& instance = tableAt(strings, r.varint());
    const std::uint64_t typeId = r.varint();
    if (typeId >= types.size())
      throw BinaryError("binary: block type reference out of range");
    try {
      net.addBlock(instance, types[typeId]);
    } catch (const std::exception& e) {
      throw BinaryError(std::string("binary: invalid block: ") + e.what());
    }
  }

  const std::uint64_t arcCount = r.varint();
  if (arcCount > r.remaining())
    throw BinaryError("binary: connection count exceeds payload size");
  for (std::uint64_t i = 0; i < arcCount; ++i) {
    const std::uint64_t fb = r.varint();
    const std::uint64_t fp = r.varint();
    const std::uint64_t tb = r.varint();
    const std::uint64_t tp = r.varint();
    if (fb >= blockCount || tb >= blockCount || fp > 0xffff || tp > 0xffff)
      throw BinaryError("binary: connection endpoint out of range");
    try {
      net.connect(static_cast<BlockId>(fb), static_cast<int>(fp),
                  static_cast<BlockId>(tb), static_cast<int>(tp));
    } catch (const std::exception& e) {
      throw BinaryError(std::string("binary: invalid connection: ") +
                        e.what());
    }
  }
  if (!r.atEnd())
    throw BinaryError("binary: trailing bytes after network payload");
  return net;
}

// --- partitioning results ------------------------------------------------

namespace {

void writeBitSet(BinaryWriter& w, const BitSet& s) {
  const std::vector<std::uint32_t> members = s.toVector();
  w.varint(members.size());
  std::uint32_t prev = 0;
  for (std::size_t i = 0; i < members.size(); ++i) {
    // Ascending members delta-code tightly: first absolute, then gaps.
    w.varint(i == 0 ? members[0] : members[i] - prev);
    prev = members[i];
  }
}

BitSet readBitSet(BinaryReader& r, std::uint64_t universe) {
  BitSet s(universe);
  const std::uint64_t count = r.varint();
  if (count > universe)
    throw BinaryError("binary: partition member count exceeds universe");
  std::uint64_t at = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    // The first member is absolute, each later one a positive gap; both
    // are checked against the universe before the add, which cannot wrap.
    const std::uint64_t delta = r.varint();
    if (i == 0 ? delta >= universe : delta == 0 || delta >= universe - at)
      throw BinaryError("binary: partition member out of range");
    at = i == 0 ? delta : at + delta;
    s.set(at);
  }
  return s;
}

void writeCounterVector(BinaryWriter& w,
                        const std::vector<std::uint64_t>& v) {
  w.varint(v.size());
  for (const std::uint64_t x : v) w.varint(x);
}

std::vector<std::uint64_t> readCounterVector(BinaryReader& r) {
  const std::uint64_t count = r.varint();
  if (count > r.remaining())
    throw BinaryError("binary: counter vector length exceeds payload size");
  std::vector<std::uint64_t> v;
  v.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) v.push_back(r.varint());
  return v;
}

}  // namespace

std::string writePartitionRunBinary(const partition::PartitionRun& run) {
  BinaryWriter w;
  w.str(run.algorithm);
  const std::uint64_t universe =
      run.result.partitions.empty() ? 0 : run.result.partitions[0].size();
  w.varint(universe);
  w.varint(run.result.partitions.size());
  for (const BitSet& p : run.result.partitions) {
    if (p.size() != universe)
      throw BinaryError(
          "binary: partitions disagree on the block universe size");
    writeBitSet(w, p);
  }
  w.f64(run.seconds);
  w.u8(static_cast<std::uint8_t>((run.optimal ? 1 : 0) |
                                 (run.timedOut ? 2 : 0)));
  w.varint(run.explored);
  w.varint(run.pruned);
  writeCounterVector(w, run.workerExplored);
  writeCounterVector(w, run.workerPruned);
  return w.finish(SectionTag::kPartitionRun);
}

partition::PartitionRun readPartitionRunBinary(std::string_view frame) {
  namespace fp = core::failpoint;
  if (const fp::Hit hit = fp::check(fp::name::kIoReadRun);
      hit.mode == fp::Mode::kError)
    throw BinaryError("failpoint: injected partition-run read fault");
  BinaryReader r(frame, SectionTag::kPartitionRun);
  partition::PartitionRun run;
  run.algorithm = std::string(r.str());
  const std::uint64_t universe = r.varint();
  const std::uint64_t count = r.varint();
  if (count > universe && count > 0)
    throw BinaryError("binary: more partitions than universe blocks");
  // Each partition takes at least its member-count byte, so `count` is
  // bounded by the payload before the word product is formed.
  if (universe > kMaxRunUniverse || count > r.remaining() ||
      count * ((universe + 63) / 64) > kMaxRunWords)
    throw BinaryError("binary: partitions exceed the decoder's bounds (" +
                      std::to_string(count) + " over a universe of " +
                      std::to_string(universe) + ")");
  run.result.partitions.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i)
    run.result.partitions.push_back(readBitSet(r, universe));
  run.seconds = r.f64();
  const std::uint8_t flags = r.u8();
  if (flags & ~0x3u)
    throw BinaryError("binary: invalid run flags " + std::to_string(flags));
  run.optimal = (flags & 1) != 0;
  run.timedOut = (flags & 2) != 0;
  run.explored = r.varint();
  run.pruned = r.varint();
  run.workerExplored = readCounterVector(r);
  run.workerPruned = readCounterVector(r);
  if (!r.atEnd())
    throw BinaryError("binary: trailing bytes after partition-run payload");
  return run;
}

// --- text <-> binary converters ------------------------------------------

std::string netlistToBinary(const std::string& netlistText) {
  return writeNetworkBinary(readNetlist(netlistText));
}

std::string binaryToNetlist(std::string_view frame) {
  return writeNetlist(readNetworkBinary(frame));
}

}  // namespace eblocks::io
