// Compact binary wire/disk format for networks and partitioning results.
//
// The text netlist (netlist.h) is the human interface; this is the
// machine one: the solution cache (cache/solution_store.h) persists its
// records in it, and a future synthesis daemon speaks it on the wire.
// Beyond compactness it covers one thing the text format cannot:
// synthesized programmable blocks embed their merged behavior program,
// which the netlist grammar has no syntax for, while the binary type
// table simply inlines the full descriptor -- so *synthesis results*
// round-trip, not just source designs.
//
// Frame layout (all integers little-endian; varints are LEB128):
//
//   offset 0   u32   magic "EBLK" (0x4B4C4245)
//          4   u16   format version (kBinaryVersion; readers reject
//                    anything outside [kBinaryMinVersion, kBinaryVersion])
//          6   u8    section tag (what the payload encodes)
//          7   u8    reserved, must be 0
//          8   u64   payload length in bytes
//         16   ...   payload
//   16+len     u64   FNV-1a-64 checksum of bytes [0, 16+len)
//
// The checksum closes the frame: truncation changes the length
// arithmetic and any bit flip -- header or payload -- changes the
// digest, so a damaged frame is always a clean BinaryError, never a
// silently-wrong decode or UB (tests/io/binary_roundtrip_test.cpp
// flips every bit to prove it).
//
// Payloads begin with a string table (varint count, then varint-length-
// prefixed bytes); everything that repeats -- type names, port names,
// instance names -- is a varint index into it.  A network's connections
// are stored as one flat arc stripe in insertion order: the in-memory
// analogue is partition/compact_graph's CSR arc array, and insertion
// order is semantic (the simulator's activation order and the netlist
// writer both follow it), so the stripe preserves it exactly and a
// decoded network is bit-identical to the source, netlist text included.
//
// Versioning policy (docs/formats.md has the full rules): readers
// accept [kBinaryMinVersion, kBinaryVersion]; a format change bumps
// kBinaryVersion, and either keeps a decode path for the old layout or
// raises kBinaryMinVersion so old files fail with a clear message --
// never a misparse.  tests/data/ pins golden frames for two paper
// designs, and tests/io/binary_roundtrip_test.cpp crafts frames on both
// sides of the version window to hold the policy in place.
#ifndef EBLOCKS_IO_BINARY_H_
#define EBLOCKS_IO_BINARY_H_

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/network.h"
#include "partition/result.h"

namespace eblocks::io {

class BinaryError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr std::uint32_t kBinaryMagic = 0x4B4C4245u;  // "EBLK"
inline constexpr std::uint16_t kBinaryVersion = 1;
inline constexpr std::uint16_t kBinaryMinVersion = 1;

/// FNV-1a-64 of `bytes`, starting from `basis`: the frame checksum (with
/// the standard offset basis), and the string hash the cache's canonical
/// hash and the daemon's replay key build on.
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;
inline std::uint64_t fnv1a64(std::string_view bytes,
                             std::uint64_t basis = kFnvBasis) {
  std::uint64_t h = basis;
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// What a frame's payload encodes.  Tags 4-8 are the synthesis daemon's
/// wire messages (src/server/protocol.h encodes and decodes them; the
/// frame discipline -- magic, version window, length, checksum -- is
/// identical to the disk formats').
enum class SectionTag : std::uint8_t {
  kNetwork = 1,       ///< a Network (writeNetworkBinary)
  kPartitionRun = 2,  ///< a partition::PartitionRun (writePartitionRunBinary)
  kSolutionRecord = 3,  ///< a solution-cache record (cache/solution_store)
  kServerRequest = 4,   ///< client -> server: a synthesis request
  kServerResponse = 5,  ///< server -> client: a completed synthesis
  kServerProgress = 6,  ///< server -> client: a streamed progress tick
  kServerError = 7,     ///< server -> client: a protocol or job error
  kServerCancel = 8,    ///< client -> server: cancel a pending request
};

// --- the frame primitives (shared with cache/solution_store) -----------

/// Accumulates a payload and closes it into a framed binary string.
/// The version parameter exists for the format-compatibility tests;
/// production writers always emit kBinaryVersion.
class BinaryWriter {
 public:
  void u8(std::uint8_t v) { payload_.push_back(static_cast<char>(v)); }
  void u64(std::uint64_t v);              ///< fixed 8 bytes, little-endian
  void varint(std::uint64_t v);           ///< LEB128
  void f64(double v);                     ///< IEEE-754 bits via u64
  void str(std::string_view v);           ///< varint length + bytes
  void bytes(std::string_view v) { payload_.append(v); }  ///< raw append

  /// The unframed payload accumulated so far.  Lets a writer that must
  /// emit a prefix last (e.g. the string table interned while encoding
  /// the body) splice one payload into another via bytes().
  const std::string& payload() const { return payload_; }

  /// Frames the payload: header + payload + checksum.
  std::string finish(SectionTag tag,
                     std::uint16_t version = kBinaryVersion) const;

 private:
  std::string payload_;
};

/// Validates a frame (magic, version window, tag, length, checksum) on
/// construction -- all failure modes throw BinaryError -- then decodes
/// the payload.  Every accessor range-checks; reading past the payload
/// throws instead of reading the checksum trailer or beyond.
class BinaryReader {
 public:
  BinaryReader(std::string_view frame, SectionTag expected);

  std::uint8_t u8();
  std::uint64_t u64();
  std::uint64_t varint();
  double f64();
  std::string_view str();
  std::string_view bytes(std::size_t n);
  bool atEnd() const { return pos_ == payload_.size(); }
  std::size_t remaining() const { return payload_.size() - pos_; }

 private:
  std::string_view payload_;
  std::size_t pos_ = 0;
};

// --- networks -----------------------------------------------------------

/// Serializes a network, including any embedded (synthesized or custom)
/// block types the catalog cannot resolve by name.
std::string writeNetworkBinary(const Network& net);

/// Decodes a network frame.  Throws BinaryError on any malformation
/// (bad frame, unknown catalog type, invalid connection, ...).
Network readNetworkBinary(std::string_view frame);

// --- partitioning results ------------------------------------------------

/// Serializes a PartitionRun (algorithm, partitions as delta-coded
/// member lists over the block universe, metrics and worker counters).
std::string writePartitionRunBinary(const partition::PartitionRun& run);

/// What one run frame may make the decoder allocate: a block universe of
/// at most kMaxRunUniverse blocks, and at most kMaxRunWords 64-bit BitSet
/// words over all its partitions together.  The largest design built here
/// has under 2,000 blocks.
inline constexpr std::uint64_t kMaxRunUniverse = 1ull << 24;
inline constexpr std::uint64_t kMaxRunWords = 1ull << 20;

/// Decodes a PartitionRun frame.  Throws BinaryError on malformation,
/// including a frame outside the bounds above.
partition::PartitionRun readPartitionRunBinary(std::string_view frame);

// --- text <-> binary converters ------------------------------------------

/// readNetlist + writeNetworkBinary: netlist text to a binary frame.
std::string netlistToBinary(const std::string& netlistText);

/// readNetworkBinary + writeNetlist: binary frame back to netlist text.
/// Inherits writeNetlist's restriction: synthesized programmable blocks
/// have no netlist syntax, so frames containing them throw NetlistError.
std::string binaryToNetlist(std::string_view frame);

}  // namespace eblocks::io

#endif  // EBLOCKS_IO_BINARY_H_
