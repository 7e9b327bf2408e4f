// Seeded payload mutations for the binary decoders' mutation loops
// (tests/io/run_frame_mutation_test.cpp, tests/cache/
// record_mutation_test.cpp).  A mutant is re-sealed after the damage --
// framed again with a fresh length and checksum -- so the damage reaches
// the payload decoder instead of stopping at the trailer, which the
// bit-flip tests in binary_roundtrip_test.cpp already cover.
#ifndef EBLOCKS_TESTS_IO_FRAME_MUTATOR_H_
#define EBLOCKS_TESTS_IO_FRAME_MUTATOR_H_

#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "io/binary.h"

namespace eblocks::io::testutil {

/// `payload` framed under `tag`: header, payload, checksum.
inline std::string sealed(SectionTag tag, std::string_view payload) {
  BinaryWriter w;
  w.bytes(payload);
  return w.finish(tag);
}

/// The payload of a well-formed frame.
inline std::string payloadOf(std::string_view frame, SectionTag tag) {
  BinaryReader r(frame, tag);
  return std::string(r.bytes(r.remaining()));
}

/// The LEB128 encoding of `v`.
inline std::string varintBytes(std::uint64_t v) {
  BinaryWriter w;
  w.varint(v);
  return w.payload();
}

/// `payload` with the varint at `offset` replaced by `v`.
inline std::string withVarint(std::string payload, std::size_t offset,
                              std::uint64_t v) {
  std::size_t end = offset;
  while (static_cast<std::uint8_t>(payload[end]) & 0x80) ++end;
  return payload.replace(offset, end + 1 - offset, varintBytes(v));
}

/// The payload offset of every varint in a well-formed run frame, in
/// io::writePartitionRunBinary's layout.
inline std::vector<std::size_t> runVarintOffsets(std::string_view frame) {
  BinaryReader r(frame, SectionTag::kPartitionRun);
  const std::size_t size = r.remaining();
  std::vector<std::size_t> at;
  const auto varint = [&] {
    at.push_back(size - r.remaining());
    return r.varint();
  };
  r.bytes(varint());  // algorithm name
  varint();           // universe
  // Partitions: a member count, then the members.
  for (std::uint64_t n = varint(); n > 0; --n)
    for (std::uint64_t m = varint(); m > 0; --m) varint();
  r.f64();    // seconds
  r.u8();     // flags
  varint();   // explored
  varint();   // pruned
  // The two worker-counter vectors: a length, then the counters.
  for (int k = 0; k < 2; ++k)
    for (std::uint64_t m = varint(); m > 0; --m) varint();
  return at;
}

/// One seeded mutation per call: overwrite, insert or delete a few bytes,
/// or replace one varint with an extreme value -- 0 or 2^k - 1 for k in
/// 7, 14, 32, 52, 63 and 64.
class FrameMutator {
 public:
  explicit FrameMutator(std::uint32_t seed) : rng_(seed) {}

  /// `payload` mutated once; `varints` are the offsets of its varints.
  std::string mutate(std::string payload,
                     const std::vector<std::size_t>& varints) {
    const std::size_t len = 1 + pick(4);
    switch (pick(4)) {
      case 0:  // overwrite
        for (std::size_t n = 0; n < len && !payload.empty(); ++n)
          payload[pick(payload.size())] = static_cast<char>(pick(256));
        return payload;
      case 1:  // insert
        for (std::size_t n = 0; n < len; ++n)
          payload.insert(pick(payload.size() + 1), 1,
                         static_cast<char>(pick(256)));
        return payload;
      case 2:  // delete
        if (!payload.empty()) payload.erase(pick(payload.size()), len);
        return payload;
      default: {  // one varint -> an extreme value
        static constexpr int kBits[] = {0, 7, 14, 32, 52, 63, 64};
        const int k = kBits[pick(7)];
        const std::uint64_t v =
            k == 0 ? 0 : k == 64 ? ~0ull : (std::uint64_t{1} << k) - 1;
        return withVarint(std::move(payload), varints[pick(varints.size())],
                          v);
      }
    }
  }

  /// Uniform in [0, n).
  std::size_t pick(std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng_);
  }

 private:
  std::mt19937 rng_;
};

}  // namespace eblocks::io::testutil

#endif  // EBLOCKS_TESTS_IO_FRAME_MUTATOR_H_
