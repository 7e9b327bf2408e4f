// The eblocksd wire protocol: synthesis-as-a-service messages framed by
// the io/binary discipline (magic, version window, section tag, payload
// length, FNV-1a-64 checksum -- see io/binary.h and docs/server.md).
//
// A connection is a byte stream of frames in either direction.  The
// client sends kServerRequest and kServerCancel frames; the server
// answers with exactly one kServerResponse *or* kServerError per
// request, plus any number of kServerProgress ticks in between.
// Request ids are chosen by the client and scoped to its connection, so
// concurrent requests over one connection multiplex cleanly.
//
// Stream reassembly is the 16-byte header's job: peekFrameHeader()
// validates the magic/version/reserved byte and the payload-length cap
// as soon as the header bytes arrive -- before the payload is buffered,
// so a frame claiming an absurd length is rejected without allocating
// -- and frameSize() says how many bytes the complete frame occupies.
// Full validation (checksum, tag, payload decode) happens once the
// whole frame is in hand, through the same BinaryReader every disk
// format uses: a damaged or truncated frame is always a clean
// ProtocolError, never UB (tests/server/protocol_test.cpp flips bits
// and truncates at every boundary to prove it).
#ifndef EBLOCKS_SERVER_PROTOCOL_H_
#define EBLOCKS_SERVER_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "io/binary.h"

namespace eblocks::server {

/// Protocol-level failure: a frame or payload that cannot be decoded.
/// Derives from BinaryError so callers catching the io layer's error
/// catch this too.
class ProtocolError : public io::BinaryError {
 public:
  using io::BinaryError::BinaryError;
};

/// Hard cap on a wire frame's payload (16 MiB).  Far above any real
/// design (the largest bench networks serialize to a few hundred KiB)
/// and small enough that a hostile length field cannot balloon a
/// connection's read buffer.
inline constexpr std::uint64_t kMaxWirePayload = 16ull << 20;

/// Error codes carried by kServerError frames (docs/server.md has the
/// table).  Stable on the wire: new codes append, old codes never
/// renumber.
enum class ErrorCode : std::uint16_t {
  kBadFrame = 1,      ///< unparseable frame; the server closes after sending
  kBadRequest = 2,    ///< well-formed frame, invalid content (unknown
                      ///< algorithm, bad network payload, bad option value)
  kOverloaded = 3,    ///< job queue full; retry after `retryAfterMs`
  kCancelled = 4,     ///< request cancelled (kServerCancel or disconnect)
  kSynthFailed = 5,   ///< synthesize() threw (e.g. network fails validation)
  kShuttingDown = 6,  ///< server is draining; no new work accepted
  kUnknownRequest = 7,  ///< cancel for an id this connection never sent
  kDuplicateRequest = 8,  ///< request id already in flight on the connection
};

const char* toString(ErrorCode code);

/// A synthesis request.  Options mirror synth::SynthOptions /
/// partition::EngineOptions; knobs not on the wire (convexity, LNS
/// tuning) take their defaults, so a served result is
/// bit-identical to a one-shot synthesize() with these options.
struct SynthRequest {
  std::uint64_t id = 0;  ///< client-chosen, unique per connection
  std::string algorithm = "paredown";  ///< partition::strategies() name
  int inputs = 2;      ///< programmable-block port budget
  int outputs = 2;
  int threads = 1;     ///< search workers (0 = hardware concurrency)
  double timeLimitSeconds = 60.0;  ///< anytime budget (0 = no limit)
  bool prune = true;   ///< admissible lower-bound pruning
  bool useCache = true;  ///< consult the server's solution store
  std::string networkFrame;  ///< the design, as a kNetwork binary frame
};

/// What the server did with a request, mirroring synth::SynthResult:
/// the synthesized network and the partition run ride along as nested
/// binary frames, so clients decode them with the standard readers and
/// bit-identity against a local run is a byte comparison.
struct SynthResponse {
  std::uint64_t id = 0;
  std::uint8_t cacheOutcome = 0;  ///< synth::CacheOutcome
  int originalInner = 0;
  int innerAfter = 0;
  int programmableBlocks = 0;
  double seconds = 0.0;  ///< partitioning wall time (informational)
  /// Degradation tier of the result ("" = exact/undegraded).  Set only
  /// by the `ladder` strategy when the deadline stopped it short of a
  /// proven optimum: "exact-anytime", "lns", "fm", or "greedy" -- the
  /// deepest rung the deadline allowed (see docs/robustness.md).
  std::string degradedTier;
  std::string networkFrame;  ///< synthesized network (kNetwork frame)
  std::string runFrame;      ///< partition::PartitionRun (kPartitionRun)
};

/// A streamed progress tick for one in-flight request.
struct Progress {
  std::uint64_t id = 0;
  enum class State : std::uint8_t { kQueued = 0, kRunning = 1 };
  State state = State::kQueued;
  std::uint64_t queuePosition = 0;  ///< jobs ahead (kQueued only)
  std::uint64_t exploredNodes = 0;  ///< search effort so far (4096 granules)
  double elapsedSeconds = 0.0;      ///< since the request was accepted
};

/// An error reply.  `id` 0 means the error is not attributable to a
/// request (an unparseable frame).  `retryAfterMs` is non-zero only for
/// kOverloaded: the backpressure contract's "come back later" hint.
struct ErrorReply {
  std::uint64_t id = 0;
  ErrorCode code = ErrorCode::kBadFrame;
  std::uint64_t retryAfterMs = 0;
  std::string message;
};

/// Client-initiated cancellation of a pending or running request.
struct CancelRequest {
  std::uint64_t id = 0;
};

// --- framing ------------------------------------------------------------

/// The frame header, as peeked from the first 16 bytes of a stream.
struct FrameHeader {
  std::uint16_t version = 0;
  io::SectionTag tag{};
  std::uint64_t payloadLength = 0;
};

/// Validates the fixed 16-byte header prefix of `buffer` (magic,
/// version window, reserved byte, payload cap) and returns it; nullopt
/// when fewer than 16 bytes are available yet.  Throws ProtocolError on
/// a header that can never become a valid frame -- the caller must drop
/// the connection, since stream sync is lost.
std::optional<FrameHeader> peekFrameHeader(std::string_view buffer);

/// Total frame size (header + payload + checksum) for a peeked header.
std::size_t frameSize(const FrameHeader& header);

// --- message encode / decode --------------------------------------------

std::string encodeRequest(const SynthRequest& request);
SynthRequest decodeRequest(std::string_view frame);

std::string encodeResponse(const SynthResponse& response);
SynthResponse decodeResponse(std::string_view frame);

std::string encodeProgress(const Progress& progress);
Progress decodeProgress(std::string_view frame);

std::string encodeError(const ErrorReply& error);
ErrorReply decodeError(std::string_view frame);

std::string encodeCancel(const CancelRequest& cancel);
CancelRequest decodeCancel(std::string_view frame);

}  // namespace eblocks::server

#endif  // EBLOCKS_SERVER_PROTOCOL_H_
