// Adversarial wire-input tests: raw bytes straight at the socket --
// wrong protocols, hostile length fields, corrupted checksums, unknown
// tags, truncated frames, drip-fed frames, mid-request disconnects.
// The contract under attack is always the same: the server answers with
// a clean kBadFrame (or just drops the connection), never crashes,
// never wedges a worker, and keeps serving well-formed clients.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <variant>

#include "blocks/catalog.h"
#include "designs/library.h"
#include "io/binary.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server_test_util.h"

namespace eblocks::server {
namespace {

using namespace std::chrono_literals;
using testutil::paredownRequest;
using testutil::quickOptions;

class MalformedInput : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<Server>(quickOptions(1, 4));
    std::string error;
    ASSERT_TRUE(server_->start(&error)) << error;
  }

  /// Sends raw bytes and expects the kBadFrame reply followed by the
  /// server closing the connection.
  void expectBadFrameAndClose(const std::string& bytes) {
    Client client;
    std::string error;
    ASSERT_TRUE(client.connectTo("127.0.0.1", server_->port(), &error))
        << error;
    ASSERT_TRUE(client.sendFrame(bytes, &error)) << error;
    const auto msg = client.nextMessage(30000, &error);
    ASSERT_TRUE(msg) << error;
    ASSERT_TRUE(std::holds_alternative<ErrorReply>(*msg));
    EXPECT_EQ(std::get<ErrorReply>(*msg).code, ErrorCode::kBadFrame);
    // After the error flushes, the server closes.
    EXPECT_FALSE(client.nextFrame(30000, &error));
    EXPECT_EQ(error, "connection closed by server");
  }

  std::unique_ptr<Server> server_;
};

TEST_F(MalformedInput, HttpRequestGetsBadFrame) {
  // The classic wrong-protocol probe: readable ASCII has no EBLK magic.
  expectBadFrameAndClose("GET / HTTP/1.0\r\nHost: example\r\n\r\n");
  testutil::expectServerStillServes(*server_, designs::figure5());
}

TEST_F(MalformedInput, OversizedDeclaredLengthRejectedFromHeaderAlone) {
  // 16 header bytes claiming a 1 TiB payload: the reject must come from
  // the header peek, without the server waiting for (or buffering) the
  // declared bytes.
  std::string header = encodeCancel(CancelRequest{1}).substr(0, 16);
  const std::uint64_t huge = 1ull << 40;
  for (int i = 0; i < 8; ++i)
    header[8 + i] = static_cast<char>((huge >> (8 * i)) & 0xff);
  expectBadFrameAndClose(header);
  testutil::expectServerStillServes(*server_, designs::figure5());
}

TEST_F(MalformedInput, CorruptedChecksumGetsBadFrame) {
  std::string frame = encodeRequest(paredownRequest(1, designs::figure5()));
  frame[frame.size() / 2] =
      static_cast<char>(frame[frame.size() / 2] ^ 0x10);  // payload bit flip
  expectBadFrameAndClose(frame);
  testutil::expectServerStillServes(*server_, designs::figure5());
}

TEST_F(MalformedInput, BadVersionGetsBadFrame) {
  std::string frame = encodeCancel(CancelRequest{1});
  frame[4] = static_cast<char>(0xff);
  frame[5] = static_cast<char>(0xff);
  expectBadFrameAndClose(frame);
  testutil::expectServerStillServes(*server_, designs::figure5());
}

TEST_F(MalformedInput, DiskFormatTagSentToServerGetsBadFrame) {
  // A perfectly valid *network* frame is still not a server message.
  expectBadFrameAndClose(io::writeNetworkBinary(designs::figure5()));
  testutil::expectServerStillServes(*server_, designs::figure5());
}

TEST_F(MalformedInput, TruncatedFrameThenDisconnectIsHarmless) {
  const std::string frame =
      encodeRequest(paredownRequest(1, designs::figure5()));
  {
    Client client;
    std::string error;
    ASSERT_TRUE(client.connectTo("127.0.0.1", server_->port(), &error))
        << error;
    // Half a frame, then vanish: the server is left holding an
    // incomplete read buffer it must simply discard.
    ASSERT_TRUE(client.sendFrame(frame.substr(0, frame.size() / 2), &error))
        << error;
    std::this_thread::sleep_for(100ms);
  }
  testutil::expectServerStillServes(*server_, designs::figure5());
}

TEST_F(MalformedInput, DripFedFrameStillAssembles) {
  // The inverse attack surface: a *valid* frame arriving one fragment
  // at a time must reassemble and be served normally.
  Client client;
  std::string error;
  ASSERT_TRUE(client.connectTo("127.0.0.1", server_->port(), &error))
      << error;
  const Network net = designs::figure5();
  const SynthRequest request = paredownRequest(1, net);
  const std::string frame = encodeRequest(request);
  const std::size_t chunk = frame.size() / 7 + 1;
  for (std::size_t off = 0; off < frame.size(); off += chunk) {
    ASSERT_TRUE(
        client.sendFrame(frame.substr(off, chunk), &error)) << error;
    std::this_thread::sleep_for(10ms);
  }
  for (;;) {
    const auto msg = client.nextMessage(30000, &error);
    ASSERT_TRUE(msg) << error;
    if (std::holds_alternative<Progress>(*msg)) continue;
    ASSERT_TRUE(std::holds_alternative<SynthResponse>(*msg));
    testutil::expectBitIdentical(net, request,
                                 std::get<SynthResponse>(*msg));
    break;
  }
}

/// `net` with `block`'s type swapped for an embedded compute type that has
/// the same ports and `behavior` as its program text.
Network withBehavior(const Network& net, const std::string& block,
                     const std::string& behavior) {
  Network out(net.name());
  const BlockId target = *net.findBlock(block);
  for (BlockId b = 0; b < net.blockCount(); ++b) {
    BlockTypePtr type = net.block(b).type;
    if (b == target)
      type = std::make_shared<const BlockType>(
          "deep_" + type->name(), type->blockClass(), type->inputNames(),
          type->outputNames(), behavior);
    out.addBlock(net.block(b).name, std::move(type));
  }
  for (const Connection& c : net.connections()) out.connect(c.from, c.to);
  return out;
}

TEST(MalformedBehavior, TooDeepNestingGetsSynthFailedNotACrash) {
  // Two frames that used to overflow the stack in the first parse of the
  // embedded type (structureHash with the cache on, the behavior merge
  // with it off): parentheses 10,000 deep (~20 KB), and a left-deep
  // 100,000-term sum (~400 KB).
  std::string sum = "out = !a";
  for (int i = 0; i < 100'000; ++i) sum += " + a";
  sum += ";\n";
  const std::string behaviors[] = {
      "out = " + std::string(10'000, '(') + "!a" + std::string(10'000, ')') +
          ";\n",
      sum,
  };
  ServerOptions options = quickOptions(1, 4);
  options.cacheEnabled = true;  // in-memory store; useCache picks the path
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  std::uint64_t id = 1;
  for (const std::string& behavior : behaviors)
    for (const bool useCache : {false, true}) {
      SCOPED_TRACE(useCache ? "cache on" : "cache off");
      const Network net =
          withBehavior(designs::garageOpenAtNight(), "is_dark", behavior);
      SynthRequest request = paredownRequest(id++, net);
      request.useCache = useCache;
      Client client;
      ASSERT_TRUE(client.connectTo("127.0.0.1", server.port(), &error))
          << error;
      ASSERT_TRUE(client.sendFrame(encodeRequest(request), &error)) << error;
      std::optional<ServerMessage> msg;
      do {
        msg = client.nextMessage(30000, &error);
        ASSERT_TRUE(msg) << error;
      } while (std::holds_alternative<Progress>(*msg));
      ASSERT_TRUE(std::holds_alternative<ErrorReply>(*msg));
      const ErrorReply& reply = std::get<ErrorReply>(*msg);
      EXPECT_EQ(reply.id, request.id);
      EXPECT_EQ(reply.code, ErrorCode::kSynthFailed);
      EXPECT_NE(reply.message.find("nesting deeper than"), std::string::npos)
          << reply.message;
      // Exactly one reply: nothing else arrives for this request.
      EXPECT_FALSE(client.nextMessage(200, &error));
    }
  EXPECT_EQ(server.stats().synthFailed, 4u);
  testutil::expectServerStillServes(server, designs::figure5());
}

TEST_F(MalformedInput, HugePortBudgetLeavesTheCatalogAlone) {
  // The largest input budget the protocol admits (2^20) names the
  // synthesized types prog_1048576x1_pK.  Encoding the reply must embed
  // them, not materialize a million-port catalog type on the executor.
  const Network net = designs::figure5();
  const std::size_t typesBefore = blocks::defaultCatalog().names().size();
  SynthRequest request = paredownRequest(1, net);
  request.inputs = 1 << 20;
  request.outputs = 1;
  Client client;
  std::string error;
  ASSERT_TRUE(client.connectTo("127.0.0.1", server_->port(), &error))
      << error;
  const CallResult result = client.call(request, /*timeoutMs=*/30000);
  ASSERT_TRUE(result.ok()) << (result.error ? result.error->message
                                            : "timeout");
  testutil::expectBitIdentical(net, request, *result.response);
  EXPECT_EQ(blocks::defaultCatalog().names().size(), typesBefore);
}

TEST_F(MalformedInput, HugeCatalogTypeInTheNetworkGetsOneBadRequest) {
  // A well-framed request whose network names the catalog type
  // prog_20000000x1: decoding it must fail cleanly on the loop thread,
  // before any type is built.  The frame is a real one with a same-length
  // catalog name swapped in and its checksum recomputed.
  Network net = designs::figure5();
  net.addBlock("hostile", blocks::defaultCatalog().delay(123456789));
  const std::string frame = io::writeNetworkBinary(net);
  std::string payload = frame.substr(16, frame.size() - 24);
  const std::size_t at = payload.find("delay_123456789");
  ASSERT_NE(at, std::string::npos);
  payload.replace(at, 15, "prog_20000000x1");
  io::BinaryWriter hostile;
  hostile.bytes(payload);
  SynthRequest request = paredownRequest(7, net);
  request.networkFrame = hostile.finish(io::SectionTag::kNetwork);

  const std::size_t typesBefore = blocks::defaultCatalog().names().size();
  Client client;
  std::string error;
  ASSERT_TRUE(client.connectTo("127.0.0.1", server_->port(), &error))
      << error;
  ASSERT_TRUE(client.sendFrame(encodeRequest(request), &error)) << error;
  const auto msg = client.nextMessage(30000, &error);
  ASSERT_TRUE(msg) << error;
  ASSERT_TRUE(std::holds_alternative<ErrorReply>(*msg));
  const ErrorReply& reply = std::get<ErrorReply>(*msg);
  EXPECT_EQ(reply.id, request.id);
  EXPECT_EQ(reply.code, ErrorCode::kBadRequest);
  EXPECT_NE(reply.message.find("prog_20000000x1"), std::string::npos)
      << reply.message;
  // Exactly one reply: nothing else arrives for this request.
  EXPECT_FALSE(client.nextMessage(200, &error));
  EXPECT_EQ(blocks::defaultCatalog().names().size(), typesBefore);
  testutil::expectServerStillServes(*server_, designs::figure5());
}

TEST_F(MalformedInput, GarbageFloodNeverWedgesTheServer) {
  // Several hostile connections in a row, each a different malformation;
  // afterwards the server must still serve a clean request with one
  // executor -- proof no worker thread was wedged or leaked.
  const std::string valid =
      encodeRequest(paredownRequest(1, designs::figure5()));
  const std::string attacks[] = {
      std::string(64, '\0'),
      std::string("EBLK"),  // magic alone, then EOF
      valid.substr(0, 20),
      [&] {
        std::string f = valid;
        f[6] = 100;  // unknown tag byte
        return f;
      }(),
  };
  for (const std::string& attack : attacks) {
    Client client;
    std::string error;
    ASSERT_TRUE(client.connectTo("127.0.0.1", server_->port(), &error))
        << error;
    ASSERT_TRUE(client.sendFrame(attack, &error)) << error;
    // Whatever the server does (error frame, close, or silent wait for
    // more bytes), disconnecting must leave it healthy.
    client.nextFrame(200, &error);
  }
  testutil::expectServerStillServes(*server_, designs::figure5());
  EXPECT_EQ(server_->stats().synthFailed, 0u);
}

}  // namespace
}  // namespace eblocks::server
