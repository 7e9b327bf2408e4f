#include "codegen/c_emitter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "behavior/parser.h"
#include "blocks/catalog.h"
#include "core/levels.h"
#include "designs/library.h"

namespace eblocks::codegen {
namespace {

using blocks::defaultCatalog;

MergedProgram figure5Partition2345() {
  static const Network net = designs::figure5();
  BitSet p = net.emptySet();
  for (int node : {2, 3, 4, 5}) p.set(static_cast<std::size_t>(node - 1));
  return mergePartitionProgram(net, p, computeLevels(net),
                               CountingMode::kEdges);
}

TEST(CEmitter, EmitsCompleteTranslationUnit) {
  const std::string c = emitC(figure5Partition2345());
  EXPECT_NE(c.find("#include <stdint.h>"), std::string::npos);
  EXPECT_NE(c.find("typedef struct"), std::string::npos);
  EXPECT_NE(c.find("void eb_reset(eb_state_t* st)"), std::string::npos);
  EXPECT_NE(c.find("void eb_eval(eb_state_t* st,"), std::string::npos);
  EXPECT_NE(c.find("#define EB_NUM_IN 2"), std::string::npos);
  EXPECT_NE(c.find("#define EB_NUM_OUT 2"), std::string::npos);
}

TEST(CEmitter, StateVariablesLiveInStruct) {
  const std::string c = emitC(figure5Partition2345());
  // Node 2 is a toggle: its state must appear as struct fields and be
  // accessed through st->.
  EXPECT_NE(c.find("int32_t b1_q;"), std::string::npos) << c;
  EXPECT_NE(c.find("st->b1_q"), std::string::npos);
}

TEST(CEmitter, PortsMapToArrays) {
  const std::string c = emitC(figure5Partition2345());
  EXPECT_NE(c.find("in[0]"), std::string::npos);
  EXPECT_NE(c.find("in[1]"), std::string::npos);
  EXPECT_NE(c.find("out[0] ="), std::string::npos);
  EXPECT_NE(c.find("out[1] ="), std::string::npos);
}

TEST(CEmitter, CustomPrefix) {
  CEmitOptions options;
  options.symbolPrefix = "pt3";
  const std::string c = emitC(figure5Partition2345(), options);
  EXPECT_NE(c.find("pt3_state_t"), std::string::npos);
  EXPECT_NE(c.find("PT3_NUM_IN"), std::string::npos);
  EXPECT_EQ(c.find("eb_state_t"), std::string::npos);
}

TEST(CEmitter, SkeletonAndHarnessAreOptIn) {
  const MergedProgram m = figure5Partition2345();
  const std::string plain = emitC(m);
  EXPECT_EQ(plain.find("FIRMWARE_MAIN"), std::string::npos);
  EXPECT_EQ(plain.find("TEST_HARNESS"), std::string::npos);
  CEmitOptions options;
  options.emitMainSkeleton = true;
  options.emitTestHarness = true;
  const std::string full = emitC(m, options);
  EXPECT_NE(full.find("EB_FIRMWARE_MAIN"), std::string::npos);
  EXPECT_NE(full.find("EB_TEST_HARNESS"), std::string::npos);
  EXPECT_NE(full.find("eb_rx_packet"), std::string::npos);
}

TEST(CEmitter, UnknownNameThrows) {
  // `mystery` is neither declared, nor a port, nor tick; `in0` is not a
  // port of a block with no inputs.  `out0`, where present, is the one
  // output port.
  for (const char* source : {"mystery = 1;", "out0 = in0;"}) {
    MergedProgram m;
    m.program = behavior::parse(source);
    const auto out0 = std::ranges::find(m.program.names, "out0");
    if (out0 != m.program.names.end()) {
      m.outputEdges.resize(1);
      m.outputSlots.push_back(
          static_cast<behavior::Index>(out0 - m.program.names.begin()));
    }
    try {
      (void)emitC(m);
      ADD_FAILURE() << source;
    } catch (const CodegenError& e) {
      EXPECT_NE(std::string(e.what()).find("unknown name"), std::string::npos);
    }
  }
}

TEST(CEmitter, HeaderListsMembersAndPorts) {
  const std::string c = emitC(figure5Partition2345());
  EXPECT_NE(c.find("2 input(s), 2 output(s)"), std::string::npos);
  EXPECT_NE(c.find("PIC16F628"), std::string::npos);
}

}  // namespace
}  // namespace eblocks::codegen
