// Co-simulation of emitted C against the behavior interpreter: the
// generated C program for a synthesized block is compiled with the host
// C compiler and driven with the same input vectors as the interpreter;
// outputs must match step for step.  This is the software stand-in for the
// paper's "compile and download onto the physical PIC block" validation.
#include <gtest/gtest.h>
#include <unistd.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <random>
#include <sstream>

#include "behavior/interpreter.h"
#include "codegen/c_emitter.h"
#include "codegen/merge_program.h"
#include "core/levels.h"
#include "designs/library.h"
#include "synth/synthesizer.h"

namespace eblocks {
namespace {

bool hostCompilerAvailable() {
  return std::system("cc --version > /dev/null 2>&1") == 0;
}

/// Compiles `cSource` (with the test harness enabled) and runs it against
/// `script` (lines of harness commands); returns stdout.  Artifact names
/// carry the test name and pid: `ctest -j` schedules the suites of this
/// binary concurrently with other processes sharing TempDir(), and fixed
/// names let one test execute another's freshly compiled binary.
std::string runGeneratedC(const std::string& cSource,
                          const std::string& script) {
  const std::string dir = ::testing::TempDir();
  const std::string tag =
      std::string("eb_gen_") +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      "_" + std::to_string(static_cast<long>(::getpid()));
  const std::string cPath = dir + "/" + tag + ".c";
  const std::string binPath = dir + "/" + tag;
  const std::string inPath = dir + "/" + tag + "_in.txt";
  const std::string outPath = dir + "/" + tag + "_out.txt";
  {
    std::ofstream f(cPath);
    f << cSource;
  }
  {
    std::ofstream f(inPath);
    f << script;
  }
  const std::string compile =
      "cc -std=c99 -O1 -DEB_TEST_HARNESS -o " + binPath + " " + cPath +
      " 2> " + dir + "/" + tag + "_cc.log";
  if (std::system(compile.c_str()) != 0) {
    std::ifstream log(dir + "/" + tag + "_cc.log");
    std::stringstream ss;
    ss << log.rdbuf();
    ADD_FAILURE() << "cc failed:\n" << ss.str();
    return {};
  }
  const std::string run = binPath + " < " + inPath + " > " + outPath;
  EXPECT_EQ(std::system(run.c_str()), 0);
  std::ifstream out(outPath);
  std::stringstream ss;
  ss << out.rdbuf();
  return ss.str();
}

/// Interpreter reference for the same command script.
std::string runInterpreter(const codegen::MergedProgram& merged,
                           const std::string& script) {
  const behavior::Program& p = merged.program;
  std::vector<std::int64_t> vars(p.names.size(), 0);
  const auto var = [&](const std::string& name) -> std::int64_t& {
    return vars.at(static_cast<std::size_t>(behavior::findSlot(p, name)));
  };
  behavior::initializeState(p, vars);
  std::istringstream in(script);
  std::ostringstream out;
  std::string cmd;
  while (in >> cmd) {
    if (cmd == "set") {
      int port, value;
      in >> port >> value;
      var("in" + std::to_string(port)) = value;
      var("tick") = 0;
    } else if (cmd == "tick") {
      // Mirror the harness: tick pass followed by cascade pass.
      var("tick") = 1;
      behavior::execute(p, vars);
      var("tick") = 0;
    } else {  // eval
      var("tick") = 0;
    }
    behavior::execute(p, vars);
    for (int k = 0; k < merged.outputCount(); ++k)
      out << var("out" + std::to_string(k))
          << (k + 1 == merged.outputCount() ? '\n' : ' ');
    if (merged.outputCount() == 0) out << '\n';
  }
  return out.str();
}

std::string randomScript(int inputs, int steps, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::ostringstream out;
  for (int i = 0; i < steps; ++i) {
    const int kind = static_cast<int>(rng() % 4);
    if (kind == 0 || inputs == 0) {
      out << (kind == 1 ? "eval\n" : "tick\n");
    } else {
      out << "set " << rng() % static_cast<unsigned>(inputs) << " "
          << rng() % 2 << "\n";
    }
  }
  return out.str();
}

class GeneratedC : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!hostCompilerAvailable()) GTEST_SKIP() << "no host C compiler";
  }
};

TEST_F(GeneratedC, Figure5PartitionsMatchInterpreter) {
  const Network net = designs::figure5();
  const synth::SynthResult r = synth::synthesize(net);
  ASSERT_EQ(r.blocks.size(), 2u);
  for (const auto& block : r.blocks) {
    codegen::CEmitOptions options;
    options.emitTestHarness = true;
    const std::string c = codegen::emitC(block.merged, options);
    const std::string script =
        randomScript(block.merged.inputCount(), 400, 0xC0FFEE);
    EXPECT_EQ(runGeneratedC(c, script), runInterpreter(block.merged, script))
        << block.instanceName;
  }
}

TEST_F(GeneratedC, WholeLibrarySpotChecks) {
  int checked = 0;
  for (const auto& entry : designs::designLibrary()) {
    const synth::SynthResult r = synth::synthesize(entry.network);
    if (r.blocks.empty()) continue;
    const auto& block = r.blocks.front();
    codegen::CEmitOptions options;
    options.emitTestHarness = true;
    const std::string c = codegen::emitC(block.merged, options);
    const std::string script =
        randomScript(block.merged.inputCount(), 200,
                     static_cast<std::uint32_t>(checked) + 17u);
    EXPECT_EQ(runGeneratedC(c, script), runInterpreter(block.merged, script))
        << entry.name;
    if (++checked >= 4) break;  // keep the suite fast
  }
  EXPECT_GT(checked, 0);
}

}  // namespace
}  // namespace eblocks
