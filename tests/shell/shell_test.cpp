#include "shell/shell.h"

#include <gtest/gtest.h>

#include <sstream>

namespace eblocks::shell {
namespace {

std::string runScript(const std::string& script) {
  Shell shell;
  std::istringstream in(script);
  std::ostringstream out;
  shell.run(in, out);
  return out.str();
}

std::string exec(Shell& shell, const std::string& line) {
  std::ostringstream out;
  shell.execute(line, out);
  return out.str();
}

TEST(Shell, BuildSimulateByHand) {
  const std::string out = runScript(
      "new demo\n"
      "block s button\n"
      "block inv not\n"
      "block lamp led\n"
      "connect s.0 inv.0\n"
      "connect inv.0 lamp.0\n"
      "sim\n"
      "outputs\n"
      "set s 1\n");
  EXPECT_NE(out.find("new design 'demo'"), std::string::npos);
  EXPECT_NE(out.find("placed inv (not)"), std::string::npos);
  EXPECT_NE(out.find("lamp = 1"), std::string::npos);  // after power-up
  EXPECT_NE(out.find("lamp = 0"), std::string::npos);  // after set s 1
}

TEST(Shell, LoadLibraryDesignAndSynthesize) {
  const std::string out = runScript(
      "design Podium Timer 3\n"
      "synth paredown 2 2\n"
      "use synth\n"
      "sim\n"
      "outputs\n");
  EXPECT_NE(out.find("loaded 'Podium Timer 3' (12 blocks, 8 inner)"),
            std::string::npos);
  EXPECT_NE(out.find("8 -> 3"), std::string::npos);
  EXPECT_NE(out.find("green_led = 0"), std::string::npos);
}

TEST(Shell, PressAndTickDriveSequentialLogic) {
  Shell shell;
  exec(shell, "design Podium Timer 3");
  exec(shell, "sim");
  exec(shell, "press start_button");
  std::string out;
  for (int i = 0; i < 12; ++i) out = exec(shell, "tick");
  EXPECT_NE(out.find("green_led = 1"), std::string::npos) << out;
}

TEST(Shell, ProbeReadsInternals) {
  Shell shell;
  exec(shell, "design Podium Timer 3");
  exec(shell, "sim");
  exec(shell, "press start_button");
  const std::string out = exec(shell, "probe running q");
  EXPECT_NE(out.find("running.q = 1"), std::string::npos) << out;
}

TEST(Shell, EmitCForSynthesizedBlock) {
  Shell shell;
  exec(shell, "design Garage Open At Night");
  // byName doesn't include Garage; expect an error message instead.
  const std::string err = exec(shell, "report");
  EXPECT_NE(err.find("error"), std::string::npos);

  exec(shell, "design Ignition Illuminator");
  exec(shell, "synth");
  const std::string c = exec(shell, "emitc prog0");
  EXPECT_NE(c.find("eb_eval"), std::string::npos);
  EXPECT_NE(c.find("#include <stdint.h>"), std::string::npos);
}

TEST(Shell, NetlistRoundTripThroughShell) {
  Shell shell;
  exec(shell, "design Two Button Light");
  const std::string netlist = exec(shell, "netlist");
  EXPECT_NE(netlist.find("network Two Button Light"), std::string::npos);
  EXPECT_NE(netlist.find("block light_state toggle"), std::string::npos);
}

TEST(Shell, ValidateReportsProblems) {
  Shell shell;
  exec(shell, "new partial");
  exec(shell, "block s button");
  exec(shell, "block g and2");
  exec(shell, "connect s.0 g.0");
  const std::string out = exec(shell, "validate");
  EXPECT_NE(out.find("problem:"), std::string::npos);
}

TEST(Shell, ErrorsAreReportedNotThrown) {
  Shell shell;
  EXPECT_NE(exec(shell, "block x warp_core").find("error"),
            std::string::npos);
  EXPECT_NE(exec(shell, "connect a.0 b.0").find("error"), std::string::npos);
  EXPECT_NE(exec(shell, "design No Such Design").find("error"),
            std::string::npos);
  EXPECT_NE(exec(shell, "frobnicate").find("unknown command"),
            std::string::npos);
  EXPECT_NE(exec(shell, "use synth").find("error"), std::string::npos);
  EXPECT_NE(exec(shell, "synth bogus").find("error"), std::string::npos);
}

TEST(Shell, AlgorithmsListsRegistry) {
  Shell shell;
  const std::string out = exec(shell, "algorithms");
  EXPECT_NE(out.find("paredown"), std::string::npos);
  EXPECT_NE(out.find("exhaustive"), std::string::npos);
  EXPECT_NE(out.find("aggregation"), std::string::npos);
}

TEST(Shell, SynthByRegistryNameWithThreads) {
  Shell shell;
  exec(shell, "design Podium Timer 3");
  const std::string out = exec(shell, "synth exhaustive 2 2 2");
  EXPECT_NE(out.find("exhaustive"), std::string::npos) << out;
  EXPECT_NE(out.find("8 -> 3"), std::string::npos) << out;
}

TEST(Shell, SynthSchedulerArgument) {
  Shell shell;
  exec(shell, "design Podium Timer 3");
  // The search has exactly one scheduler, so there is nothing to select:
  // the old scheduler names error out in every position.
  for (const char* cmd :
       {"synth exhaustive 2 2 2 steal", "synth exhaustive 2 2 2 fixed-split",
        "synth exhaustive 2 2 fixed-split", "synth exhaustive steal",
        "synth exhaustive 2 2 2 prune steal"}) {
    EXPECT_NE(exec(shell, cmd).find("error: unknown synth option"),
              std::string::npos)
        << cmd;
  }
  // None of the failed parses may have run a synthesis.
  EXPECT_NE(exec(shell, "report").find("error: no synthesis has run"),
            std::string::npos);
}

TEST(Shell, SynthPruningFlagArgument) {
  Shell shell;
  exec(shell, "design Podium Timer 3");
  // Both settings reach the identical optimum; the flag parses with and
  // without the numeric groups, in either order with limit=.
  const std::string on = exec(shell, "synth exhaustive 2 2 2 prune");
  EXPECT_NE(on.find("8 -> 3"), std::string::npos) << on;
  const std::string off = exec(shell, "synth exhaustive 2 2 2 no-prune");
  EXPECT_NE(off.find("8 -> 3"), std::string::npos) << off;
  const std::string bare = exec(shell, "synth exhaustive no-prune");
  EXPECT_NE(bare.find("8 -> 3"), std::string::npos) << bare;
  const std::string both =
      exec(shell, "synth exhaustive 2 2 2 limit=5 prune");
  EXPECT_NE(both.find("8 -> 3"), std::string::npos) << both;
  const std::string swapped =
      exec(shell, "synth exhaustive 2 2 2 prune limit=5");
  EXPECT_NE(swapped.find("8 -> 3"), std::string::npos) << swapped;
}

TEST(Shell, SynthHeuristicKeywordArguments) {
  Shell shell;
  exec(shell, "design Podium Timer 3");
  // The heuristic strategies parse by name and accept the trailing
  // keywords in any order, mixed with the pruning flag.
  const std::string fm = exec(shell, "synth fm");
  EXPECT_NE(fm.find("(fm)"), std::string::npos) << fm;
  const std::string greedy = exec(shell, "synth greedy 2 2");
  EXPECT_NE(greedy.find("(greedy)"), std::string::npos) << greedy;
  const std::string lns =
      exec(shell, "synth lns limit=5 pocket=4 rounds=6");
  EXPECT_NE(lns.find("(lns)"), std::string::npos) << lns;
  const std::string swapped =
      exec(shell, "synth lns rounds=6 limit=5 pocket=4");
  EXPECT_NE(swapped.find("(lns)"), std::string::npos) << swapped;
  const std::string mixed =
      exec(shell, "synth exhaustive 2 2 2 limit=5 prune");
  EXPECT_NE(mixed.find("8 -> 3"), std::string::npos) << mixed;
}

TEST(Shell, SynthHeuristicKeywordErrorPaths) {
  Shell shell;
  exec(shell, "design Podium Timer 3");
  // Bad values error out; so do duplicates -- never a silent default.
  EXPECT_NE(exec(shell, "synth lns limit=abc").find("error: limit="),
            std::string::npos);
  EXPECT_NE(exec(shell, "synth lns limit=-1").find("error: limit="),
            std::string::npos);
  EXPECT_NE(exec(shell, "synth lns limit=inf").find("error: limit="),
            std::string::npos);
  EXPECT_NE(exec(shell, "synth lns limit=nan").find("error: limit="),
            std::string::npos);
  EXPECT_NE(exec(shell, "synth lns pocket=2x").find("error: pocket="),
            std::string::npos);
  EXPECT_NE(exec(shell, "synth lns pocket=-4").find("error: pocket="),
            std::string::npos);
  EXPECT_NE(exec(shell, "synth lns rounds=").find("error: rounds="),
            std::string::npos);
  EXPECT_NE(exec(shell, "synth lns limit=5 limit=6")
                .find("error: unknown synth option"),
            std::string::npos);
  EXPECT_NE(exec(shell, "synth lns pocket=4 pocket=4")
                .find("error: unknown synth option"),
            std::string::npos);
  // None of the failed parses may have run a synthesis.
  EXPECT_NE(exec(shell, "report").find("error: no synthesis has run"),
            std::string::npos);
}

TEST(Shell, SynthArgumentErrorPaths) {
  Shell shell;
  exec(shell, "design Podium Timer 3");
  // Unknown algorithm name.
  EXPECT_NE(exec(shell, "synth warp-speed").find("error: unknown algorithm"),
            std::string::npos);
  // Negative thread count.
  EXPECT_NE(exec(shell, "synth exhaustive 2 2 -3").find(
                "error: thread count"),
            std::string::npos);
  // Unknown trailing keywords error out.
  EXPECT_NE(exec(shell, "synth exhaustive 2 2 2 frobnicate")
                .find("error: unknown synth option"),
            std::string::npos);
  // Duplicate keywords must error, not silently override.
  EXPECT_NE(exec(shell, "synth exhaustive prune no-prune")
                .find("error: unknown synth option"),
            std::string::npos);
  // A half-given ports group still errors with usage.
  EXPECT_NE(exec(shell, "synth exhaustive 3 prune").find("usage"),
            std::string::npos);
  // None of the failed parses may have run a synthesis.
  EXPECT_NE(exec(shell, "report").find("error: no synthesis has run"),
            std::string::npos);
}

TEST(Shell, QuitStopsExecution) {
  Shell shell;
  std::ostringstream out;
  EXPECT_TRUE(shell.execute("help", out));
  EXPECT_FALSE(shell.execute("quit", out));
}

TEST(Shell, UseSourceSwitchesBack) {
  Shell shell;
  exec(shell, "design Ignition Illuminator");
  exec(shell, "synth");
  EXPECT_NE(exec(shell, "use synth").find("_synth"), std::string::npos);
  EXPECT_EQ(exec(shell, "use source").find("_synth"), std::string::npos);
}

TEST(Shell, DotExportsActiveNetwork) {
  Shell shell;
  exec(shell, "design Ignition Illuminator");
  EXPECT_NE(exec(shell, "dot").find("digraph"), std::string::npos);
}

TEST(Shell, CommentsAndBlankLinesIgnored) {
  const std::string out = runScript("# a comment\n\nhelp\n");
  EXPECT_NE(out.find("commands:"), std::string::npos);
}

}  // namespace
}  // namespace eblocks::shell
