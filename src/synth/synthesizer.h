// End-to-end synthesis (Figure 2): partition the network, generate merged
// behaviors, and produce the optimized network in which each partition is
// replaced by a programmable block running generated code.
#ifndef EBLOCKS_SYNTH_SYNTHESIZER_H_
#define EBLOCKS_SYNTH_SYNTHESIZER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cache/solution_store.h"
#include "codegen/merge_program.h"
#include "partition/engine.h"
#include "partition/problem.h"
#include "partition/result.h"

namespace eblocks::synth {

/// How the solution cache participated in a synthesis run.
enum class CacheOutcome {
  kDisabled,   ///< no cache attached
  kMiss,       ///< cache consulted, partitioner ran cold, result stored
  kHit,        ///< stored run returned; the partitioner never ran
  kWarmStart,  ///< near-miss incumbent accelerated the partitioner
};

const char* toString(CacheOutcome o);

struct SynthOptions {
  partition::ProgBlockSpec spec;  ///< target programmable block
  /// Name of the partitioning algorithm that drives synthesis: any entry
  /// of partition::strategies() ("paredown", "exhaustive", "aggregation",
  /// "ladder", ...).  synthesize() throws std::invalid_argument for
  /// unknown names.  With "ladder" the
  /// result's run.degradedTier reports how far the deadline let the
  /// degradation ladder climb (partition/ladder.h); ladder runs are
  /// deliberately never stored in the cache.
  std::string algorithm = "paredown";
  /// Engine knobs forwarded to the selected strategy: time limit, worker
  /// threads, and the PareDown seeding of exhaustive search (on by
  /// default, so `algorithm = "exhaustive"` starts its branch-and-bound
  /// from the heuristic's solution).
  partition::EngineOptions engine;
  bool emitC = true;  ///< produce C sources per block
  /// Optional solution cache.  When attached, synthesize() asks it for a
  /// stored run first (an exact hit skips the partitioner entirely; the
  /// result is still verified, and it is bit-identical to a fresh run
  /// when the request keeps the stored declaration order -- a reordered
  /// copy gets the stored run carried over by canonical position), seeds
  /// the engine's initialIncumbent from a near miss on a miss when the
  /// strategy reads one (Strategy::readsIncumbent), and stores completed
  /// cacheable runs afterwards.  Shared so the shell, tests,
  /// and benches can hold one store across many synthesize() calls.
  std::shared_ptr<cache::SolutionStore> cache;
};

/// One synthesized programmable block.
struct SynthesizedBlock {
  std::string instanceName;           ///< name in the synthesized network
  codegen::MergedProgram merged;      ///< behavior + port maps
  std::string cSource;                ///< generated C (empty if !emitC)
  std::vector<std::string> replaced;  ///< names of absorbed blocks
};

/// The synthesis result: the optimized network plus per-block programs and
/// the metrics the paper's tables report.
struct SynthResult {
  Network network;                 ///< optimized network
  partition::PartitionRun run;     ///< partitioning record
  std::vector<SynthesizedBlock> blocks;
  int originalInner = 0;
  int innerAfter = 0;              ///< Table "Inner Blocks (Total)"
  int programmableBlocks = 0;      ///< Table "Inner Blocks (Prog.)"
  /// What the solution cache did for this run (kDisabled without one).
  CacheOutcome cacheOutcome = CacheOutcome::kDisabled;

  /// Human-readable synthesis report.
  std::string report() const;
};

/// Runs the full pipeline.  Throws std::invalid_argument when the source
/// network fails validation, and std::logic_error if the chosen algorithm
/// produces an unverifiable partitioning (internal error by construction).
SynthResult synthesize(const Network& source, const SynthOptions& options = {});

}  // namespace eblocks::synth

#endif  // EBLOCKS_SYNTH_SYNTHESIZER_H_
