// Building the programmable block's behavior for one partition
// (Section 3.3).
//
// For every member block, in non-decreasing level order, the member's
// program nodes are copied with their indices offset, and each of its
// slots (behavior/ast.h) is mapped to a slot of the merged program:
//   - input ports driven from inside the partition map to internal wire
//     variables (communication "will occur internally in a programmable
//     block via variables");
//   - input ports driven from outside map to the programmable block's
//     input ports in0..in{i-1};
//   - output ports map to internal wires, re-exported through out0.. when
//     consumed outside the partition;
//   - `tick` maps to the one shared `tick`;
//   - state variables map to names prefixed with the member id ("the
//     conflict is resolved through variable renaming").
// The copies form one program (declarations hoisted) that the simulator
// interprets directly and the C emitter translates for the physical
// block.
#ifndef EBLOCKS_CODEGEN_MERGE_PROGRAM_H_
#define EBLOCKS_CODEGEN_MERGE_PROGRAM_H_

#include <stdexcept>
#include <string>
#include <vector>

#include "behavior/ast.h"
#include "core/bitset.h"
#include "core/network.h"
#include "core/subgraph.h"

namespace eblocks::codegen {

class CodegenError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The merged behavior plus the port maps needed to rewire the network.
struct MergedProgram {
  behavior::Program program;

  /// Input ports in order (in0, in1, ...).  inputEdges[k] lists the
  /// original connections served by port k: exactly one in kEdges mode;
  /// one or more (same external source) in kSignals mode.  inputSlots[k]
  /// is the program slot that names port k.
  std::vector<std::vector<Connection>> inputEdges;
  std::vector<behavior::Index> inputSlots;

  /// Output ports in order (out0, ...).  outputEdges[k] lists the original
  /// boundary-crossing connections re-driven by port k,
  /// outputSources[k] is the internal endpoint whose wire feeds it, and
  /// outputSlots[k] is the program slot that names it.
  std::vector<std::vector<Connection>> outputEdges;
  std::vector<Endpoint> outputSources;
  std::vector<behavior::Index> outputSlots;

  /// Members in evaluation (level) order, for reports.
  std::vector<BlockId> members;

  int inputCount() const { return static_cast<int>(inputEdges.size()); }
  int outputCount() const { return static_cast<int>(outputEdges.size()); }
};

/// Merges the behaviors of `partition`'s members.  `levels` is the level
/// table of `net` (core/levels.h).  Throws CodegenError on undriven member
/// inputs or unparsable member behaviors, and std::invalid_argument when
/// two declarations land on one merged variable.
MergedProgram mergePartitionProgram(const Network& net,
                                    const BitSet& partition,
                                    const std::vector<int>& levels,
                                    CountingMode mode);

}  // namespace eblocks::codegen

#endif  // EBLOCKS_CODEGEN_MERGE_PROGRAM_H_
