// Bit-parallel batch simulation: kLanes (64) independent stimulus streams
// advance through one network in lockstep, one bit (or one int64) per lane
// per variable (core/lanes.h).
//
// The batch simulator mirrors the scalar sim/simulator.h event loop --
// same packet model, same per-instant drain-then-evaluate batching, same
// two-pass tick -- but every value is a LaneVector and the event queue is
// the *union* of the per-lane event sets: a packet is scheduled when an
// output changed in ANY lane and carries a snapshot of all lanes.  Two
// structural facts make the union loop lane-exact:
//
//   1. every input port has a single driver (Network::connect rejects
//      double-driving), so a delivered snapshot always overwrites a port
//      with per-lane values that are current for that port; and
//   2. re-activating a block whose inputs did not change (tick = 0) is a
//      no-op -- the same idempotence the scalar simulator's power-up wave
//      (reset()) and two-pass tick() already rely on.  Lanes for which an
//      activation is spurious therefore re-derive their current state.
//
// Divergent control flow (`if` arms taken by some lanes only) is executed
// SIMT-style under a lane mask; assignments merge masked.  Like the scalar
// simulator, it walks each type's shared program (BlockType::program)
// with one value per slot, writing ports, `tick` and `env` through the
// type's slots() -- no name lookup on the hot path.  Behavior faults
// (division by zero or overflow) are recorded per lane in faultedLanes()
// instead of throwing: a faulted lane's values are unspecified from that
// point on and must be replayed through the scalar Simulator
// (sim/batch_equivalence.cpp does exactly that); other lanes are
// unaffected.
#ifndef EBLOCKS_SIM_BATCH_SIMULATOR_H_
#define EBLOCKS_SIM_BATCH_SIMULATOR_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/lanes.h"
#include "core/network.h"
#include "sim/stimulus.h"

namespace eblocks::sim {

struct BatchSimOptions {
  std::uint64_t hopLatency = 1;  ///< packet flight time per connection
  /// Per-lane event budget; one settle's budget is this value times
  /// kLanes, because a single batch packet can serve up to kLanes lanes.
  std::uint64_t maxEventsPerSettle = 1'000'000;
};

/// One lockstep step applied to all lanes at once: per-lane sensor writes
/// followed by a tick in the lanes of `tickLanes`.  A lane may do both
/// only if its script really interleaves them; packStimuli never does.
struct BatchStep {
  struct SensorWrite {
    BlockId sensor = kNoBlock;
    LaneMask lanes = 0;    ///< lanes performing this write
    LaneVector values;     ///< read only on lanes in `lanes`
  };
  std::vector<SensorWrite> writes;
  LaneMask tickLanes = 0;
};

/// Up to kLanes stimulus scripts packed into lockstep steps: lane i
/// executes scripts[i]; shorter scripts simply idle once exhausted
/// (activeAtStep masks the lanes still running at each step).
struct BatchScript {
  int laneCount = 0;
  std::vector<BatchStep> steps;
  std::vector<LaneMask> activeAtStep;  ///< per step: lanes still scripted
  LaneMask allLanes() const { return firstLanes(laneCount); }
};

/// Packs `scripts` (at most kLanes of them) for `net`.  Throws
/// std::invalid_argument on more than kLanes scripts or unknown sensors.
BatchScript packStimuli(const Network& net,
                        std::span<const Stimulus> scripts);

class BatchSimulator {
 public:
  /// Resolves every block's shared behavior program and its slots up
  /// front; throws SimError naming the block on a behavior that does not
  /// parse or is open (BlockType::program), like the scalar simulator.
  /// The network must outlive the simulator.
  explicit BatchSimulator(const Network& net, BatchSimOptions opts = {});
  ~BatchSimulator();
  BatchSimulator(BatchSimulator&&) noexcept;
  BatchSimulator& operator=(BatchSimulator&&) noexcept;

  /// Resets all lanes and restricts simulation to `active`: re-initializes
  /// state, runs the power-up evaluation wave, and settles.  Inactive
  /// lanes carry unspecified values and are never reported.
  void reset(LaneMask active = kAllLanes);

  LaneMask activeLanes() const;

  /// Sets a sensor's environment value on the lanes of `lanes` and
  /// activates it (all lanes; spurious lanes are no-ops).  Does not
  /// settle.  Throws SimError on non-sensors, like the scalar simulator.
  void setSensor(BlockId sensor, LaneMask lanes, const LaneVector& values);
  void setSensor(const std::string& name, LaneMask lanes,
                 std::int64_t value);

  /// Processes pending packets until quiescence.  Throws SimError when
  /// the batch event budget is exceeded (some lane likely oscillates;
  /// replay lanes through the scalar simulator to attribute it).
  void settle();

  /// Timer tick on the lanes of `lanes`: the scalar two-pass tick with
  /// `tick` set per lane, then settle.
  void tick(LaneMask lanes);

  /// Applies one packed step: sensor writes, tick passes, settle.
  void apply(const BatchStep& step);

  /// Display value of an output block in one lane.
  std::int64_t outputValue(BlockId outputBlock, int lane) const;
  /// All lanes of an output block's display variable.
  const LaneVector& outputLanes(BlockId outputBlock) const;

  /// Reads any variable of any block (all lanes 0 if never written, or if
  /// the block's program has no such name).
  const LaneVector& probeLanes(BlockId block, const std::string& var) const;
  std::int64_t probe(BlockId block, const std::string& var, int lane) const;

  /// Lanes that hit a behavior fault (e.g. division by zero) since the
  /// last reset().  Their values are unspecified from the faulting
  /// instant onward; faultMessage() describes the first fault.
  LaneMask faultedLanes() const;
  const std::string& faultMessage() const;

  std::uint64_t packetsDelivered() const;
  std::uint64_t activations() const;

  const Network& network() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace eblocks::sim

#endif  // EBLOCKS_SIM_BATCH_SIMULATOR_H_
