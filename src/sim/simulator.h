// Behavioral eBlock network simulator (Section 3.1).
//
// All communication between blocks is serial packets and globally
// asynchronous; blocks deal with human-scale events, so the simulator is
// "behaviorally correct and obeys general high-level timing" without
// modeling detailed electrical timing.  Model:
//
//   - Packets carry an integer value from an output port to an input port
//     with a per-hop latency (SimOptions::hopLatency).
//   - A block activates when a packet arrives; it re-evaluates its behavior
//     program and emits packets on outputs whose value changed.
//   - Timer ticks drive sequential blocks (delay, pulse, prolonger...).
//     Ticks are driven explicitly by the caller via tick(), which makes
//     runs deterministic and lets the equivalence checker advance two
//     networks in lockstep.
//   - Sensors are driven via setSensor(); probes read any block variable.
//
// The simulator accepts cyclic block graphs (synthesized networks may
// contain benign block-level cycles; see docs/pipeline.md) and guards against
// non-settling packet storms with SimOptions::maxEventsPerSettle.
#ifndef EBLOCKS_SIM_SIMULATOR_H_
#define EBLOCKS_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <span>
#include <string>
#include <vector>

#include "behavior/ast.h"
#include "core/network.h"

namespace eblocks::sim {

struct SimOptions {
  std::uint64_t hopLatency = 1;  ///< packet flight time per connection
  std::uint64_t maxEventsPerSettle = 1'000'000;  ///< oscillation guard
  bool recordTrace = true;  ///< keep a trace of output-display changes
};

/// One observed change of an output block's display value.
struct TraceEntry {
  std::uint64_t time = 0;
  BlockId block = kNoBlock;
  std::int64_t value = 0;
  friend bool operator==(const TraceEntry&, const TraceEntry&) = default;
};

/// Thrown when settle() exceeds the event budget (packet storm /
/// oscillating network), or on behavior evaluation faults.
class SimError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Simulator {
 public:
  /// Resolves every block's shared behavior program (BlockType::program)
  /// and its slots up front; throws SimError naming the block on a
  /// behavior that does not parse or is open.  The network must outlive
  /// the simulator.
  explicit Simulator(const Network& net, SimOptions opts = {});

  /// Resets all state: re-initializes state variables, sets sensor
  /// environments to 0, evaluates every block once, and settles.
  void reset();

  /// Sets a sensor's environment value and activates it.  Does not settle.
  void setSensor(BlockId sensor, std::int64_t value);
  void setSensor(const std::string& name, std::int64_t value);

  /// Processes pending packet events until quiescence.
  void settle();

  /// One timer tick: activates every sequential block with tick=1, then
  /// settles.
  void tick();

  /// Convenience: setSensor + settle.
  void apply(const std::string& sensorName, std::int64_t value) {
    setSensor(sensorName, value);
    settle();
  }

  /// Display value of an output block (its `display` variable).
  std::int64_t outputValue(BlockId outputBlock) const;
  std::int64_t outputValue(const std::string& name) const;

  /// Reads any variable of any block (0 if never written, or if the
  /// block's program has no such name).
  std::int64_t probe(BlockId block, const std::string& var) const;

  /// Called after every block activation (program already executed,
  /// packets scheduled) with the block id and whether the activation was a
  /// timer tick.  Probing the simulator from the hook is allowed.  Used to
  /// capture a block's activation sequence, e.g. to drive the generated-C
  /// test harness in lockstep (see tests/integration).
  using ActivationHook = std::function<void(BlockId, bool isTick)>;
  void setActivationHook(ActivationHook hook) { hook_ = std::move(hook); }

  std::uint64_t now() const { return now_; }
  const std::vector<TraceEntry>& trace() const { return trace_; }
  std::uint64_t packetsDelivered() const { return packetsDelivered_; }
  std::uint64_t activations() const { return activations_; }

  const Network& network() const { return *net_; }

 private:
  struct Event {
    std::uint64_t time;
    std::uint64_t seq;  // FIFO order among same-time events
    Endpoint dst;       // destination input port
    std::int64_t value;
    bool operator>(const Event& o) const {
      return std::tie(time, seq) > std::tie(o.time, o.seq);
    }
  };

  /// What a block runs: its type's shared program and slots, and where
  /// its variables start in values_.
  struct BlockRun {
    const behavior::Program* program;
    const BlockType::Slots* slots;
    std::size_t base;          // index of its slot 0 in values_
    behavior::Index display;   // output blocks: `display`, else kNone
  };

  std::span<std::int64_t> vars(BlockId b) {
    return {values_.data() + blocks_[b].base, blocks_[b].program->names.size()};
  }
  void activate(BlockId b, bool isTick);
  void scheduleFanout(BlockId b, int port, std::int64_t value);
  void processEventsUntilQuiet();

  const Network* net_;
  SimOptions opts_;
  std::vector<BlockRun> blocks_;           // per block
  std::vector<std::int64_t> values_;       // per (block, slot), flat
  std::vector<std::int64_t> lastEmitted_;  // per (block, port), flat
  std::vector<std::size_t> outPortBase_;   // block -> index into flat
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  std::uint64_t now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t packetsDelivered_ = 0;
  std::uint64_t activations_ = 0;
  std::vector<TraceEntry> trace_;
  ActivationHook hook_;
};

}  // namespace eblocks::sim

#endif  // EBLOCKS_SIM_SIMULATOR_H_
