#include "sim/simulator.h"

#include <tuple>

#include "behavior/interpreter.h"

namespace eblocks::sim {

Simulator::Simulator(const Network& net, SimOptions opts)
    : net_(&net), opts_(opts) {
  const std::size_t n = net.blockCount();
  blocks_.reserve(n);
  outPortBase_.resize(n + 1, 0);
  std::size_t values = 0;
  for (BlockId b = 0; b < n; ++b) {
    const BlockType& t = *net.block(b).type;
    try {
      blocks_.push_back({&t.program(), &t.slots(), values, behavior::kNone});
    } catch (const std::exception& e) {
      throw SimError("block '" + net.block(b).name + "' (" + t.name() +
                     "): " + e.what());
    }
    BlockRun& r = blocks_.back();
    if (t.blockClass() == BlockClass::kOutput)
      r.display = behavior::findSlot(*r.program, "display");
    values += r.program->names.size();
    outPortBase_[b + 1] =
        outPortBase_[b] + static_cast<std::size_t>(t.outputCount());
  }
  values_.resize(values);
  lastEmitted_.assign(outPortBase_[n], 0);
  reset();
}

void Simulator::reset() {
  now_ = 0;
  seq_ = 0;
  packetsDelivered_ = 0;
  activations_ = 0;
  trace_.clear();
  while (!queue_.empty()) queue_.pop();
  for (std::int64_t& v : lastEmitted_) v = 0;
  // Ports, builtins and state read 0 until written; state initializers
  // may read them.
  for (std::int64_t& v : values_) v = 0;
  for (BlockId b = 0; b < net_->blockCount(); ++b)
    behavior::initializeState(*blocks_[b].program, vars(b));
  // Power-up evaluation wave: evaluate every block once so constant
  // outputs (e.g. an inverter of a low input) propagate.
  for (BlockId b = 0; b < net_->blockCount(); ++b) activate(b, false);
  settle();
}

void Simulator::setSensor(BlockId sensor, std::int64_t value) {
  if (!net_->isSensor(sensor))
    throw SimError("setSensor: block '" + net_->block(sensor).name +
                   "' is not a sensor");
  vars(sensor)[static_cast<std::size_t>(blocks_[sensor].slots->env)] = value;
  activate(sensor, false);
}

void Simulator::setSensor(const std::string& name, std::int64_t value) {
  const auto id = net_->findBlock(name);
  if (!id) throw SimError("setSensor: no block named '" + name + "'");
  setSensor(*id, value);
}

void Simulator::settle() { processEventsUntilQuiet(); }

void Simulator::tick() {
  // Two-pass tick: every sequential block first processes the tick against
  // its pre-tick inputs (as in the physical network, where tick effects
  // only reach neighbors as later packets), then runs a cascade pass with
  // tick=0.  For pre-defined single blocks the second pass is an idempotent
  // no-op; for synthesized merged blocks it propagates intra-partition
  // cascades exactly like the original packet flow.
  for (BlockId b = 0; b < net_->blockCount(); ++b)
    if (net_->block(b).type->sequential()) activate(b, true);
  for (BlockId b = 0; b < net_->blockCount(); ++b)
    if (net_->block(b).type->sequential()) activate(b, false);
  settle();
}

std::int64_t Simulator::outputValue(BlockId outputBlock) const {
  if (!net_->isOutput(outputBlock))
    throw SimError("outputValue: block '" + net_->block(outputBlock).name +
                   "' is not an output block");
  const BlockRun& r = blocks_[outputBlock];
  return r.display == behavior::kNone
             ? 0
             : values_[r.base + static_cast<std::size_t>(r.display)];
}

std::int64_t Simulator::outputValue(const std::string& name) const {
  const auto id = net_->findBlock(name);
  if (!id) throw SimError("outputValue: no block named '" + name + "'");
  return outputValue(*id);
}

std::int64_t Simulator::probe(BlockId block, const std::string& var) const {
  const BlockRun& r = blocks_.at(block);
  const behavior::Index s = behavior::findSlot(*r.program, var);
  return s == behavior::kNone ? 0
                              : values_[r.base + static_cast<std::size_t>(s)];
}

void Simulator::activate(BlockId b, bool isTick) {
  ++activations_;
  const BlockRun& r = blocks_[b];
  const std::span<std::int64_t> v = vars(b);
  v[static_cast<std::size_t>(r.slots->tick)] = isTick ? 1 : 0;
  const bool traceBlock = opts_.recordTrace && r.display != behavior::kNone;
  const std::int64_t displayBefore =
      traceBlock ? v[static_cast<std::size_t>(r.display)] : 0;
  try {
    behavior::execute(*r.program, v);
  } catch (const behavior::EvalError& e) {
    throw SimError("block '" + net_->block(b).name + "': " + e.what());
  }
  for (std::size_t p = 0; p < r.slots->outputs.size(); ++p) {
    const std::int64_t value = v[static_cast<std::size_t>(r.slots->outputs[p])];
    std::int64_t& last = lastEmitted_[outPortBase_[b] + p];
    if (value != last) {
      last = value;
      scheduleFanout(b, static_cast<int>(p), value);
    }
  }
  if (traceBlock) {
    const std::int64_t displayAfter = v[static_cast<std::size_t>(r.display)];
    if (displayAfter != displayBefore)
      trace_.push_back(TraceEntry{now_, b, displayAfter});
  }
  if (hook_) hook_(b, isTick);
}

void Simulator::scheduleFanout(BlockId b, int port, std::int64_t value) {
  for (const Connection& c : net_->fanoutOf(b, port))
    queue_.push(Event{now_ + opts_.hopLatency, seq_++, c.to, value});
}

void Simulator::processEventsUntilQuiet() {
  std::uint64_t budget = opts_.maxEventsPerSettle;
  std::vector<Event> batch;
  std::vector<BlockId> order;
  std::vector<char> inBatch(net_->blockCount(), 0);
  while (!queue_.empty()) {
    // Drain every packet that arrives at this instant, then evaluate each
    // destination block once -- the physical firmware's receive loop does
    // exactly this ("drain RX, then eval"), and it keeps a block from
    // being evaluated in an inconsistent intermediate state when one
    // source signal fans out to several of its input ports.
    const std::uint64_t t = queue_.top().time;
    now_ = t;
    batch.clear();
    order.clear();
    while (!queue_.empty() && queue_.top().time == t) {
      if (budget-- == 0)
        throw SimError("settle: exceeded event budget (" +
                       std::to_string(opts_.maxEventsPerSettle) +
                       "); network may oscillate");
      batch.push_back(queue_.top());
      queue_.pop();
    }
    for (const Event& ev : batch) {  // seq order: later packets win a port
      ++packetsDelivered_;
      vars(ev.dst.block)[static_cast<std::size_t>(
          blocks_[ev.dst.block].slots->inputs[ev.dst.port])] = ev.value;
      if (!inBatch[ev.dst.block]) {
        inBatch[ev.dst.block] = 1;
        order.push_back(ev.dst.block);
      }
    }
    for (BlockId b : order) {
      inBatch[b] = 0;
      activate(b, false);
    }
  }
}

}  // namespace eblocks::sim
