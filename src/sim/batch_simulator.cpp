#include "sim/batch_simulator.h"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <map>
#include <queue>
#include <span>
#include <string_view>
#include <tuple>
#include <unordered_map>

#include "sim/simulator.h"  // SimError

namespace eblocks::sim {

namespace {

using behavior::BinaryOp;
using behavior::Index;
using behavior::kNone;
using behavior::NodeKind;
using behavior::UnaryOp;

/// What one block runs: its type's shared program and slots.
struct BlockProgram {
  const behavior::Program* program = nullptr;
  const BlockType::Slots* slots = nullptr;
  // Pure truth-table fast path (detectTruthTable): set when the behavior
  // is an exhaustive if-chain over boolean inputs (the catalog's logic
  // gates).  Bit c of ttMinterms is the output for input combination c,
  // where bit i of c is input i's value.  Exact only while every input
  // slot is packed (all lanes 0/1) -- checked per activation.
  bool ttValid = false;
  std::uint64_t ttMinterms = 0;

  const behavior::Node& node(Index i) const {
    return program->nodes[static_cast<std::size_t>(i)];
  }
};

/// Matches the exhaustive if-chain truthTable{2,3}Source emits: 2^N
/// top-level statements `if (in0 == c0 && in1 == c1 ...) { out = 0|1; }`,
/// one per input combination, nothing else.  With boolean inputs each
/// lane matches exactly one branch, so the whole program collapses to a
/// minterm table evaluated with word-parallel bit ops.
bool detectTruthTable(const BlockProgram& bp, std::uint64_t* minterms) {
  const behavior::Program& program = *bp.program;
  const int n = static_cast<int>(bp.slots->inputs.size());
  if (n < 1 || n > 6 || bp.slots->outputs.size() != 1) return false;
  const std::size_t combos = std::size_t{1} << n;
  if (program.top.size() != combos) return false;
  // Each slot's input number (the first input of that name), or -1.
  std::vector<int> inputOf(program.names.size(), -1);
  for (int i = n - 1; i >= 0; --i)
    inputOf[static_cast<std::size_t>(
        bp.slots->inputs[static_cast<std::size_t>(i)])] = i;

  // Flattens an `&&` tree of `input == 0|1` leaves into a combo index.
  const auto flattenCombo = [&](Index ei, std::uint32_t* combo,
                                std::uint32_t* seenInputs,
                                auto&& self) -> bool {
    const behavior::Node& e = bp.node(ei);
    if (e.kind == NodeKind::kBinary && e.bop == BinaryOp::kAnd)
      return self(e.lhs, combo, seenInputs, self) &&
             self(e.rhs, combo, seenInputs, self);
    if (e.kind != NodeKind::kBinary || e.bop != BinaryOp::kEq) return false;
    if (bp.node(e.lhs).kind != NodeKind::kVarRef ||
        bp.node(e.rhs).kind != NodeKind::kIntLit)
      return false;
    const int input = inputOf[static_cast<std::size_t>(bp.node(e.lhs).slot)];
    if (input < 0) return false;
    const std::int64_t v = bp.node(e.rhs).value;
    if (v != 0 && v != 1) return false;
    if ((*seenInputs >> input) & 1u) return false;  // input repeated
    *seenInputs |= std::uint32_t{1} << input;
    *combo |= static_cast<std::uint32_t>(v) << input;
    return true;
  };

  std::uint64_t table = 0, seenCombos = 0;
  for (const Index si : program.top) {
    const behavior::Node& s = bp.node(si);
    if (s.kind != NodeKind::kIf || s.orElse != kNone || s.then == kNone ||
        bp.node(s.then).next != kNone)
      return false;
    const behavior::Node& body = bp.node(s.then);
    if (body.kind != NodeKind::kAssign || body.slot != bp.slots->outputs[0] ||
        bp.node(body.lhs).kind != NodeKind::kIntLit ||
        (bp.node(body.lhs).value != 0 && bp.node(body.lhs).value != 1))
      return false;
    std::uint32_t combo = 0, seenInputs = 0;
    if (!flattenCombo(s.lhs, &combo, &seenInputs, flattenCombo))
      return false;
    if (seenInputs != (std::uint32_t{1} << n) - 1) return false;
    if ((seenCombos >> combo) & 1u) return false;  // combo repeated
    seenCombos |= std::uint64_t{1} << combo;
    table |= static_cast<std::uint64_t>(bp.node(body.lhs).value) << combo;
  }
  if (seenCombos != (combos == 64 ? ~std::uint64_t{0}
                                  : (std::uint64_t{1} << combos) - 1))
    return false;
  *minterms = table;
  return true;
}

/// Expression result: packed word or borrowed wide array (scratch buffer
/// or environment slot storage; valid until the parent consumes it).
struct Val {
  bool packed = true;
  LaneMask bits = 0;
  const std::int64_t* wide = nullptr;

  std::int64_t lane(int i) const {
    return packed ? static_cast<std::int64_t>((bits >> i) & 1u) : wide[i];
  }
  LaneMask truthy() const {
    if (packed) return bits;
    LaneMask m = 0;
    for (int i = 0; i < kLanes; ++i)
      m |= static_cast<LaneMask>(wide[i] != 0) << i;
    return m;
  }
};

}  // namespace

// --- the batch simulator ---------------------------------------------------

struct BatchSimulator::Impl {
  struct Event {
    std::uint64_t time;
    std::uint64_t seq;  // FIFO order among same-time events
    Endpoint dst;
    std::uint32_t payload;  // index into payloads_
    bool operator>(const Event& o) const {
      return std::tie(time, seq) > std::tie(o.time, o.seq);
    }
  };

  Impl(const Network& net, BatchSimOptions opts) : net_(&net), opts_(opts) {
    const std::size_t n = net.blockCount();
    programs_.resize(n);
    valueBase_.resize(n + 1, 0);
    outPortBase_.resize(n + 1, 0);
    for (BlockId b = 0; b < n; ++b) {
      const BlockType& t = *net.block(b).type;
      BlockProgram& bp = programs_[b];
      try {
        bp.program = &t.program();
        bp.slots = &t.slots();
      } catch (const std::exception& e) {
        throw SimError("block '" + net.block(b).name + "' (" + t.name() +
                       "): " + e.what());
      }
      bp.ttValid = detectTruthTable(bp, &bp.ttMinterms);
      valueBase_[b + 1] = valueBase_[b] + bp.program->names.size();
      outPortBase_[b + 1] =
          outPortBase_[b] + static_cast<std::size_t>(t.outputCount());
    }
    values_.resize(valueBase_[n]);
    lastEmitted_.resize(outPortBase_[n]);
    inBatch_.assign(n, 0);
    reset(kAllLanes);
  }

  // --- lane-parallel expression evaluation ---------------------------------

  std::int64_t* scratch(int depth) {
    while (static_cast<int>(scratch_.size()) <= depth)
      scratch_.push_back(
          std::make_unique<std::array<std::int64_t, kLanes>>());
    return scratch_[static_cast<std::size_t>(depth)]->data();
  }

  void fault(LaneMask lanes, const char* what) {
    if (!lanes) return;
    if (!faultLanes_) faultMsg_ = what;
    faultLanes_ |= lanes;
  }

  /// A block's variables: one LaneVector per slot of its program.
  std::span<LaneVector> vars(BlockId b) {
    return std::span(values_).subspan(valueBase_[b],
                                      valueBase_[b + 1] - valueBase_[b]);
  }

  Val evalExpr(const BlockProgram& bp, std::span<LaneVector> env, Index idx,
               LaneMask mask, int depth) {
    const behavior::Node& e = bp.node(idx);
    switch (e.kind) {
      case NodeKind::kIntLit: {
        if (e.value == 0 || e.value == 1)
          return Val{true, e.value ? kAllLanes : 0, nullptr};
        std::int64_t* out = scratch(depth);
        for (int i = 0; i < kLanes; ++i) out[i] = e.value;
        return Val{false, 0, out};
      }
      case NodeKind::kVarRef: {
        const LaneVector& v = env[static_cast<std::size_t>(e.slot)];
        if (v.packed()) return Val{true, v.bits(), nullptr};
        return Val{false, 0, v.wide()};
      }
      case NodeKind::kUnary: {
        const Val v = evalExpr(bp, env, e.lhs, mask, depth + 1);
        if (e.uop == UnaryOp::kNot) return Val{true, ~v.truthy(), nullptr};
        // kNeg
        if (v.packed && v.bits == 0) return Val{true, 0, nullptr};
        std::int64_t* out = scratch(depth);
        for (int i = 0; i < kLanes; ++i) out[i] = -v.lane(i);
        return Val{false, 0, out};
      }
      case NodeKind::kBinary:
        return evalBinary(bp, env, e, mask, depth);
      default:
        break;
    }
    throw SimError("batch: unreachable expression kind");
  }

  Val evalBinary(const BlockProgram& bp, std::span<LaneVector> env,
                 const behavior::Node& e, LaneMask mask, int depth) {
    // Short-circuit logical operators evaluate the right side only in the
    // lanes the scalar interpreter would (faults must match per lane).
    if (e.bop == BinaryOp::kAnd) {
      const Val a = evalExpr(bp, env, e.lhs, mask, depth + 1);
      const LaneMask am = a.truthy() & mask;
      if (am == 0) return Val{true, 0, nullptr};
      const Val b = evalExpr(bp, env, e.rhs, am, depth + 1);
      return Val{true, am & b.truthy(), nullptr};
    }
    if (e.bop == BinaryOp::kOr) {
      const Val a = evalExpr(bp, env, e.lhs, mask, depth + 1);
      const LaneMask at = a.truthy();
      const LaneMask rm = mask & ~at;
      if (rm == 0) return Val{true, at, nullptr};
      const Val b = evalExpr(bp, env, e.rhs, rm, depth + 1);
      return Val{true, at | b.truthy(), nullptr};
    }

    const Val a = evalExpr(bp, env, e.lhs, mask, depth + 1);
    const Val b = evalExpr(bp, env, e.rhs, mask, depth + 2);

    if (a.packed && b.packed) {
      // Whole-word fast paths over 64 boolean lanes.
      switch (e.bop) {
        case BinaryOp::kEq: return Val{true, ~(a.bits ^ b.bits), nullptr};
        case BinaryOp::kNe: return Val{true, a.bits ^ b.bits, nullptr};
        case BinaryOp::kLt: return Val{true, ~a.bits & b.bits, nullptr};
        case BinaryOp::kLe: return Val{true, ~a.bits | b.bits, nullptr};
        case BinaryOp::kGt: return Val{true, a.bits & ~b.bits, nullptr};
        case BinaryOp::kGe: return Val{true, a.bits | ~b.bits, nullptr};
        case BinaryOp::kMul: return Val{true, a.bits & b.bits, nullptr};
        case BinaryOp::kAdd:
          if ((a.bits & b.bits & mask) == 0)
            return Val{true, a.bits | b.bits, nullptr};
          break;  // a carry somewhere: widen
        case BinaryOp::kSub:
          if ((~a.bits & b.bits & mask) == 0)
            return Val{true, a.bits & ~b.bits, nullptr};
          break;  // a negative result somewhere: widen
        default:
          break;
      }
    }

    switch (e.bop) {
      case BinaryOp::kEq:
      case BinaryOp::kNe:
      case BinaryOp::kLt:
      case BinaryOp::kLe:
      case BinaryOp::kGt:
      case BinaryOp::kGe: {
        LaneMask bits = 0;
        for (int i = 0; i < kLanes; ++i) {
          const std::int64_t x = a.lane(i), y = b.lane(i);
          bool r = false;
          switch (e.bop) {
            case BinaryOp::kEq: r = x == y; break;
            case BinaryOp::kNe: r = x != y; break;
            case BinaryOp::kLt: r = x < y; break;
            case BinaryOp::kLe: r = x <= y; break;
            case BinaryOp::kGt: r = x > y; break;
            default: r = x >= y; break;  // kGe
          }
          bits |= static_cast<LaneMask>(r) << i;
        }
        return Val{true, bits, nullptr};
      }
      case BinaryOp::kAdd:
      case BinaryOp::kSub:
      case BinaryOp::kMul: {
        std::int64_t* out = scratch(depth);
        for (int i = 0; i < kLanes; ++i) {
          const std::int64_t x = a.lane(i), y = b.lane(i);
          out[i] = e.bop == BinaryOp::kAdd   ? x + y
                   : e.bop == BinaryOp::kSub ? x - y
                                             : x * y;
        }
        return Val{false, 0, out};
      }
      case BinaryOp::kDiv:
      case BinaryOp::kMod: {
        std::int64_t* out = scratch(depth);
        LaneMask zero = 0, overflow = 0;
        for (int i = 0; i < kLanes; ++i) {
          const std::int64_t x = a.lane(i), y = b.lane(i);
          if (y == 0) {
            zero |= LaneMask{1} << i;
            out[i] = 0;
          } else if (x == std::numeric_limits<std::int64_t>::min() &&
                     y == -1) {
            overflow |= LaneMask{1} << i;
            out[i] = 0;
          } else {
            out[i] = e.bop == BinaryOp::kDiv ? x / y : x % y;
          }
        }
        fault(zero & mask, e.bop == BinaryOp::kDiv ? "division by zero"
                                                   : "modulo by zero");
        fault(overflow & mask, "division overflow");
        return Val{false, 0, out};
      }
      default:
        throw SimError("batch: unreachable binary operator");
    }
  }

  void assignSlot(LaneVector& slot, const Val& v, LaneMask mask) {
    if ((mask & activeMask_) == activeMask_) {
      // Covers every live lane: inactive lanes carry unspecified values,
      // so a whole-vector overwrite is allowed (and keeps packing tight).
      if (v.packed) {
        slot = LaneVector::fromBits(v.bits);
      } else {
        slot.setWide(v.wide);
      }
      return;
    }
    if (slot.packed() && v.packed) {
      slot.mergeFrom(LaneVector::fromBits(v.bits), mask);
      return;
    }
    slot.widen();
    std::int64_t* w = slot.wideData();
    for (int i = 0; i < kLanes; ++i)
      if ((mask >> i) & 1u) w[i] = v.lane(i);
  }

  void execStmt(const BlockProgram& bp, std::span<LaneVector> env,
                Index si, LaneMask mask, int depth) {
    const behavior::Node& s = bp.node(si);
    switch (s.kind) {
      case NodeKind::kAssign: {
        const Val v = evalExpr(bp, env, s.lhs, mask, depth);
        assignSlot(env[static_cast<std::size_t>(s.slot)], v, mask);
        break;
      }
      case NodeKind::kIf: {
        const LaneMask t =
            evalExpr(bp, env, s.lhs, mask, depth).truthy() & mask;
        const LaneMask f = mask & ~t;
        if (t) execBody(bp, env, s.then, t, depth + 1);
        if (f) execBody(bp, env, s.orElse, f, depth + 1);
        break;
      }
      default:
        break;  // kVarDecl: state persists between activations
    }
  }

  /// Runs an `if` body: the chain of statements from `first` on.
  void execBody(const BlockProgram& bp, std::span<LaneVector> env,
                Index first, LaneMask mask, int depth) {
    for (Index s = first; s != kNone; s = bp.node(s).next)
      execStmt(bp, env, s, mask, depth);
  }

  /// Truth-table fast path: all 64 lanes of a logic gate in a handful of
  /// word ops.  Requires every input slot packed (all lanes boolean) --
  /// then each lane matches exactly one if-chain branch, so the minterm
  /// sum is the interpreter's result in every lane, and the whole-vector
  /// overwrite is covered by the inactive-lanes-unspecified contract.
  /// Returns false (caller interprets) when any input has widened.
  bool evalTruthTable(const BlockProgram& bp, std::span<LaneVector> env) {
    const int n = static_cast<int>(bp.slots->inputs.size());
    LaneMask in[6];
    for (int i = 0; i < n; ++i) {
      const LaneVector& v = env[static_cast<std::size_t>(
          bp.slots->inputs[static_cast<std::size_t>(i)])];
      if (!v.packed()) return false;
      in[i] = v.bits();
    }
    LaneMask out = 0;
    for (std::uint32_t c = 0; c < (std::uint32_t{1} << n); ++c) {
      if (!((bp.ttMinterms >> c) & 1u)) continue;
      LaneMask m = kAllLanes;
      for (int i = 0; i < n; ++i) m &= ((c >> i) & 1u) ? in[i] : ~in[i];
      out |= m;
    }
    env[static_cast<std::size_t>(bp.slots->outputs[0])] =
        LaneVector::fromBits(out);
    return true;
  }

  // --- the event loop (mirrors sim/simulator.cpp) --------------------------

  void activate(BlockId b, LaneMask tickLanes) {
    ++activations_;
    const BlockProgram& bp = programs_[b];
    const std::span<LaneVector> env = vars(b);
    env[static_cast<std::size_t>(bp.slots->tick)] =
        LaneVector::fromBits(tickLanes);
    if (!bp.ttValid || !evalTruthTable(bp, env))
      for (const Index s : bp.program->top)
        execStmt(bp, env, s, activeMask_, 0);
    for (std::size_t p = 0; p < bp.slots->outputs.size(); ++p) {
      const LaneVector& v =
          env[static_cast<std::size_t>(bp.slots->outputs[p])];
      LaneVector& last = lastEmitted_[outPortBase_[b] + p];
      if (laneDiff(v, last) & activeMask_) {
        last = v;
        scheduleFanout(b, static_cast<int>(p), v);
      }
    }
  }

  void scheduleFanout(BlockId b, int port, const LaneVector& value) {
    const auto fanout = net_->fanoutOf(b, port);
    if (fanout.empty()) return;
    const auto payload = static_cast<std::uint32_t>(payloads_.size());
    payloads_.push_back(value);  // snapshot: later changes ship separately
    for (const Connection& c : fanout)
      queue_.push(Event{now_ + opts_.hopLatency, seq_++, c.to, payload});
  }

  void settle() {
    std::uint64_t budget =
        opts_.maxEventsPerSettle *
        static_cast<std::uint64_t>(std::max(1, std::popcount(activeMask_)));
    while (!queue_.empty()) {
      // Drain every packet arriving at this instant, then evaluate each
      // destination once -- identical batching to the scalar simulator.
      const std::uint64_t t = queue_.top().time;
      now_ = t;
      batch_.clear();
      order_.clear();
      while (!queue_.empty() && queue_.top().time == t) {
        if (budget-- == 0)
          throw SimError(
              "batch settle: exceeded event budget (" +
              std::to_string(opts_.maxEventsPerSettle) +
              " per lane); some lane may oscillate");
        batch_.push_back(queue_.top());
        queue_.pop();
      }
      for (const Event& ev : batch_) {  // seq order: later packets win
        ++packetsDelivered_;
        vars(ev.dst.block)[static_cast<std::size_t>(
            programs_[ev.dst.block].slots->inputs[ev.dst.port])] =
            payloads_[ev.payload];
        if (!inBatch_[ev.dst.block]) {
          inBatch_[ev.dst.block] = 1;
          order_.push_back(ev.dst.block);
        }
      }
      for (const BlockId b : order_) {
        inBatch_[b] = 0;
        activate(b, 0);
      }
    }
    payloads_.clear();  // every in-flight snapshot has been consumed
  }

  void reset(LaneMask active) {
    activeMask_ = active;
    faultLanes_ = 0;
    faultMsg_.clear();
    now_ = 0;
    seq_ = 0;
    packetsDelivered_ = 0;
    activations_ = 0;
    while (!queue_.empty()) queue_.pop();
    payloads_.clear();
    for (LaneVector& v : lastEmitted_) v = LaneVector();
    for (LaneVector& v : values_) v = LaneVector();
    for (BlockId b = 0; b < net_->blockCount(); ++b) {
      const BlockProgram& bp = programs_[b];
      const std::span<LaneVector> env = vars(b);
      for (const Index s : bp.program->top) {
        const behavior::Node& decl = bp.node(s);
        if (decl.kind != NodeKind::kVarDecl) continue;
        const Val v = evalExpr(bp, env, decl.lhs, activeMask_, 0);
        assignSlot(env[static_cast<std::size_t>(decl.slot)], v, kAllLanes);
      }
    }
    // Power-up evaluation wave, as in the scalar simulator.
    for (BlockId b = 0; b < net_->blockCount(); ++b) activate(b, 0);
    settle();
  }

  void setSensor(BlockId sensor, LaneMask lanes, const LaneVector& values) {
    if (!net_->isSensor(sensor))
      throw SimError("setSensor: block '" + net_->block(sensor).name +
                     "' is not a sensor");
    vars(sensor)[static_cast<std::size_t>(programs_[sensor].slots->env)]
        .mergeFrom(values, lanes & activeMask_);
    activate(sensor, 0);
  }

  void tick(LaneMask lanes) {
    // Two-pass tick, as in the scalar simulator: every sequential block
    // processes the tick against its pre-tick inputs, then a cascade pass
    // with tick = 0.  Lanes outside `lanes` see tick = 0 and unchanged
    // inputs in both passes -- idempotent no-ops.
    lanes &= activeMask_;
    for (BlockId b = 0; b < net_->blockCount(); ++b)
      if (net_->block(b).type->sequential()) activate(b, lanes);
    for (BlockId b = 0; b < net_->blockCount(); ++b)
      if (net_->block(b).type->sequential()) activate(b, 0);
    settle();
  }

  void apply(const BatchStep& step) {
    for (const BatchStep::SensorWrite& w : step.writes)
      setSensor(w.sensor, w.lanes, w.values);
    if (step.tickLanes & activeMask_) tick(step.tickLanes);
    settle();
  }

  const LaneVector& probeLanes(BlockId block, const std::string& var) const {
    static const LaneVector kZero;
    const Index s = behavior::findSlot(*programs_[block].program, var);
    if (s == kNone) return kZero;
    return values_[valueBase_[block] + static_cast<std::size_t>(s)];
  }

  const Network* net_;
  BatchSimOptions opts_;
  LaneMask activeMask_ = kAllLanes;
  std::vector<BlockProgram> programs_;     // per block
  std::vector<LaneVector> values_;         // per (block, slot), flat
  std::vector<std::size_t> valueBase_;     // block -> index into values_
  std::vector<LaneVector> lastEmitted_;    // per (block, port), flat
  std::vector<std::size_t> outPortBase_;   // block -> index into flat
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  std::vector<LaneVector> payloads_;  // in-flight packet snapshots
  std::vector<std::unique_ptr<std::array<std::int64_t, kLanes>>> scratch_;
  std::vector<Event> batch_;     // same-instant drain buffer
  std::vector<BlockId> order_;   // activation order within an instant
  std::vector<char> inBatch_;    // per block: queued in order_
  std::uint64_t now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t packetsDelivered_ = 0;
  std::uint64_t activations_ = 0;
  LaneMask faultLanes_ = 0;
  std::string faultMsg_;
};

BatchSimulator::BatchSimulator(const Network& net, BatchSimOptions opts)
    : impl_(std::make_unique<Impl>(net, opts)) {}
BatchSimulator::~BatchSimulator() = default;
BatchSimulator::BatchSimulator(BatchSimulator&&) noexcept = default;
BatchSimulator& BatchSimulator::operator=(BatchSimulator&&) noexcept =
    default;

void BatchSimulator::reset(LaneMask active) { impl_->reset(active); }
LaneMask BatchSimulator::activeLanes() const { return impl_->activeMask_; }

void BatchSimulator::setSensor(BlockId sensor, LaneMask lanes,
                               const LaneVector& values) {
  impl_->setSensor(sensor, lanes, values);
}

void BatchSimulator::setSensor(const std::string& name, LaneMask lanes,
                               std::int64_t value) {
  const auto id = impl_->net_->findBlock(name);
  if (!id) throw SimError("setSensor: no block named '" + name + "'");
  impl_->setSensor(*id, lanes, LaneVector::splat(value));
}

void BatchSimulator::settle() { impl_->settle(); }
void BatchSimulator::tick(LaneMask lanes) { impl_->tick(lanes); }
void BatchSimulator::apply(const BatchStep& step) { impl_->apply(step); }

std::int64_t BatchSimulator::outputValue(BlockId outputBlock,
                                         int lane) const {
  return outputLanes(outputBlock).lane(lane);
}

const LaneVector& BatchSimulator::outputLanes(BlockId outputBlock) const {
  if (!impl_->net_->isOutput(outputBlock))
    throw SimError("outputValue: block '" +
                   impl_->net_->block(outputBlock).name +
                   "' is not an output block");
  return impl_->probeLanes(outputBlock, "display");
}

const LaneVector& BatchSimulator::probeLanes(BlockId block,
                                             const std::string& var) const {
  return impl_->probeLanes(block, var);
}

std::int64_t BatchSimulator::probe(BlockId block, const std::string& var,
                                   int lane) const {
  return impl_->probeLanes(block, var).lane(lane);
}

LaneMask BatchSimulator::faultedLanes() const { return impl_->faultLanes_; }
const std::string& BatchSimulator::faultMessage() const {
  return impl_->faultMsg_;
}
std::uint64_t BatchSimulator::packetsDelivered() const {
  return impl_->packetsDelivered_;
}
std::uint64_t BatchSimulator::activations() const {
  return impl_->activations_;
}
const Network& BatchSimulator::network() const { return *impl_->net_; }

// --- script packing --------------------------------------------------------

BatchScript packStimuli(const Network& net,
                        std::span<const Stimulus> scripts) {
  if (scripts.size() > static_cast<std::size_t>(kLanes))
    throw std::invalid_argument("packStimuli: more than kLanes scripts");
  BatchScript out;
  out.laneCount = static_cast<int>(scripts.size());
  std::size_t maxSteps = 0;
  for (const Stimulus& s : scripts)
    maxSteps = std::max(maxSteps, s.steps().size());
  out.steps.resize(maxSteps);
  out.activeAtStep.resize(maxSteps, 0);
  // Resolve sensor names once: Network::findBlock is a linear scan, and
  // the loop below would otherwise run it per (lane, step).
  std::unordered_map<std::string_view, BlockId> sensorOf;
  for (BlockId b = 0; b < net.blockCount(); ++b)
    if (net.isSensor(b)) sensorOf.emplace(net.block(b).name, b);
  for (std::size_t i = 0; i < maxSteps; ++i) {
    BatchStep& step = out.steps[i];
    std::map<BlockId, std::size_t> writeOf;  // sensor -> index in writes
    for (int lane = 0; lane < out.laneCount; ++lane) {
      const auto& steps = scripts[static_cast<std::size_t>(lane)].steps();
      if (i >= steps.size()) continue;
      out.activeAtStep[i] |= LaneMask{1} << lane;
      const StimulusStep& s = steps[i];
      if (s.kind == StimulusStep::Kind::kTick) {
        step.tickLanes |= LaneMask{1} << lane;
        continue;
      }
      const auto sensorIt = sensorOf.find(s.sensor);
      if (sensorIt == sensorOf.end())
        throw std::invalid_argument("packStimuli: no sensor named '" +
                                    s.sensor + "'");
      const BlockId id = sensorIt->second;
      const auto [it, inserted] = writeOf.emplace(id, step.writes.size());
      if (inserted) step.writes.push_back(BatchStep::SensorWrite{id, 0, {}});
      BatchStep::SensorWrite& w = step.writes[it->second];
      w.lanes |= LaneMask{1} << lane;
      w.values.setLane(lane, s.value);
    }
  }
  return out;
}

}  // namespace eblocks::sim
