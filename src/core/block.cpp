#include "core/block.h"

#include <algorithm>
#include <utility>

#include "behavior/parser.h"

namespace eblocks {

const char* toString(BlockClass c) {
  switch (c) {
    case BlockClass::kSensor: return "sensor";
    case BlockClass::kOutput: return "output";
    case BlockClass::kCompute: return "compute";
    case BlockClass::kCommunication: return "communication";
  }
  return "?";
}

BlockType::BlockType(std::string name, BlockClass cls,
                     std::vector<std::string> inputNames,
                     std::vector<std::string> outputNames,
                     std::string behaviorSource, bool sequential,
                     bool programmable)
    : name_(std::move(name)),
      class_(cls),
      inputs_(std::move(inputNames)),
      outputs_(std::move(outputNames)),
      behavior_(std::move(behaviorSource)),
      sequential_(sequential),
      programmable_(programmable) {
  if (class_ == BlockClass::kSensor && !inputs_.empty())
    throw std::invalid_argument("sensor block type cannot have inputs: " +
                                name_);
  if (class_ == BlockClass::kOutput && !outputs_.empty())
    throw std::invalid_argument("output block type cannot have outputs: " +
                                name_);
  if (programmable_ && class_ != BlockClass::kCompute)
    throw std::invalid_argument("programmable block must be a compute block: " +
                                name_);
}

namespace {

/// The slot of `p` named `name`, appended when the text never mentions it.
behavior::Index slotFor(behavior::Program& p, const std::string& name) {
  const behavior::Index s = behavior::findSlot(p, name);
  return s != behavior::kNone ? s : p.addName(name);
}

}  // namespace

void BlockType::parseOnce() const {
  // Nothing may escape the once-callable: an exception thrown out of
  // std::call_once is not portable across standard libraries.  The error
  // is kept and rethrown out here instead, to every caller.
  std::call_once(parsed_, [this] {
    try {
      program_ = behavior::parse(behavior_);
      for (const std::string& port : inputs_)
        slots_.inputs.push_back(slotFor(program_, port));
      for (const std::string& port : outputs_)
        slots_.outputs.push_back(slotFor(program_, port));
      slots_.tick = slotFor(program_, "tick");
      if (class_ == BlockClass::kSensor) slots_.env = slotFor(program_, "env");
      // Closure: a simulator writes the slots above, the program the
      // names it declares or assigns; any other read has no value.
      std::vector<char> bound(program_.names.size(), 0);
      const auto bind = [&](behavior::Index s) {
        if (s != behavior::kNone) bound[static_cast<std::size_t>(s)] = 1;
      };
      std::ranges::for_each(slots_.inputs, bind);
      std::ranges::for_each(slots_.outputs, bind);
      bind(slots_.tick);
      bind(slots_.env);
      for (const behavior::Node& n : program_.nodes)
        if (n.kind == behavior::NodeKind::kVarDecl ||
            n.kind == behavior::NodeKind::kAssign)
          bind(n.slot);
      for (const behavior::Node& n : program_.nodes)
        if (n.kind == behavior::NodeKind::kVarRef &&
            !bound[static_cast<std::size_t>(n.slot)])
          throw std::invalid_argument(
              "behavior reads '" +
              program_.names[static_cast<std::size_t>(n.slot)] +
              "', which no port, builtin, declaration or assignment binds");
      names_ = behavior::bindNames(program_, inputs_, outputs_);
    } catch (...) {
      parseError_ = std::current_exception();
    }
  });
  if (parseError_) std::rethrow_exception(parseError_);
}

const behavior::Program& BlockType::program() const {
  parseOnce();
  return program_;
}

const behavior::NameTable& BlockType::nameTable() const {
  parseOnce();
  return names_;
}

const BlockType::Slots& BlockType::slots() const {
  parseOnce();
  return slots_;
}

}  // namespace eblocks
