#include "core/block.h"

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

void BlockType::parseOnce() const {
  // Nothing may escape the once-callable: an exception thrown out of
  // std::call_once is not portable across standard libraries.  The error
  // is kept and rethrown out here instead, to every caller.
  std::call_once(parsed_, [this] {
    try {
      program_ = behavior::parse(behavior_);
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

}  // namespace eblocks
