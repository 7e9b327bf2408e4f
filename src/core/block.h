// Block types: the immutable descriptors of eBlocks.
//
// The eBlocks platform (Cotterell/Vahid et al.) features four classes of
// blocks communicating over a uniform serial packet protocol:
//   - sensor blocks sense environmental stimuli (buttons, light, motion...),
//   - output blocks act on the environment (LEDs, beepers, relays),
//   - compute blocks implement a pre-defined combinational or sequential
//     function on their inputs,
//   - communication blocks forward signals over another medium (RF, X10).
// A *programmable* block is a special compute block with a fixed number of
// input/output ports whose function is downloaded as generated C code.
#ifndef EBLOCKS_CORE_BLOCK_H_
#define EBLOCKS_CORE_BLOCK_H_

#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "behavior/ast.h"

namespace eblocks {

/// Dense index of a block instance inside a Network.
using BlockId = std::uint32_t;
inline constexpr BlockId kNoBlock = 0xffffffffu;

/// One side of a connection: an input or output port of a block instance.
struct Endpoint {
  BlockId block = kNoBlock;
  std::uint16_t port = 0;
  friend auto operator<=>(const Endpoint&, const Endpoint&) = default;
};

/// The four functional classes of eBlocks.
enum class BlockClass : std::uint8_t {
  kSensor,         ///< primary input; senses the environment
  kOutput,         ///< primary output; acts on the environment
  kCompute,        ///< pre-defined or programmable function
  kCommunication,  ///< medium adaptor (wireless, X10); logically a wire
};

/// Returns a human-readable name ("sensor", "output", ...).
const char* toString(BlockClass c);

/// Immutable descriptor of a block type: port lists, class, and the behavior
/// program (in the behavior DSL; see src/behavior) that the simulator
/// interprets and the code generator merges.  Not copyable: a type's
/// parsed program is shared through BlockTypePtr, never duplicated.
class BlockType {
 public:
  /// `behaviorSource` is a program in the behavior DSL.  For sensors it
  /// forwards the environment value; for outputs it consumes the input.
  /// `sequential` marks types with internal state (toggle, delay, ...).
  BlockType(std::string name, BlockClass cls,
            std::vector<std::string> inputNames,
            std::vector<std::string> outputNames, std::string behaviorSource,
            bool sequential = false, bool programmable = false);

  const std::string& name() const { return name_; }
  BlockClass blockClass() const { return class_; }

  int inputCount() const { return static_cast<int>(inputs_.size()); }
  int outputCount() const { return static_cast<int>(outputs_.size()); }
  const std::string& inputName(int i) const { return inputs_.at(static_cast<std::size_t>(i)); }
  const std::string& outputName(int i) const { return outputs_.at(static_cast<std::size_t>(i)); }
  const std::vector<std::string>& inputNames() const { return inputs_; }
  const std::vector<std::string>& outputNames() const { return outputs_; }

  /// Program text in the behavior DSL (see behavior/parser.h).  The text
  /// is the stored form, which the file and wire formats and the type
  /// equality checks read.
  const std::string& behaviorSource() const { return behavior_; }

  /// The parsed behavior in its flat form (behavior/ast.h), shared by
  /// every consumer (merge, simulators, canonical hash).  Parsed on the
  /// first call and kept for the type's lifetime, so a malformed type
  /// stays constructible; thread-safe.  Besides the names the text
  /// mentions, the program has a slot for every port name, for `tick` and,
  /// on a sensor, for `env`: the names a simulator writes (see slots()).
  /// Throws on every call when the text does not parse (its LexError /
  /// ParseError) or when the program is *open*: when it reads a name that
  /// is none of those and that it never declares or assigns
  /// (std::invalid_argument naming that name).
  const behavior::Program& program() const;

  /// What each slot of program() denotes for this type's ports, indexed by
  /// slot, resolved with the parse and shared likewise.  Same exceptions as
  /// program().
  const behavior::NameTable& nameTable() const;

  /// The slots of program() that a simulator writes, resolved by name, so a
  /// name shared by two ports is one slot.
  struct Slots {
    std::vector<behavior::Index> inputs;   ///< input port -> slot
    std::vector<behavior::Index> outputs;  ///< output port -> slot
    behavior::Index tick = behavior::kNone;
    behavior::Index env = behavior::kNone;  ///< sensors only
  };
  /// Resolved with the parse and shared likewise.  Same exceptions as
  /// program().
  const Slots& slots() const;

  /// True for blocks with internal state (toggle, trip, delay, pulse...).
  bool sequential() const { return sequential_; }

  /// True for the programmable compute block (and synthesized replacements).
  bool programmable() const { return programmable_; }

 private:
  void parseOnce() const;

  std::string name_;
  BlockClass class_;
  std::vector<std::string> inputs_;
  std::vector<std::string> outputs_;
  std::string behavior_;
  bool sequential_;
  bool programmable_;
  mutable std::once_flag parsed_;
  mutable behavior::Program program_;
  mutable behavior::NameTable names_;
  mutable Slots slots_;
  mutable std::exception_ptr parseError_;
};

using BlockTypePtr = std::shared_ptr<const BlockType>;

/// A block instance placed in a network.
struct Block {
  std::string name;   ///< unique instance name within the network
  BlockTypePtr type;  ///< shared immutable descriptor
};

}  // namespace eblocks

#endif  // EBLOCKS_CORE_BLOCK_H_
