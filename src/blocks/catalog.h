// The eBlocks catalog: every pre-defined block type plus the programmable
// block factory.
//
// Reconstructed from Section 2 of the paper ("Pre-defined compute functions
// include combinational functions, such as a two or three input truth
// table, AND, OR, and NOT, and basic sequential functions, like a toggle,
// trip, pulse generate, and delay") and the companion eBlocks papers.
//
// Simulator contract for behavior programs:
//   - each input port name is bound to the last value received on that port
//     before the program runs;
//   - each output port name is read after the program runs; a packet is
//     emitted when the value changed;
//   - `tick` is 1 when the activation is a timer tick, else 0;
//   - sensor behaviors read `env` (bound by the stimulus);
//   - output-block behaviors write `display` (read by probes);
//   - any other name read is declared or assigned somewhere in the
//     program (BlockType rejects an open program), and every variable
//     reads 0 until written.
#ifndef EBLOCKS_BLOCKS_CATALOG_H_
#define EBLOCKS_BLOCKS_CATALOG_H_

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/block.h"

namespace eblocks::blocks {

/// Builds and caches block types.  Copyable handle semantics are not
/// needed; construct one per tool or use defaultCatalog().
class Catalog {
 public:
  Catalog();

  /// Looks a type up by name ("and2", "toggle", "delay_5", ...).  Throws
  /// std::out_of_range for unknown names.  Parameterized names such as
  /// "delay_7" or "logic2_9" are materialized on demand; a family name
  /// resolves only in its canonical form (decimal parameters without
  /// leading zeros and nothing after them), and one whose parameters are
  /// out of range throws the family's std::invalid_argument.
  /// Thread-safe: concurrent first lookups of a name all get one type.
  BlockTypePtr get(const std::string& name) const;

  /// Like get(), but returns nullptr where get() would throw.
  BlockTypePtr find(const std::string& name) const;

  /// Names of all types built so far, sorted: the pre-built ones plus
  /// any parameterized ones materialized on demand.
  std::vector<std::string> names() const;

  // --- sensors (0 inputs, 1 output) -------------------------------------
  BlockTypePtr button() const { return get("button"); }
  BlockTypePtr contactSwitch() const { return get("contact_switch"); }
  BlockTypePtr lightSensor() const { return get("light_sensor"); }
  BlockTypePtr motionSensor() const { return get("motion_sensor"); }
  BlockTypePtr soundSensor() const { return get("sound_sensor"); }
  BlockTypePtr magneticSensor() const { return get("magnetic_sensor"); }
  BlockTypePtr temperatureSensor() const { return get("temperature_sensor"); }

  // --- outputs (1 input, 0 outputs) --------------------------------------
  BlockTypePtr led() const { return get("led"); }
  BlockTypePtr beeper() const { return get("beeper"); }
  BlockTypePtr relay() const { return get("relay"); }

  // --- combinational compute ---------------------------------------------
  /// 2-input truth table; bit i of `tt` is f(a,b) with i = a*2+b.
  BlockTypePtr logic2(unsigned tt) const;
  /// 3-input truth table; bit i of `tt` is f(a,b,c) with i = a*4+b*2+c.
  BlockTypePtr logic3(unsigned tt) const;
  BlockTypePtr and2() const { return get("and2"); }
  BlockTypePtr or2() const { return get("or2"); }
  BlockTypePtr xor2() const { return get("xor2"); }
  BlockTypePtr nand2() const { return get("nand2"); }
  BlockTypePtr nor2() const { return get("nor2"); }
  BlockTypePtr and3() const { return get("and3"); }
  BlockTypePtr or3() const { return get("or3"); }
  BlockTypePtr majority3() const { return get("majority3"); }
  BlockTypePtr inverter() const { return get("not"); }
  BlockTypePtr buffer() const { return get("yes"); }
  /// 1 input replicated on `ways` output ports (2 or 3).
  BlockTypePtr splitter(int ways) const;

  // --- sequential compute --------------------------------------------------
  /// Rising edge on input flips the output.
  BlockTypePtr toggle() const { return get("toggle"); }
  /// Latches 1 forever once the input is seen high.
  BlockTypePtr trip() const { return get("trip"); }
  /// Latch with reset input.
  BlockTypePtr tripReset() const { return get("trip_reset"); }
  /// Rising edge emits a 1-pulse lasting `ticks` timer ticks.
  BlockTypePtr pulseGen(int ticks) const;
  /// Output follows input once it has been stable for `ticks` ticks.
  BlockTypePtr delay(int ticks) const;
  /// Holds a 1 for `ticks` extra ticks after the input falls.
  BlockTypePtr prolonger(int ticks) const;

  // --- communication (logical wire over another medium) -------------------
  BlockTypePtr rfLink() const { return get("rf_link"); }
  BlockTypePtr x10Link() const { return get("x10_link"); }

  // --- programmable -----------------------------------------------------
  /// The programmable block: `inputs` x `outputs` ports, no behavior until
  /// programmed.  The paper's experiments use programmable(2, 2).  Each
  /// side takes 1 to kMaxProgrammablePorts ports.
  BlockTypePtr programmable(int inputs, int outputs) const;
  static constexpr int kMaxProgrammablePorts = 64;

 private:
  void add(BlockTypePtr t);
  /// The type `name` names -- pre-built, already materialized, or a
  /// family member materialized now -- or nullptr.  Throws the family's
  /// std::invalid_argument for out-of-range parameters.
  BlockTypePtr resolve(const std::string& name) const;
  /// Returns the type named `name`, first building it with make() when
  /// it is missing (a null result is not stored).  Holds mutex_
  /// throughout, so one name always maps to one type.
  template <typename Make>
  BlockTypePtr findOrMake(const std::string& name, Make&& make) const;

  mutable std::mutex mutex_;  // guards types_
  mutable std::map<std::string, BlockTypePtr> types_;
};

/// Shared default catalog (built on first use).
const Catalog& defaultCatalog();

}  // namespace eblocks::blocks

#endif  // EBLOCKS_BLOCKS_CATALOG_H_
