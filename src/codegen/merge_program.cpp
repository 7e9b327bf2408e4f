#include "codegen/merge_program.h"

#include <map>

#include "behavior/merge.h"
#include "behavior/rename.h"
#include "codegen/level_order.h"

namespace eblocks::codegen {

namespace {

std::string wireName(Endpoint e) {
  return "w" + std::to_string(e.block) + "_" + std::to_string(e.port);
}

// Snapshot copy of a wire, refreshed after its producer runs on non-tick
// passes only.  Members read snapshots so that, during a tick pass, every
// member sees its inputs as they were *before* the tick -- matching the
// original network, where a tick reaches all blocks before any of its
// effects can propagate as packets.  The cascade pass (tick == 0) that
// follows a tick refreshes the snapshots inline, so packet-style
// propagation is single-pass exact.
std::string snapName(Endpoint e) {
  return "ws" + std::to_string(e.block) + "_" + std::to_string(e.port);
}

}  // namespace

MergedProgram mergePartitionProgram(const Network& net,
                                    const BitSet& partition,
                                    const std::vector<int>& levels,
                                    CountingMode mode) {
  MergedProgram merged;
  merged.members = levelOrder(partition, levels);

  // --- assign input ports -------------------------------------------------
  // Iterate members in id order (deterministic), their input ports in
  // order, and allocate programmable input ports for externally-driven
  // connections.  In kSignals mode connections sharing the same external
  // source endpoint share a port.
  std::map<Connection, int> inPortOfConnection;
  {
    std::map<Endpoint, int> portOfSource;  // kSignals only
    partition.forEach([&](std::size_t bi) {
      const BlockId b = static_cast<BlockId>(bi);
      const BlockType& t = *net.block(b).type;
      for (int p = 0; p < t.inputCount(); ++p) {
        const auto driver = net.driverOf(b, p);
        if (!driver)
          throw CodegenError("mergePartitionProgram: input '" +
                             t.inputName(p) + "' of '" + net.block(b).name +
                             "' is not driven");
        if (partition.test(driver->from.block)) continue;  // internal wire
        if (mode == CountingMode::kSignals) {
          const auto it = portOfSource.find(driver->from);
          if (it != portOfSource.end()) {
            inPortOfConnection[*driver] = it->second;
            merged.inputEdges[static_cast<std::size_t>(it->second)]
                .push_back(*driver);
            continue;
          }
          portOfSource.emplace(driver->from, merged.inputCount());
        }
        inPortOfConnection[*driver] = merged.inputCount();
        merged.inputEdges.push_back({*driver});
      }
    });
  }

  // --- assign output ports ------------------------------------------------
  {
    std::map<Endpoint, int> portOfSource;  // kSignals only
    partition.forEach([&](std::size_t bi) {
      const BlockId b = static_cast<BlockId>(bi);
      const BlockType& t = *net.block(b).type;
      for (int p = 0; p < t.outputCount(); ++p) {
        const Endpoint src{b, static_cast<std::uint16_t>(p)};
        for (const Connection& c : net.fanoutOf(b, p)) {
          if (partition.test(c.to.block)) continue;  // stays internal
          if (mode == CountingMode::kSignals) {
            const auto it = portOfSource.find(src);
            if (it != portOfSource.end()) {
              merged.outputEdges[static_cast<std::size_t>(it->second)]
                  .push_back(c);
              continue;
            }
            portOfSource.emplace(src, merged.outputCount());
          }
          merged.outputEdges.push_back({c});
          merged.outputSources.push_back(src);
        }
      }
    });
  }

  // --- build per-member programs ------------------------------------------
  std::vector<behavior::Program> parts;

  // Wire declarations first so merged state initialization covers them.
  {
    behavior::Program wireDecls;
    partition.forEach([&](std::size_t bi) {
      const BlockId b = static_cast<BlockId>(bi);
      const BlockType& t = *net.block(b).type;
      for (int p = 0; p < t.outputCount(); ++p) {
        const Endpoint e{b, static_cast<std::uint16_t>(p)};
        wireDecls.statements.push_back(
            behavior::makeVarDecl(wireName(e), behavior::makeIntLit(0)));
        wireDecls.statements.push_back(
            behavior::makeVarDecl(snapName(e), behavior::makeIntLit(0)));
      }
    });
    parts.push_back(std::move(wireDecls));
  }

  for (BlockId b : merged.members) {
    const BlockType& t = *net.block(b).type;
    const behavior::Program* program = nullptr;
    const behavior::NameTable* names = nullptr;
    try {
      program = &t.program();
      names = &t.nameTable();
    } catch (const std::exception& e) {
      throw CodegenError("mergePartitionProgram: behavior of '" +
                         net.block(b).name + "': " + e.what());
    }
    // Input ports -> wire snapshot of an internal driver, or programmable
    // input port; output ports -> wires.
    std::vector<std::string> inputNames, outputNames;
    inputNames.reserve(static_cast<std::size_t>(t.inputCount()));
    for (int p = 0; p < t.inputCount(); ++p) {
      const Connection driver = *net.driverOf(b, p);
      inputNames.push_back(
          partition.test(driver.from.block)
              ? snapName(driver.from)
              : "in" + std::to_string(inPortOfConnection.at(driver)));
    }
    outputNames.reserve(static_cast<std::size_t>(t.outputCount()));
    for (int p = 0; p < t.outputCount(); ++p)
      outputNames.push_back(
          wireName(Endpoint{b, static_cast<std::uint16_t>(p)}));
    // Everything else (state variables) gets a per-member prefix; `tick`
    // is shared by design (all sequential members tick together).
    const std::string prefix = "b" + std::to_string(b) + "_";
    behavior::Program prog =
        behavior::renamedCopy(*program, [&](const std::string& n) {
          const behavior::NameBinding& nb = names->at(n);
          switch (nb.kind) {
            case behavior::NameBinding::Kind::kInput:
              return inputNames[static_cast<std::size_t>(nb.port)];
            case behavior::NameBinding::Kind::kOutput:
              return outputNames[static_cast<std::size_t>(nb.port)];
            case behavior::NameBinding::Kind::kTick:
              return n;
            case behavior::NameBinding::Kind::kLocal:
              break;
          }
          return prefix + n;
        });
    // Refresh this member's wire snapshots on non-tick passes, inline so
    // downstream members still cascade within a single packet activation.
    for (int p = 0; p < t.outputCount(); ++p) {
      const Endpoint e{b, static_cast<std::uint16_t>(p)};
      std::vector<behavior::StmtPtr> refresh;
      refresh.push_back(behavior::makeAssign(
          snapName(e),
          behavior::makeVarRef(outputNames[static_cast<std::size_t>(p)])));
      prog.statements.push_back(behavior::makeIf(
          behavior::makeBinary(behavior::BinaryOp::kEq,
                               behavior::makeVarRef("tick"),
                               behavior::makeIntLit(0)),
          std::move(refresh)));
    }
    parts.push_back(std::move(prog));
  }

  // --- re-export wires on the programmable outputs -------------------------
  {
    behavior::Program exports;
    for (int k = 0; k < merged.outputCount(); ++k)
      exports.statements.push_back(behavior::makeAssign(
          "out" + std::to_string(k),
          behavior::makeVarRef(
              wireName(merged.outputSources[static_cast<std::size_t>(k)]))));
    parts.push_back(std::move(exports));
  }

  merged.program = behavior::mergePrograms(std::move(parts));
  return merged;
}

}  // namespace eblocks::codegen
