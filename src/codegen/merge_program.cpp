#include "codegen/merge_program.h"

#include <algorithm>
#include <utility>

#include "codegen/level_order.h"

namespace eblocks::codegen {

namespace {

using behavior::Index;
using behavior::NodeKind;

/// `stem` followed by `n` in decimal.  (Appending to a named string keeps
/// gcc 12 from a false -Wrestrict at -O3, which "stem" + std::to_string(n)
/// draws.)
std::string numbered(std::string stem, unsigned n) {
  stem += std::to_string(n);
  return stem;
}

std::string wireName(Endpoint e) {
  return numbered(numbered("w", e.block) + '_', e.port);
}

// Snapshot copy of a wire, refreshed after its producer runs on non-tick
// passes only.  Members read snapshots so that, during a tick pass, every
// member sees its inputs as they were *before* the tick -- matching the
// original network, where a tick reaches all blocks before any of its
// effects can propagate as packets.  The cascade pass (tick == 0) that
// follows a tick refreshes the snapshots inline, so packet-style
// propagation is single-pass exact.
std::string snapName(Endpoint e) {
  return numbered(numbered("ws", e.block) + '_', e.port);
}

}  // namespace

MergedProgram mergePartitionProgram(const Network& net,
                                    const BitSet& partition,
                                    const std::vector<int>& levels,
                                    CountingMode mode) {
  MergedProgram merged;
  merged.members = levelOrder(partition, levels);

  // --- sizes ----------------------------------------------------------------
  // Sized first, so that each array below is allocated once.  Undriven
  // inputs are reported in id order, then unparsable behaviors in level
  // order.
  std::size_t inputs = 0, outputs = 0;
  partition.forEach([&](std::size_t bi) {
    const BlockId b = static_cast<BlockId>(bi);
    const BlockType& t = *net.block(b).type;
    for (int p = 0; p < t.inputCount(); ++p)
      if (!net.driverOf(b, p))
        throw CodegenError("mergePartitionProgram: input '" +
                           t.inputName(p) + "' of '" + net.block(b).name +
                           "' is not driven");
    inputs += static_cast<std::size_t>(t.inputCount());
    outputs += static_cast<std::size_t>(t.outputCount());
  });
  std::vector<std::pair<const behavior::Program*, const behavior::NameTable*>>
      programs;
  programs.reserve(merged.members.size());
  std::size_t nodes = 0, names = 0, statements = 0, widest = 0;
  for (BlockId b : merged.members) {
    try {
      programs.emplace_back(&net.block(b).type->program(),
                            &net.block(b).type->nameTable());
    } catch (const std::exception& e) {
      throw CodegenError("mergePartitionProgram: behavior of '" +
                         net.block(b).name + "': " + e.what());
    }
    const behavior::Program& p = *programs.back().first;
    nodes += p.nodes.size();
    names += p.names.size();
    statements += p.top.size();
    widest = std::max(widest, p.names.size());
  }
  // Each member output adds a wire and its snapshot (two names; two
  // declarations of two nodes; a six-node refresh) and, as a rule, one
  // programmable output (a name; a two-node export).
  behavior::Program& out = merged.program;
  out.nodes.reserve(nodes + 12 * outputs);
  out.names.reserve(names + 1 + inputs + 3 * outputs);
  out.top.reserve(statements + 4 * outputs);  // declarations first
  std::vector<Index> body;                    // then these
  body.reserve(statements + 2 * outputs);

  // --- wires ---------------------------------------------------------------
  // Every member output, in id order, gets a wire and its snapshot, both
  // declared first so merged state initialization covers them: wire i is
  // slot 2i and its snapshot slot 2i + 1.
  std::vector<Endpoint> wires;
  wires.reserve(outputs);
  partition.forEach([&](std::size_t bi) {
    const BlockId b = static_cast<BlockId>(bi);
    for (int p = 0; p < net.block(b).type->outputCount(); ++p) {
      const Endpoint e{b, static_cast<std::uint16_t>(p)};
      wires.push_back(e);
      for (const std::string& name : {wireName(e), snapName(e)}) {
        const Index zero = out.add({.kind = NodeKind::kIntLit});
        out.top.push_back(out.add({.kind = NodeKind::kVarDecl,
                                   .slot = out.addName(name),
                                   .lhs = zero}));
      }
    }
  });
  const auto wireSlot = [&](Endpoint e) {
    return 2 * static_cast<Index>(std::ranges::lower_bound(wires, e) -
                                  wires.begin());
  };
  const Index tick = out.addName("tick");

  // --- assign input ports -------------------------------------------------
  // Iterate members in id order, their input ports in order, and allocate
  // programmable input ports for externally-driven connections.  In
  // kSignals mode connections sharing the same external source endpoint
  // share a port.  Every member input resolves to a merged slot: its
  // internal driver's snapshot, or its port's `in<k>`.
  std::vector<std::pair<Endpoint, Index>> inputSlot;  // sorted by consumer
  std::vector<std::pair<Endpoint, Index>> portOfSource;  // (source, in<k>)
  inputSlot.reserve(inputs);
  portOfSource.reserve(inputs);
  merged.inputEdges.reserve(inputs);
  merged.inputSlots.reserve(inputs);
  partition.forEach([&](std::size_t bi) {
    const BlockId b = static_cast<BlockId>(bi);
    for (int p = 0; p < net.block(b).type->inputCount(); ++p) {
      const Connection driver = *net.driverOf(b, p);
      if (partition.test(driver.from.block)) {  // internal wire
        inputSlot.emplace_back(driver.to, wireSlot(driver.from) + 1);
        continue;
      }
      const auto shared =
          mode == CountingMode::kSignals
              ? std::ranges::find(portOfSource, driver.from,
                                  &std::pair<Endpoint, Index>::first)
              : portOfSource.end();
      if (shared != portOfSource.end()) {
        merged.inputEdges[static_cast<std::size_t>(shared -
                                                   portOfSource.begin())]
            .push_back(driver);
        inputSlot.emplace_back(driver.to, shared->second);
        continue;
      }
      const Index port = out.addName(numbered(
          "in", static_cast<unsigned>(merged.inputEdges.size())));
      portOfSource.emplace_back(driver.from, port);
      merged.inputEdges.push_back({driver});
      merged.inputSlots.push_back(port);
      inputSlot.emplace_back(driver.to, port);
    }
  });

  // --- assign output ports ------------------------------------------------
  // A source's boundary-crossing connections are visited together, so in
  // kSignals mode they share the port opened last.
  merged.outputEdges.reserve(outputs);
  merged.outputSources.reserve(outputs);
  partition.forEach([&](std::size_t bi) {
    const BlockId b = static_cast<BlockId>(bi);
    for (int p = 0; p < net.block(b).type->outputCount(); ++p)
      for (const Connection& c : net.outputsOf(b)) {
        if (c.from.port != p || partition.test(c.to.block)) continue;
        if (mode == CountingMode::kSignals &&
            !merged.outputSources.empty() &&
            merged.outputSources.back() == c.from) {
          merged.outputEdges.back().push_back(c);
          continue;
        }
        merged.outputEdges.push_back({c});
        merged.outputSources.push_back(c.from);
      }
  });

  // --- member programs ----------------------------------------------------
  const auto ref = [&](Index slot) {
    return out.add({.kind = NodeKind::kVarRef, .slot = slot});
  };
  const auto assign = [&](Index slot, Index value) {
    return out.add({.kind = NodeKind::kAssign, .slot = slot, .lhs = value});
  };
  std::vector<Index> slotMap;
  slotMap.reserve(widest);
  for (std::size_t m = 0; m < merged.members.size(); ++m) {
    const BlockId b = merged.members[m];
    const auto [program, bindings] = programs[m];
    // Input ports -> wire snapshot of an internal driver, or programmable
    // input port; output ports -> wires; `tick` is shared by design (all
    // sequential members tick together); everything else (state
    // variables) gets a per-member prefix.
    const std::string prefix = numbered("b", b) + '_';
    slotMap.resize(program->names.size());
    for (std::size_t s = 0; s < slotMap.size(); ++s) {
      const behavior::NameBinding& nb = (*bindings)[s];
      switch (nb.kind) {
        case behavior::NameBinding::Kind::kInput:
          slotMap[s] = std::ranges::lower_bound(
                           inputSlot,
                           Endpoint{b, static_cast<std::uint16_t>(nb.port)},
                           {}, &std::pair<Endpoint, Index>::first)
                           ->second;
          break;
        case behavior::NameBinding::Kind::kOutput:
          slotMap[s] =
              wireSlot(Endpoint{b, static_cast<std::uint16_t>(nb.port)});
          break;
        case behavior::NameBinding::Kind::kTick:
          slotMap[s] = tick;
          break;
        case behavior::NameBinding::Kind::kLocal:
          slotMap[s] = out.addName(prefix + program->names[s]);
          break;
      }
    }
    const Index base = behavior::appendCopy(out, *program, slotMap);
    for (const Index s : program->top)
      (out.nodes[static_cast<std::size_t>(s + base)].kind ==
               NodeKind::kVarDecl
           ? out.top
           : body)
          .push_back(s + base);
    // Refresh this member's wire snapshots on non-tick passes, inline so
    // downstream members still cascade within a single packet activation.
    for (int p = 0; p < net.block(b).type->outputCount(); ++p) {
      const Index wire = wireSlot(Endpoint{b, static_cast<std::uint16_t>(p)});
      const Index tickRef = ref(tick);
      const Index zero = out.add({.kind = NodeKind::kIntLit});
      const Index cond = out.add({.kind = NodeKind::kBinary,
                                  .bop = behavior::BinaryOp::kEq,
                                  .lhs = tickRef,
                                  .rhs = zero});
      const Index refresh = assign(wire + 1, ref(wire));
      body.push_back(
          out.add({.kind = NodeKind::kIf, .lhs = cond, .then = refresh}));
    }
  }

  // --- re-export wires on the programmable outputs -------------------------
  merged.outputSlots.reserve(merged.outputEdges.size());
  for (int k = 0; k < merged.outputCount(); ++k) {
    const Index port = out.addName(numbered("out", static_cast<unsigned>(k)));
    merged.outputSlots.push_back(port);
    body.push_back(assign(
        port,
        ref(wireSlot(merged.outputSources[static_cast<std::size_t>(k)]))));
  }

  std::vector<char> declared(out.names.size(), 0);
  for (const Index d : out.top) {
    const auto slot =
        static_cast<std::size_t>(out.nodes[static_cast<std::size_t>(d)].slot);
    if (declared[slot])
      throw std::invalid_argument(
          "mergePartitionProgram: duplicate state variable '" +
          out.names[slot] + "'");
    declared[slot] = 1;
  }
  out.top.insert(out.top.end(), body.begin(), body.end());
  return merged;
}

}  // namespace eblocks::codegen
