// Deployment mapping (Section 6's second future-work item): synthesize a
// design, then place the resulting network onto an existing installation
// of programmable nodes and cables, with the physical sensor/output
// devices pinned where they are mounted.
#include <cstdio>

#include "designs/library.h"
#include "mapping/mapper.h"
#include "synth/synthesizer.h"

using namespace eblocks;
using namespace eblocks::mapping;

int main() {
  // The garage system, synthesized: 2 sensors + 1 programmable + 1 LED.
  const synth::SynthResult r = synth::synthesize(designs::garageOpenAtNight());
  std::printf("%s\n", r.report().c_str());

  // The house wiring: porch - garage - hallway - bedroom, with a spare
  // node in the attic.  Duplex cable along the corridor run.
  Topology house("house");
  const PhysId garage = house.addNode("garage_wall", 2, 2);
  const PhysId porch = house.addNode("porch", 2, 2);
  const PhysId hall = house.addNode("hallway", 2, 2);
  const PhysId bedroom = house.addNode("bedroom", 2, 2);
  const PhysId attic = house.addNode("attic", 2, 2);
  house.addDuplexLink(garage, hall);
  house.addDuplexLink(porch, hall);
  house.addDuplexLink(hall, bedroom);
  house.addDuplexLink(hall, attic);
  // The door contact is at the garage, the light sensor on the porch, the
  // LED in the bedroom; extra cable so both sensor feeds can reach the
  // hallway node that will host the programmable block.
  house.addLink(garage, hall);
  house.addLink(porch, hall);

  MappingOptions options;
  options.pinned[*r.network.findBlock("garage_door")] = garage;
  options.pinned[*r.network.findBlock("daylight")] = porch;
  options.pinned[*r.network.findBlock("bedroom_led")] = bedroom;

  const MapResult result = mapNetwork(r.network, house, options);
  std::printf("deployment %s (%llu search nodes)\n", toString(result.status),
              static_cast<unsigned long long>(result.explored));
  if (result.status != MapStatus::kMapped) return 1;
  for (BlockId b = 0; b < r.network.blockCount(); ++b)
    std::printf("  %-14s -> %s\n", r.network.block(b).name.c_str(),
                house.node(result.mapping.placement[b]).name.c_str());
  const auto problems = verifyMapping(r.network, house, result.mapping);
  std::printf("verification: %s\n",
              problems.empty() ? "ok" : problems.front().c_str());
  return problems.empty() ? 0 : 1;
}
