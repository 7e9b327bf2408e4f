#include "designs/library.h"

#include <stdexcept>

#include "blocks/catalog.h"

namespace eblocks::designs {

namespace {

using blocks::defaultCatalog;

/// or-chain helper: `stages` two-input OR blocks, each fed by one fresh
/// sensor (the first by two), folding into a single output block.  No
/// subset of the chain ever fits a 2x2 programmable block, which makes
/// these designs partition-proof (paper rows with Prog = 0).
Network orChain(const std::string& name, int stages,
                const std::string& sensorType, const std::string& outType) {
  const auto& cat = defaultCatalog();
  Network net(name);
  const BlockId s0 = net.addBlock("sensor0", cat.get(sensorType));
  BlockId prev = net.addBlock("or1", cat.or2());
  net.connect(s0, 0, prev, 0);
  {
    const BlockId s1 = net.addBlock("sensor1", cat.get(sensorType));
    net.connect(s1, 0, prev, 1);
  }
  for (int i = 2; i <= stages; ++i) {
    const BlockId ori = net.addBlock("or" + std::to_string(i), cat.or2());
    net.connect(prev, 0, ori, 0);
    const BlockId si = net.addBlock("sensor" + std::to_string(i),
                                    cat.get(sensorType));
    net.connect(si, 0, ori, 1);
    prev = ori;
  }
  const BlockId out = net.addBlock("alert", cat.get(outType));
  net.connect(prev, 0, out, 0);
  return net;
}

Network ignitionIlluminator() {
  const auto& cat = defaultCatalog();
  Network net("Ignition Illuminator");
  const BlockId ign = net.addBlock("ignition", cat.contactSwitch());
  const BlockId door = net.addBlock("door", cat.contactSwitch());
  const BlockId inv = net.addBlock("ign_off", cat.inverter());
  const BlockId both = net.addBlock("door_while_off", cat.and2());
  const BlockId lamp = net.addBlock("cabin_light", cat.led());
  net.connect(ign, 0, inv, 0);
  net.connect(inv, 0, both, 0);
  net.connect(door, 0, both, 1);
  net.connect(both, 0, lamp, 0);
  return net;
}

Network nightLampController() {
  const auto& cat = defaultCatalog();
  Network net("Night Lamp Controller");
  const BlockId light = net.addBlock("daylight", cat.lightSensor());
  const BlockId motion = net.addBlock("motion", cat.motionSensor());
  const BlockId dark = net.addBlock("is_dark", cat.inverter());
  const BlockId on = net.addBlock("motion_at_dark", cat.and2());
  const BlockId lamp = net.addBlock("lamp", cat.relay());
  net.connect(light, 0, dark, 0);
  net.connect(dark, 0, on, 0);
  net.connect(motion, 0, on, 1);
  net.connect(on, 0, lamp, 0);
  return net;
}

Network entryGateDetector() {
  const auto& cat = defaultCatalog();
  Network net("Entry Gate Detector");
  const BlockId gate = net.addBlock("gate_magnet", cat.magneticSensor());
  const BlockId tog = net.addBlock("gate_open", cat.toggle());
  const BlockId hold = net.addBlock("hold_alert", cat.prolonger(5));
  const BlockId bell = net.addBlock("chime", cat.beeper());
  net.connect(gate, 0, tog, 0);
  net.connect(tog, 0, hold, 0);
  net.connect(hold, 0, bell, 0);
  return net;
}

Network carpoolAlert() {
  const auto& cat = defaultCatalog();
  Network net("Carpool Alert");
  const BlockId arrive = net.addBlock("driveway_button", cat.button());
  const BlockId home = net.addBlock("at_home", cat.contactSwitch());
  const BlockId hold = net.addBlock("hold", cat.prolonger(10));
  const BlockId gate = net.addBlock("alert_if_home", cat.and2());
  const BlockId buzz = net.addBlock("buzzer", cat.beeper());
  net.connect(arrive, 0, hold, 0);
  net.connect(hold, 0, gate, 0);
  net.connect(home, 0, gate, 1);
  net.connect(gate, 0, buzz, 0);
  return net;
}

Network cafeteriaFoodAlert() {
  const auto& cat = defaultCatalog();
  Network net("Cafeteria Food Alert");
  const BlockId lights = net.addBlock("kitchen_lights", cat.lightSensor());
  const BlockId motion = net.addBlock("counter_motion", cat.motionSensor());
  const BlockId lit = net.addBlock("kitchen_active", cat.buffer());
  const BlockId seen = net.addBlock("staff_seen", cat.trip());
  const BlockId both = net.addBlock("food_out", cat.and2());
  const BlockId sign = net.addBlock("sign", cat.led());
  net.connect(lights, 0, lit, 0);
  net.connect(motion, 0, seen, 0);
  net.connect(lit, 0, both, 0);
  net.connect(seen, 0, both, 1);
  net.connect(both, 0, sign, 0);
  return net;
}

Network podiumTimer2() {
  const auto& cat = defaultCatalog();
  Network net("Podium Timer 2");
  const BlockId start = net.addBlock("start_button", cat.button());
  const BlockId run = net.addBlock("running", cat.toggle());
  const BlockId wait = net.addBlock("talk_time", cat.delay(8));
  const BlockId hold = net.addBlock("hold_warning", cat.prolonger(4));
  const BlockId lampY = net.addBlock("warning_lamp", cat.led());
  net.connect(start, 0, run, 0);
  net.connect(run, 0, wait, 0);
  net.connect(wait, 0, hold, 0);
  net.connect(hold, 0, lampY, 0);
  return net;
}

Network anyWindowOpenAlarm() {
  return orChain("Any Window Open Alarm", 3, "contact_switch", "beeper");
}

Network twoButtonLight() {
  const auto& cat = defaultCatalog();
  Network net("Two Button Light");
  const BlockId b1 = net.addBlock("button_door", cat.button());
  const BlockId b2 = net.addBlock("button_bed", cat.button());
  const BlockId either = net.addBlock("either", cat.or2());
  const BlockId tog = net.addBlock("light_state", cat.toggle());
  const BlockId inv = net.addBlock("light_off_state", cat.inverter());
  const BlockId lamp = net.addBlock("lamp", cat.led());
  const BlockId pilot = net.addBlock("pilot", cat.led());
  net.connect(b1, 0, either, 0);
  net.connect(b2, 0, either, 1);
  net.connect(either, 0, tog, 0);
  net.connect(tog, 0, inv, 0);
  net.connect(tog, 0, lamp, 0);
  net.connect(inv, 0, pilot, 0);
  return net;
}

Network doorbellExtender(int stages, const std::string& name) {
  return orChain(name, stages, "button", "beeper");
}

Network noiseAtNightDetector() {
  // Four monitored rooms, each: or2(two sound sensors) -> prolonger -> lamp
  // (a convergent pair the partitioner should merge), plus two hallway
  // or2's that cannot merge with anything.  10 inner blocks; both
  // algorithms settle at 6 total / 4 programmable, the paper's row.
  const auto& cat = defaultCatalog();
  Network net("Noise At Night Detector");
  for (int room = 0; room < 4; ++room) {
    const std::string r = std::to_string(room);
    const BlockId sa = net.addBlock("mic_a_room" + r, cat.soundSensor());
    const BlockId sb = net.addBlock("mic_b_room" + r, cat.soundSensor());
    const BlockId any = net.addBlock("noise_room" + r, cat.or2());
    const BlockId hold = net.addBlock("hold_room" + r, cat.prolonger(6));
    const BlockId lamp = net.addBlock("lamp_room" + r, cat.led());
    net.connect(sa, 0, any, 0);
    net.connect(sb, 0, any, 1);
    net.connect(any, 0, hold, 0);
    net.connect(hold, 0, lamp, 0);
  }
  for (int hall = 0; hall < 2; ++hall) {
    const std::string h = std::to_string(hall);
    const BlockId sa = net.addBlock("mic_a_hall" + h, cat.soundSensor());
    const BlockId sb = net.addBlock("mic_b_hall" + h, cat.soundSensor());
    const BlockId any = net.addBlock("noise_hall" + h, cat.or2());
    const BlockId lamp = net.addBlock("lamp_hall" + h, cat.led());
    net.connect(sa, 0, any, 0);
    net.connect(sb, 0, any, 1);
    net.connect(any, 0, lamp, 0);
  }
  return net;
}

Network twoZoneSecurity() {
  // Two zones, each: or-chain over three entry sensors, an arm switch, and
  // an alarm pipeline (grace delay -> reset-able latch -> siren prolonger
  // -> chirp-limited pulse) of four mergeable blocks; a master section
  // qualifies "any zone" with night-time and drives a hall lamp through
  // its own four-block pipeline.  19 inner blocks; the three four-block
  // pipelines each fit a 2x2 programmable block (2 in / 2 out).  The
  // paper's row is 10 total / 3 programmable; PareDown measures 12 / 4
  // here and exhaustive search 10 / 5 (docs/benchmarks.md, deviations).
  const auto& cat = defaultCatalog();
  Network net("Two-Zone Security");
  const BlockId reset = net.addBlock("reset_button", cat.button());
  std::vector<BlockId> zoneOut;
  for (int z = 0; z < 2; ++z) {
    const std::string s = std::to_string(z);
    const BlockId e0 = net.addBlock("entry0_z" + s, cat.contactSwitch());
    const BlockId e1 = net.addBlock("entry1_z" + s, cat.contactSwitch());
    const BlockId e2 = net.addBlock("entry2_z" + s, cat.motionSensor());
    const BlockId arm = net.addBlock("arm_z" + s, cat.contactSwitch());
    const BlockId or1 = net.addBlock("any01_z" + s, cat.or2());
    const BlockId or2b = net.addBlock("any_z" + s, cat.or2());
    const BlockId gate = net.addBlock("armed_breach_z" + s, cat.and2());
    const BlockId grace = net.addBlock("grace_z" + s, cat.delay(3));
    const BlockId latch = net.addBlock("alarm_latch_z" + s, cat.tripReset());
    const BlockId hold = net.addBlock("sound_z" + s, cat.prolonger(8));
    const BlockId chirp = net.addBlock("chirp_z" + s, cat.pulseGen(12));
    const BlockId horn = net.addBlock("horn_z" + s, cat.beeper());
    net.connect(e0, 0, or1, 0);
    net.connect(e1, 0, or1, 1);
    net.connect(or1, 0, or2b, 0);
    net.connect(e2, 0, or2b, 1);
    net.connect(or2b, 0, gate, 0);
    net.connect(arm, 0, gate, 1);
    net.connect(gate, 0, grace, 0);
    net.connect(grace, 0, latch, 0);
    net.connect(reset, 0, latch, 1);
    net.connect(latch, 0, hold, 0);
    net.connect(hold, 0, chirp, 0);
    net.connect(chirp, 0, horn, 0);
    zoneOut.push_back(latch);
  }
  // Master: any zone in alarm, qualified by night, drives the hall lamp
  // through a hold + chirp pipeline of its own.
  const BlockId anyZone = net.addBlock("any_zone", cat.or2());
  net.connect(zoneOut[0], 0, anyZone, 0);
  net.connect(zoneOut[1], 0, anyZone, 1);
  const BlockId daylight = net.addBlock("daylight", cat.lightSensor());
  const BlockId night = net.addBlock("is_night", cat.inverter());
  const BlockId nightAlarm = net.addBlock("night_alarm", cat.and2());
  const BlockId hallHold = net.addBlock("hall_hold", cat.prolonger(5));
  const BlockId hallChirp = net.addBlock("hall_chirp", cat.pulseGen(10));
  const BlockId hallLamp = net.addBlock("hall_lamp", cat.led());
  net.connect(daylight, 0, night, 0);
  net.connect(anyZone, 0, nightAlarm, 0);
  net.connect(night, 0, nightAlarm, 1);
  net.connect(nightAlarm, 0, hallHold, 0);
  net.connect(hallHold, 0, hallChirp, 0);
  net.connect(hallChirp, 0, hallLamp, 0);
  return net;
}

Network motionOnPropertyAlert() {
  return orChain("Motion on Property Alert", 19, "motion_sensor", "beeper");
}

Network timedPassage() {
  // Four three-stage timed corridors plus one two-stage pair (mergeable
  // motifs, 14 blocks) and a nine-stage or-chain over passage sensors
  // (unmergeable, 9 blocks): 23 inner blocks total.
  const auto& cat = defaultCatalog();
  Network net("Timed Passage");
  for (int c = 0; c < 4; ++c) {
    const std::string s = std::to_string(c);
    const BlockId enter = net.addBlock("enter" + s, cat.motionSensor());
    const BlockId seen = net.addBlock("seen" + s, cat.trip());
    const BlockId wait = net.addBlock("grace" + s, cat.delay(6));
    const BlockId hold = net.addBlock("hold" + s, cat.prolonger(4));
    const BlockId lamp = net.addBlock("lamp" + s, cat.led());
    net.connect(enter, 0, seen, 0);
    net.connect(seen, 0, wait, 0);
    net.connect(wait, 0, hold, 0);
    net.connect(hold, 0, lamp, 0);
  }
  {
    const BlockId gate = net.addBlock("gate_contact", cat.contactSwitch());
    const BlockId tog = net.addBlock("gate_state", cat.toggle());
    const BlockId hold = net.addBlock("gate_hold", cat.prolonger(5));
    const BlockId lamp = net.addBlock("gate_lamp", cat.led());
    net.connect(gate, 0, tog, 0);
    net.connect(tog, 0, hold, 0);
    net.connect(hold, 0, lamp, 0);
  }
  {
    // Passage occupancy chain: nine or2 stages over ten sensors.
    Network chain = orChain("chain", 9, "motion_sensor", "beeper");
    // Splice the chain into this network with prefixed names.
    std::vector<BlockId> map(chain.blockCount());
    for (BlockId b = 0; b < chain.blockCount(); ++b)
      map[b] = net.addBlock("passage_" + chain.block(b).name,
                            chain.block(b).type);
    for (const Connection& c : chain.connections())
      net.connect(map[c.from.block], c.from.port, map[c.to.block], c.to.port);
  }
  return net;
}

DesignEntry entry(Network net, int innerBlocks, PaperRow paper) {
  DesignEntry e;
  e.name = net.name();
  e.innerBlocks = innerBlocks;
  e.paper = paper;
  e.network = std::move(net);
  return e;
}

}  // namespace

Network figure5() {
  // Recovered Figure-5 topology (see docs/pipeline.md):
  //   1 -> 2,5;  2 -> 4,5;  4 -> 3;  3 -> 7;  5 -> 6;
  //   6 -> 8,9;  7 -> 8,10;  8 -> 11;  9 -> 12.
  // Paper node k = BlockId k-1.
  const auto& cat = defaultCatalog();
  Network net("Podium Timer 3");
  const BlockId n1 = net.addBlock("start_button", cat.button());     // 1
  const BlockId n2 = net.addBlock("running", cat.toggle());          // 2
  const BlockId n3 = net.addBlock("limit_time", cat.delay(4));       // 3
  const BlockId n4 = net.addBlock("warn_time", cat.delay(6));        // 4
  // Node 5 must be a hazard-free gate for the button/toggle reconvergence:
  // or2 is monotone under (button, toggle(button)) transitions, so the
  // distributed network cannot latch a packet-race glitch that the merged
  // (atomic, level-ordered) programmable block would not show.
  const BlockId n5 = net.addBlock("active", cat.or2());              // 5
  const BlockId n6 = net.addBlock("blink", cat.pulseGen(3));         // 6
  const BlockId n7 = net.addBlock("warned", cat.trip());             // 7
  const BlockId n8 = net.addBlock("overrun", cat.and2());            // 8
  const BlockId n9 = net.addBlock("steady", cat.inverter());         // 9
  const BlockId n10 = net.addBlock("green_led", cat.led());          // 10
  const BlockId n11 = net.addBlock("yellow_led", cat.led());         // 11
  const BlockId n12 = net.addBlock("red_led", cat.led());            // 12
  net.connect(n1, 0, n2, 0);
  net.connect(n1, 0, n5, 0);
  net.connect(n2, 0, n4, 0);
  net.connect(n2, 0, n5, 1);
  net.connect(n4, 0, n3, 0);
  net.connect(n3, 0, n7, 0);
  net.connect(n5, 0, n6, 0);
  net.connect(n6, 0, n8, 0);
  net.connect(n6, 0, n9, 0);
  net.connect(n7, 0, n8, 1);
  net.connect(n7, 0, n10, 0);
  net.connect(n8, 0, n11, 0);
  net.connect(n9, 0, n12, 0);
  return net;
}

Network garageOpenAtNight() {
  const auto& cat = defaultCatalog();
  Network net("Garage Open At Night");
  const BlockId door = net.addBlock("garage_door", cat.contactSwitch());
  const BlockId light = net.addBlock("daylight", cat.lightSensor());
  const BlockId dark = net.addBlock("is_dark", cat.inverter());
  const BlockId bad = net.addBlock("open_at_night", cat.and2());
  const BlockId lamp = net.addBlock("bedroom_led", cat.led());
  net.connect(light, 0, dark, 0);
  net.connect(door, 0, bad, 0);
  net.connect(dark, 0, bad, 1);
  net.connect(bad, 0, lamp, 0);
  return net;
}

std::vector<DesignEntry> designLibrary() {
  std::vector<DesignEntry> lib;
  lib.push_back(entry(ignitionIlluminator(), 2, {1, 1, 1, 1}));
  lib.push_back(entry(nightLampController(), 2, {1, 1, 1, 1}));
  lib.push_back(entry(entryGateDetector(), 2, {1, 1, 1, 1}));
  lib.push_back(entry(carpoolAlert(), 2, {1, 1, 1, 1}));
  lib.push_back(entry(cafeteriaFoodAlert(), 3, {1, 1, 1, 1}));
  lib.push_back(entry(podiumTimer2(), 3, {1, 1, 1, 1}));
  lib.push_back(entry(anyWindowOpenAlarm(), 3, {3, 0, 3, 0}));
  lib.push_back(entry(twoButtonLight(), 3, {3, 1, 3, 1}));
  lib.push_back(entry(doorbellExtender(5, "Doorbell Extender 1"), 5,
                      {5, 0, 5, 0}));
  lib.push_back(entry(doorbellExtender(6, "Doorbell Extender 2"), 6,
                      {6, 0, 6, 0}));
  lib.push_back(entry(figure5(), 8, {3, 3, 3, 2}));
  lib.push_back(entry(noiseAtNightDetector(), 10, {6, 4, 6, 4}));
  lib.push_back(entry(twoZoneSecurity(), 19, {-1, -1, 10, 3}));
  lib.push_back(entry(motionOnPropertyAlert(), 19, {-1, -1, 19, 0}));
  lib.push_back(entry(timedPassage(), 23, {-1, -1, 14, 5}));
  return lib;
}

Network byName(const std::string& name) {
  for (DesignEntry& e : designLibrary())
    if (e.name == name) return std::move(e.network);
  throw std::out_of_range("designs: no design named '" + name + "'");
}

}  // namespace eblocks::designs
