#include "randgen/generator.h"

#include <algorithm>
#include <random>
#include <stdexcept>

#include "blocks/catalog.h"

namespace eblocks::randgen {

namespace {

using blocks::Catalog;

BlockTypePtr pickOneInputType(const Catalog& cat, std::mt19937& rng) {
  switch (std::uniform_int_distribution<int>(0, 6)(rng)) {
    case 0: return cat.inverter();
    case 1: return cat.buffer();
    case 2: return cat.toggle();
    case 3: return cat.trip();
    case 4: return cat.delay(std::uniform_int_distribution<int>(1, 8)(rng));
    case 5:
      return cat.pulseGen(std::uniform_int_distribution<int>(1, 6)(rng));
    default:
      return cat.prolonger(std::uniform_int_distribution<int>(1, 8)(rng));
  }
}

BlockTypePtr pickTwoInputType(const Catalog& cat, std::mt19937& rng) {
  if (std::uniform_real_distribution<double>(0, 1)(rng) < 0.15)
    return cat.tripReset();
  // Non-degenerate truth tables only (no constants, no single-var copies).
  static constexpr unsigned kInteresting[] = {0b1000, 0b1110, 0b0110,
                                              0b0111, 0b0001, 0b1001,
                                              0b1101, 0b1011, 0b0100, 0b0010};
  return cat.logic2(kInteresting[std::uniform_int_distribution<std::size_t>(
      0, std::size(kInteresting) - 1)(rng)]);
}

BlockTypePtr pickThreeInputType(const Catalog& cat, std::mt19937& rng) {
  switch (std::uniform_int_distribution<int>(0, 3)(rng)) {
    case 0: return cat.and3();
    case 1: return cat.or3();
    case 2: return cat.majority3();
    default:
      return cat.logic3(std::uniform_int_distribution<unsigned>(1, 254)(rng));
  }
}

BlockTypePtr pickSensorType(const Catalog& cat, std::mt19937& rng) {
  switch (std::uniform_int_distribution<int>(0, 4)(rng)) {
    case 0: return cat.button();
    case 1: return cat.contactSwitch();
    case 2: return cat.lightSensor();
    case 3: return cat.motionSensor();
    default: return cat.soundSensor();
  }
}

BlockTypePtr pickOutputType(const Catalog& cat, std::mt19937& rng) {
  switch (std::uniform_int_distribution<int>(0, 2)(rng)) {
    case 0: return cat.led();
    case 1: return cat.beeper();
    default: return cat.relay();
  }
}

}  // namespace

Network randomNetwork(const GeneratorOptions& options) {
  if (options.innerBlocks < 1)
    throw std::invalid_argument("randomNetwork: need at least 1 inner block");
  const Catalog& cat = blocks::defaultCatalog();
  std::mt19937 rng(options.seed);
  std::uniform_real_distribution<double> uni(0.0, 1.0);

  Network net("random_n" + std::to_string(options.innerBlocks) + "_s" +
              std::to_string(options.seed));

  std::vector<BlockId> sensors;
  std::vector<BlockId> compute;  // in creation (topological) order
  auto freshSensor = [&] {
    const BlockId s = net.addBlock(
        std::string("s").append(std::to_string(sensors.size())),
        pickSensorType(cat, rng));
    sensors.push_back(s);
    return s;
  };
  auto sensorFor = [&]() -> BlockId {
    if (sensors.empty() || uni(rng) >= options.sensorReuseProb)
      return freshSensor();
    return sensors[std::uniform_int_distribution<std::size_t>(
        0, sensors.size() - 1)(rng)];
  };

  const double wSum = options.oneInputWeight + options.twoInputWeight +
                      options.threeInputWeight;
  if (wSum <= 0)
    throw std::invalid_argument("randomNetwork: fan-in weights must sum > 0");

  for (int i = 0; i < options.innerBlocks; ++i) {
    const double w = uni(rng) * wSum;
    int arity = 1;
    if (w >= options.oneInputWeight)
      arity = w < options.oneInputWeight + options.twoInputWeight ? 2 : 3;
    BlockTypePtr type = arity == 1   ? pickOneInputType(cat, rng)
                        : arity == 2 ? pickTwoInputType(cat, rng)
                                     : pickThreeInputType(cat, rng);
    const BlockId b = net.addBlock(std::string("c").append(std::to_string(i)),
                                   std::move(type));
    for (int p = 0; p < net.block(b).type->inputCount(); ++p) {
      const bool useSensor = compute.empty() || uni(rng) < options.sensorInputProb;
      if (useSensor) {
        net.connect(sensorFor(), 0, b, p);
      } else {
        const std::size_t window =
            options.localityWindow <= 1.0
                ? std::max<std::size_t>(
                      1, static_cast<std::size_t>(
                             options.localityWindow *
                                 static_cast<double>(compute.size()) +
                             0.5))
                : std::min(compute.size(),
                           static_cast<std::size_t>(options.localityWindow +
                                                    0.5));
        const std::size_t lo = compute.size() - std::min(window, compute.size());
        const BlockId src = compute[std::uniform_int_distribution<std::size_t>(
            lo, compute.size() - 1)(rng)];
        // Compute blocks in the catalog have exactly one output port.
        net.connect(src, 0, b, p);
      }
    }
    compute.push_back(b);
  }

  // Every compute block must drive something: attach output blocks to
  // sinks, plus random taps.
  int outCount = 0;
  for (BlockId b : compute) {
    const bool isSink = net.outdegree(b) == 0;
    if (isSink || uni(rng) < options.outputTapProb) {
      const BlockId o =
          net.addBlock(std::string("o").append(std::to_string(outCount++)),
                       pickOutputType(cat, rng));
      net.connect(b, 0, o, 0);
    }
  }
  return net;
}

GeneratorOptions GeneratorOptions::largeNetwork(int inner,
                                                std::uint32_t seed) {
  GeneratorOptions options;
  options.innerBlocks = inner;
  options.seed = seed;
  // Denser internal wiring than the Table-2 defaults: fewer 1-input
  // chains, fewer sensor-fed inputs, and a wider driver window, so
  // pairing decisions interact across the design instead of decomposing
  // into independent chains.
  options.oneInputWeight = 0.35;
  options.twoInputWeight = 0.52;
  options.threeInputWeight = 0.13;
  options.sensorInputProb = 0.20;
  options.localityWindow = 8.0;
  return options;
}

Network relabeledCopy(const Network& source, std::uint32_t seed,
                      const std::string& namePrefix) {
  std::mt19937 rng(seed);
  std::vector<BlockId> order(source.blockCount());
  for (BlockId b = 0; b < source.blockCount(); ++b) order[b] = b;
  std::shuffle(order.begin(), order.end(), rng);

  Network out(source.name() + "_relabeled");
  std::vector<BlockId> map(source.blockCount(), kNoBlock);
  int n = 0;
  for (const BlockId oldId : order)
    map[oldId] = out.addBlock(namePrefix + std::to_string(n++),
                              source.block(oldId).type);
  // Connection *insertion order* is semantic (simulator activation order,
  // netlist writer order), so it is carried over unpermuted.
  for (const Connection& c : source.connections())
    out.connect(map[c.from.block], c.from.port, map[c.to.block], c.to.port);
  return out;
}

std::vector<Network> randomNetworkCorpus(int count,
                                         const GeneratorOptions& base) {
  std::vector<Network> corpus;
  corpus.reserve(static_cast<std::size_t>(count > 0 ? count : 0));
  for (int i = 0; i < count; ++i) {
    GeneratorOptions options = base;
    options.seed = base.seed + static_cast<std::uint32_t>(i);
    corpus.push_back(randomNetwork(options));
  }
  return corpus;
}

}  // namespace eblocks::randgen
