#include "synth/synthesizer.h"

#include <stdexcept>

#include "behavior/printer.h"
#include "blocks/catalog.h"
#include "codegen/c_emitter.h"
#include "partition/engine.h"
#include "partition/verify.h"

namespace eblocks::synth {

SynthResult synthesize(const Network& source, const SynthOptions& options) {
  {
    const auto problems = source.validate();
    if (!problems.empty()) {
      std::string msg = "synthesize: source network is not well-formed:";
      for (const std::string& p : problems) msg += "\n  - " + p;
      throw std::invalid_argument(msg);
    }
  }

  partition::PartitionProblem problem(source, options.spec);
  SynthResult result;
  result.originalInner = problem.innerCount();

  // Consult the solution cache (when attached): an exact hit replaces the
  // partitioner run outright -- the stored run, carried over by canonical
  // position, is bit-identical to a fresh run when the request keeps the
  // stored declaration order -- and it still passes through the
  // verification gate below like any other partitioning.  On a miss, a
  // near-miss record (same structure, compatible constraints) seeds the
  // engine's warm-start incumbent, a pure pruning accelerator -- looked
  // up only for the strategies that read one.
  bool fromCache = false;
  partition::EngineOptions engine = options.engine;
  if (options.cache) {
    if (std::optional<partition::PartitionRun> hit = options.cache->lookup(
            source, options.algorithm, options.spec, options.engine)) {
      result.run = std::move(*hit);
      result.cacheOutcome = CacheOutcome::kHit;
      fromCache = true;
    } else {
      result.cacheOutcome = CacheOutcome::kMiss;
      const partition::Strategy* strategy =
          partition::findStrategy(options.algorithm);
      std::optional<partition::Partitioning> incumbent;
      if (strategy && strategy->readsIncumbent)
        incumbent =
            options.cache->nearMiss(source, options.spec, options.engine);
      if (incumbent) {
        engine.initialIncumbent = std::move(*incumbent);
        result.cacheOutcome = CacheOutcome::kWarmStart;
      }
    }
  }
  if (!fromCache) {
    result.run =
        partition::runPartitioner(options.algorithm, problem, engine);
    // Store against the *requested* options: the warm-start incumbent is
    // not part of the cache key (it cannot change the result).
    if (options.cache)
      options.cache->insert(source, options.algorithm, options.spec,
                            options.engine, result.run);
  }

  {
    const auto violations =
        partition::verifyPartitioning(problem, result.run.result);
    if (!violations.empty()) {
      std::string msg = "synthesize: partitioning failed verification:";
      for (const std::string& v : violations) msg += "\n  - " + v;
      throw std::logic_error(msg);
    }
  }

  const auto& partitions = result.run.result.partitions;
  result.programmableBlocks = static_cast<int>(partitions.size());
  result.innerAfter = result.run.result.totalAfter(result.originalInner);

  // Which partition (if any) owns each block.
  std::vector<int> partOf(source.blockCount(), -1);
  for (std::size_t k = 0; k < partitions.size(); ++k)
    partitions[k].forEach(
        [&](std::size_t b) { partOf[b] = static_cast<int>(k); });

  // Merge behaviors per partition.
  std::vector<codegen::MergedProgram> mergedPrograms;
  mergedPrograms.reserve(partitions.size());
  for (const BitSet& p : partitions)
    mergedPrograms.push_back(codegen::mergePartitionProgram(
        source, p, problem.levels(), options.spec.mode));

  // Build the optimized network.
  Network net(source.name() + "_synth");
  std::vector<BlockId> newId(source.blockCount(), kNoBlock);
  for (BlockId b = 0; b < source.blockCount(); ++b)
    if (partOf[b] < 0)
      newId[b] = net.addBlock(source.block(b).name, source.block(b).type);

  std::vector<BlockId> progId(partitions.size(), kNoBlock);
  for (std::size_t k = 0; k < partitions.size(); ++k) {
    const codegen::MergedProgram& mp = mergedPrograms[k];
    // The synthesized type has exactly the used ports; it targets the
    // physical spec.inputs x spec.outputs programmable block.
    std::vector<std::string> ins, outs;
    for (int i = 0; i < mp.inputCount(); ++i)
      ins.push_back("in" + std::to_string(i));
    for (int i = 0; i < mp.outputCount(); ++i)
      outs.push_back("out" + std::to_string(i));
    bool sequential = false;
    for (BlockId b : mp.members)
      sequential = sequential || source.block(b).type->sequential();
    auto type = std::make_shared<const BlockType>(
        "prog_" + std::to_string(options.spec.inputs) + "x" +
            std::to_string(options.spec.outputs) + "_p" + std::to_string(k),
        BlockClass::kCompute, std::move(ins), std::move(outs),
        behavior::toSource(mp.program), sequential, /*programmable=*/true);
    std::string instance = "prog" + std::to_string(k);
    while (net.findBlock(instance)) instance += "_";
    progId[k] = net.addBlock(instance, std::move(type));

    SynthesizedBlock sb;
    sb.instanceName = instance;
    sb.merged = std::move(mergedPrograms[k]);
    if (options.emitC) sb.cSource = codegen::emitC(sb.merged);
    for (BlockId b : sb.merged.members)
      sb.replaced.push_back(source.block(b).name);
    result.blocks.push_back(std::move(sb));
  }

  // The programmable port each boundary-crossing connection enters or
  // leaves through, keyed by the connection's consumer endpoint (every
  // input port has one driver): one entry per input port of `source`.
  std::vector<std::size_t> firstInput(source.blockCount() + 1, 0);
  for (BlockId b = 0; b < source.blockCount(); ++b)
    firstInput[b + 1] =
        firstInput[b] +
        static_cast<std::size_t>(source.block(b).type->inputCount());
  const auto consumer = [&](const Connection& c) {
    return firstInput[c.to.block] + c.to.port;
  };
  std::vector<std::uint16_t> inPort(firstInput.back()),
      outPort(firstInput.back());
  for (const SynthesizedBlock& sb : result.blocks) {
    for (int port = 0; port < sb.merged.inputCount(); ++port)
      for (const Connection& c :
           sb.merged.inputEdges[static_cast<std::size_t>(port)])
        inPort[consumer(c)] = static_cast<std::uint16_t>(port);
    for (int port = 0; port < sb.merged.outputCount(); ++port)
      for (const Connection& c :
           sb.merged.outputEdges[static_cast<std::size_t>(port)])
        outPort[consumer(c)] = static_cast<std::uint16_t>(port);
  }

  // Rewire.  Connections that share a programmable port (kSignals mode)
  // collapse into one: skip a target port already driven by this source;
  // connect() still rejects a second, different source.
  for (const Connection& c : source.connections()) {
    const int pf = partOf[c.from.block];
    const int pt = partOf[c.to.block];
    if (pf >= 0 && pf == pt) continue;  // fully internal to one partition
    const Endpoint from =
        pf >= 0 ? Endpoint{progId[static_cast<std::size_t>(pf)],
                           outPort[consumer(c)]}
                : Endpoint{newId[c.from.block], c.from.port};
    const Endpoint to = pt >= 0
                            ? Endpoint{progId[static_cast<std::size_t>(pt)],
                                       inPort[consumer(c)]}
                            : Endpoint{newId[c.to.block], c.to.port};
    if (const auto driver = net.driverOf(to.block, to.port);
        driver && driver->from == from)
      continue;
    net.connect(from, to);
  }

  result.network = std::move(net);
  return result;
}

const char* toString(CacheOutcome o) {
  switch (o) {
    case CacheOutcome::kDisabled: return "disabled";
    case CacheOutcome::kMiss: return "miss";
    case CacheOutcome::kHit: return "hit";
    case CacheOutcome::kWarmStart: return "warm-start";
  }
  return "?";
}

std::string SynthResult::report() const {
  std::string s;
  s += "Synthesis report (" + run.algorithm + ")\n";
  if (cacheOutcome != CacheOutcome::kDisabled)
    s += "  cache: " + std::string(toString(cacheOutcome)) + "\n";
  s += "  inner blocks: " + std::to_string(originalInner) + " -> " +
       std::to_string(innerAfter) + " (" +
       std::to_string(programmableBlocks) + " programmable)\n";
  s += "  partitioning time: " + std::to_string(run.seconds * 1000.0) +
       " ms\n";
  for (const SynthesizedBlock& b : blocks) {
    s += "  " + b.instanceName + " <-";
    for (const std::string& r : b.replaced) s += " " + r;
    s += "  [" + std::to_string(b.merged.inputCount()) + " in, " +
         std::to_string(b.merged.outputCount()) + " out]\n";
  }
  return s;
}

}  // namespace eblocks::synth
