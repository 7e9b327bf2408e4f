#include "partition/verify.h"

#include "partition/validity.h"

namespace eblocks::partition {

namespace {

std::string setToString(const Network& net, const BitSet& members) {
  std::string s = "{";
  bool first = true;
  members.forEach([&](std::size_t b) {
    if (!first) s += ", ";
    first = false;
    s += net.block(static_cast<BlockId>(b)).name;
  });
  return s + "}";
}

}  // namespace

std::vector<std::string> verifyPartitioning(const PartitionProblem& problem,
                                            const Partitioning& partitioning,
                                            const VerifyOptions& options) {
  std::vector<std::string> problems;
  if (!partitioning.optionIndex.empty())
    problems.push_back("option indices set on a plain partitioning");
  const Network& net = problem.network();
  BitSet seen = net.emptySet();
  for (std::size_t i = 0; i < partitioning.partitions.size(); ++i) {
    const BitSet& p = partitioning.partitions[i];
    // Built only for a partition that breaks a rule: a clean check (the
    // exact search's seed test, every synthesis) allocates no text.
    const auto label = [&] {
      return "partition #" + std::to_string(i) + " " + setToString(net, p);
    };
    if (p.count() < 2)
      problems.push_back(label() + ": fewer than two members");
    p.forEach([&](std::size_t bi) {
      const BlockId b = static_cast<BlockId>(bi);
      if (!problem.innerSet().test(bi))
        problems.push_back(label() + ": member '" + net.block(b).name +
                           "' is not an inner block of the problem");
      if (seen.test(bi))
        problems.push_back(label() + ": member '" + net.block(b).name +
                           "' already belongs to another partition");
      seen.set(bi);
    });
    const IoCount io = countIo(net, p, problem.spec().mode);
    if (io.inputs > problem.spec().inputs)
      problems.push_back(label() + ": uses " + std::to_string(io.inputs) +
                         " inputs > " + std::to_string(problem.spec().inputs));
    if (io.outputs > problem.spec().outputs)
      problems.push_back(label() + ": uses " + std::to_string(io.outputs) +
                         " outputs > " +
                         std::to_string(problem.spec().outputs));
    if (options.requireConvex && !isConvex(net, p))
      problems.push_back(label() +
                         ": not convex (a path leaves and re-enters)");
  }
  return problems;
}

}  // namespace eblocks::partition
