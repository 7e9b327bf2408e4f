#include "partition/verify.h"

#include "partition/multitype.h"
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

/// Walks `partitions` under the member rules both verifiers share --
/// every member lies in the problem's universe and in no earlier
/// partition -- and calls `rules(i, p, fail)` for the problem's own
/// rules on partition `i`; `fail(what)` records a violation.  A
/// partition's label is built only when it breaks a rule: a clean check
/// (the exact search's seed test, every synthesis) allocates no text.
template <typename Rules>
std::vector<std::string> checkPartitions(const PartitionProblem& problem,
                                         const std::vector<BitSet>& partitions,
                                         Rules&& rules) {
  std::vector<std::string> problems;
  const Network& net = problem.network();
  BitSet seen = net.emptySet();
  for (std::size_t i = 0; i < partitions.size(); ++i) {
    const BitSet& p = partitions[i];
    const auto fail = [&](const std::string& what) {
      problems.push_back("partition #" + std::to_string(i) + " " +
                         setToString(net, p) + ": " + what);
    };
    p.forEach([&](std::size_t bi) {
      const std::string& name = net.block(static_cast<BlockId>(bi)).name;
      if (!problem.innerSet().test(bi))
        fail("member '" + name + "' is not an inner block of the problem");
      if (seen.test(bi))
        fail("member '" + name + "' already belongs to another partition");
      seen.set(bi);
    });
    rules(i, p, fail);
  }
  return problems;
}

}  // namespace

std::vector<std::string> verifyPartitioning(const PartitionProblem& problem,
                                            const Partitioning& partitioning,
                                            const VerifyOptions& options) {
  const ProgBlockSpec& spec = problem.spec();
  std::vector<std::string> problems = checkPartitions(
      problem, partitioning.partitions,
      [&](std::size_t, const BitSet& p, const auto& fail) {
        if (p.count() < 2) fail("fewer than two members");
        const IoCount io = countIo(problem.network(), p, spec.mode);
        if (io.inputs > spec.inputs)
          fail("uses " + std::to_string(io.inputs) + " inputs > " +
               std::to_string(spec.inputs));
        if (io.outputs > spec.outputs)
          fail("uses " + std::to_string(io.outputs) + " outputs > " +
               std::to_string(spec.outputs));
        if (options.requireConvex && !isConvex(problem.network(), p))
          fail("not convex (a path leaves and re-enters)");
      });
  if (!partitioning.optionIndex.empty())
    problems.insert(problems.begin(),
                    "option indices set on a plain partitioning");
  return problems;
}

std::vector<std::string> verifyPartitioning(const PartitionProblem& problem,
                                            const ProgCostModel& model,
                                            const Partitioning& typed) {
  const MilliCostModel milli = toMilliCosts(model, problem.innerCount());
  if (typed.partitions.size() != typed.optionIndex.size())
    return {"partition/option count mismatch"};
  return checkPartitions(
      problem, typed.partitions,
      [&](std::size_t i, const BitSet& p, const auto& fail) {
        if (p.none()) fail("empty");
        const int idx = typed.optionIndex[i];
        if (idx < 0 || idx >= static_cast<int>(model.options.size())) {
          fail("option index out of range");
          return;
        }
        const ProgBlockOption& o = model.options[static_cast<std::size_t>(idx)];
        const IoCount io =
            countIo(problem.network(), p, problem.spec().mode);
        if (io.inputs > o.inputs || io.outputs > o.outputs)
          fail("does not fit option " + o.name);
        // Cost sanity: a rational result never uses a partition that
        // costs more than the blocks it replaces.
        if (milli.optionCost[static_cast<std::size_t>(idx)] >
            milli.preDefinedBlockCost * static_cast<int>(p.count()))
          fail("option " + o.name + " costs more than the blocks it replaces");
      });
}

}  // namespace eblocks::partition
