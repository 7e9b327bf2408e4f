#include "behavior/rename.h"

namespace eblocks::behavior {

NameTable bindNames(const Program& p, const std::vector<std::string>& inputs,
                    const std::vector<std::string>& outputs) {
  NameTable table;
  for (std::size_t i = 0; i < inputs.size(); ++i)
    table[inputs[i]] = {NameBinding::Kind::kInput, static_cast<int>(i)};
  for (std::size_t i = 0; i < outputs.size(); ++i)
    table[outputs[i]] = {NameBinding::Kind::kOutput, static_cast<int>(i)};
  int ordinal = 0;
  for (const std::string& v : declaredVars(p))
    if (const auto [it, fresh] = table.try_emplace(v); fresh)
      it->second.stateOrdinal = ordinal++;
  for (const std::string& n : referencedNames(p)) table.try_emplace(n);
  for (const std::string& n : assignedNames(p)) table.try_emplace(n);
  // The builtin is shared by every member of a merge and never renamed;
  // a port called `tick` is a port, a `var tick` keeps its ordinal.
  if (const auto it = table.find("tick");
      it != table.end() && it->second.kind == NameBinding::Kind::kLocal)
    it->second.kind = NameBinding::Kind::kTick;
  return table;
}

}  // namespace eblocks::behavior
