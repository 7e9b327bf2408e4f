#include "behavior/merge.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

namespace eblocks::behavior {

Program mergePrograms(std::vector<Program> parts) {
  Program merged;
  std::size_t total = 0;
  for (const Program& part : parts) total += part.statements.size();
  merged.statements.reserve(total);
  // Declarations first, then everything else, each in encounter order.
  for (const bool decls : {true, false})
    for (Program& part : parts)
      for (StmtPtr& s : part.statements)
        if (s && (s->kind == StmtKind::kVarDecl) == decls)
          merged.statements.push_back(std::move(s));
  std::vector<std::string_view> declared;  // views into `merged`
  for (const StmtPtr& s : merged.statements) {
    if (s->kind != StmtKind::kVarDecl) break;
    declared.push_back(s->name);
  }
  std::sort(declared.begin(), declared.end());
  if (const auto dup = std::adjacent_find(declared.begin(), declared.end());
      dup != declared.end())
    throw std::invalid_argument("mergePrograms: duplicate state variable '" +
                                std::string(*dup) +
                                "' (rename before merging)");
  return merged;
}

}  // namespace eblocks::behavior
