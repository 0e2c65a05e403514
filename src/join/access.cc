#include "src/join/access.h"

#include "src/util/contract.h"

namespace kgoa {

bool PatternAccess::TryCompile(const TriplePattern& pattern, VarId bound_var,
                               PatternAccess* access) {
  uint32_t mask = 0;
  for (int c = 0; c < 3; ++c) {
    if (!pattern[c].is_var()) mask |= 1u << c;
  }
  int bound_component = -1;
  if (bound_var != kNoVar) {
    bound_component = pattern.ComponentOf(bound_var);
    KGOA_CHECK_MSG(bound_component >= 0, "bound variable not in pattern");
    mask |= 1u << bound_component;
  }

  if (!IndexSet::ChooseOrder(mask, &access->order_, &access->depth_)) {
    return false;
  }
  access->bound_level_ = -1;
  for (int level = 0; level < access->depth_; ++level) {
    const int c = OrderComponent(access->order_, level);
    if (c == bound_component) {
      access->bound_level_ = level;
    } else {
      access->key_[level] = pattern[c].term();
    }
  }
  return true;
}

PatternAccess PatternAccess::Compile(const TriplePattern& pattern,
                                     VarId bound_var) {
  PatternAccess access;
  KGOA_CHECK_MSG(TryCompile(pattern, bound_var, &access),
                 "no index order covers this access path");
  return access;
}

Range PatternAccess::Resolve(const IndexSet& indexes,
                             TermId bound_value) const {
  std::array<TermId, 3> key = key_;
  if (bound_level_ >= 0) key[bound_level_] = bound_value;

  const TrieIndex& index = indexes.Index(order_);
  switch (depth_) {
    case 0:
      return index.Root();
    case 1:
      return indexes.Depth1(order_, key[0]);
    case 2:
      return indexes.Depth2(order_, key[0], key[1]);
    default:
      return indexes.Depth3(order_, key[0], key[1], key[2]);
  }
}

void PatternAccess::Prefetch(const IndexSet& indexes,
                             TermId bound_value) const {
  std::array<TermId, 3> key = key_;
  if (bound_level_ >= 0) key[bound_level_] = bound_value;

  switch (depth_) {
    case 0:
      return;
    case 1:
      indexes.PrefetchDepth1(order_, key[0]);
      return;
    default:
      // Depth 3 narrows within the depth-2 range, so its first (and
      // dominant) memory access is the same depth-2 probe.
      indexes.PrefetchDepth2(order_, key[0], key[1]);
      return;
  }
}

}  // namespace kgoa
