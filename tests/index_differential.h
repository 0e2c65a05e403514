// Per-key differential between two IndexSets that hold the same triple
// set: an overlay view (DESIGN.md §13) against a from-scratch rebuild.
// Shared by tests/mutable_test.cc and fuzz/overlay_fuzz.cc.
//
// The estimators see an IndexSet only through its depth lookups, its
// distinct counts and its position-addressed reads, so those are what the
// differential compares, key by key, on all four orders: Depth1, Depth2,
// Depth3, Ndv1, Ndv2 and the depth-3 Narrow for every probe triple's
// prefixes, and TripleAt / KeyAt at every position.
#ifndef KGOA_TESTS_INDEX_DIFFERENTIAL_H_
#define KGOA_TESTS_INDEX_DIFFERENTIAL_H_

#include <string>
#include <vector>

#include "src/index/index_set.h"

namespace kgoa::testing {

// Probe triples around `t`: t itself plus, per component, the next term
// id (an absent key, or a key at or beyond a dictionary bound).
inline void AddProbesAround(const Triple& t, std::vector<Triple>* probes) {
  probes->push_back(t);
  probes->push_back(Triple{t.s + 1, t.p, t.o});
  probes->push_back(Triple{t.s, t.p + 1, t.o});
  probes->push_back(Triple{t.s, t.p, t.o + 1});
}

// Empty when `view` and `rebuilt` agree on every lookup for every probe;
// otherwise a description of the first disagreement.
inline std::string IndexSetDiff(const IndexSet& view, const IndexSet& rebuilt,
                                const std::vector<Triple>& probes) {
  auto range_str = [](Range r) {
    return "[" + std::to_string(r.begin) + ", " + std::to_string(r.end) + ")";
  };
  if (view.NumTriples() != rebuilt.NumTriples()) {
    return "NumTriples " + std::to_string(view.NumTriples()) + " vs " +
           std::to_string(rebuilt.NumTriples());
  }
  for (IndexOrder order : kAllIndexOrders) {
    const std::string where = std::string(OrderName(order)) + " ";
    if (view.Ndv1(order) != rebuilt.Ndv1(order)) {
      return where + "Ndv1 " + std::to_string(view.Ndv1(order)) + " vs " +
             std::to_string(rebuilt.Ndv1(order));
    }
    const TrieIndex& a = view.Index(order);
    const TrieIndex& b = rebuilt.Index(order);
    if (a.size() != b.size()) return where + "index size";
    for (uint32_t pos = 0; pos < a.size(); ++pos) {
      if (!(a.TripleAt(pos) == b.TripleAt(pos))) {
        return where + "TripleAt(" + std::to_string(pos) + ")";
      }
      for (int level = 0; level < 3; ++level) {
        if (a.KeyAt(pos, level) != b.KeyAt(pos, level)) {
          return where + "KeyAt(" + std::to_string(pos) + ", " +
                 std::to_string(level) + ")";
        }
      }
    }
    for (const Triple& t : probes) {
      const TermId v0 = t[OrderComponent(order, 0)];
      const TermId v1 = t[OrderComponent(order, 1)];
      const std::string key = "(" + std::to_string(v0) + ", " +
                              std::to_string(v1) + ")";
      if (view.Depth1(order, v0) != rebuilt.Depth1(order, v0)) {
        return where + "Depth1" + key + " " +
               range_str(view.Depth1(order, v0)) + " vs " +
               range_str(rebuilt.Depth1(order, v0));
      }
      if (view.Depth2(order, v0, v1) != rebuilt.Depth2(order, v0, v1)) {
        return where + "Depth2" + key + " " +
               range_str(view.Depth2(order, v0, v1)) + " vs " +
               range_str(rebuilt.Depth2(order, v0, v1));
      }
      // Depth 3 (the existence probe), through IndexSet and through the
      // trie's own Narrow inside the depth-2 node.
      const TermId v2 = t[OrderComponent(order, 2)];
      if (view.Depth3(order, v0, v1, v2) != rebuilt.Depth3(order, v0, v1, v2)) {
        return where + "Depth3" + key + " " +
               range_str(view.Depth3(order, v0, v1, v2)) + " vs " +
               range_str(rebuilt.Depth3(order, v0, v1, v2));
      }
      if (a.Narrow(view.Depth2(order, v0, v1), 2, v2) !=
          b.Narrow(rebuilt.Depth2(order, v0, v1), 2, v2)) {
        return where + "Narrow" + key + " at level 2";
      }
      if (view.Ndv2(order, v0) != rebuilt.Ndv2(order, v0)) {
        return where + "Ndv2" + key + " " +
               std::to_string(view.Ndv2(order, v0)) + " vs " +
               std::to_string(rebuilt.Ndv2(order, v0));
      }
    }
  }
  return "";
}

}  // namespace kgoa::testing

#endif  // KGOA_TESTS_INDEX_DIFFERENTIAL_H_
