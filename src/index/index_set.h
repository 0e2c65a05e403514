// The complete index structure over a graph: the four sorted-array trie
// orders of the paper plus their hash range indexes, with access-path
// selection and the pattern-level statistics (match counts, distinct value
// counts) that the join-size estimates of Audit Join's tipping point need.
//
// Construction is parallel and sort-free: the graph's own (s,p,o) array
// seeds SPO directly, and every other order is one stable counting-sort
// pass (dictionary-dense LSD radix) away from an already-built one; the
// hash range indexes build concurrently as each order lands.
#ifndef KGOA_INDEX_INDEX_SET_H_
#define KGOA_INDEX_INDEX_SET_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/index/hash_range.h"
#include "src/index/trie_index.h"
#include "src/query/pattern.h"
#include "src/rdf/graph.h"

namespace kgoa {

// Wall-clock build cost per order, for the metrics registry and benches.
struct IndexBuildStats {
  std::array<double, kNumIndexOrders> sort_ms{};  // sort + CSR offsets
  std::array<double, kNumIndexOrders> hash_ms{};  // flat hash tables
  double compress_ms = 0;  // block-tier encode, all orders (parallel)
  double total_ms = 0;     // end-to-end, all orders
};

// Build-time knobs. The storage tier selects the physical representation
// of the four trie orders; every query result and every estimate is
// bit-identical across tiers (the position space is shared).
struct IndexSetOptions {
  StorageTier tier = StorageTier::kRaw;
};

class DeltaOverlay;
class OrderDelta;

class IndexSet {
 public:
  // Builds all four orders. O(n) time (counting passes), 4x triple
  // storage for the raw tier — matching the paper's memory accounting
  // (all engines share this structure). With options.tier == kBlock the
  // orders are block-compressed in parallel after the chained build (the
  // derivation chain needs the raw arrays), typically cutting trie
  // memory by well over 2x.
  explicit IndexSet(const Graph& graph, const IndexSetOptions& options = {});

  // Overlay VIEW over a built set: each order becomes a view TrieIndex
  // merging `base` with the overlay's OrderDelta (DESIGN.md §13). The view
  // shares the base's hash range indexes: the depth helpers below probe
  // them and shift the base range into merged positions through the
  // OrderDelta's rank directories, so every access path answers as a
  // rebuild of the merged triple set would. `base` and `overlay` must
  // outlive the view (GraphVersion pins both).
  static std::unique_ptr<IndexSet> MakeView(const IndexSet& base,
                                            const DeltaOverlay& overlay);

  IndexSet(const IndexSet&) = delete;
  IndexSet& operator=(const IndexSet&) = delete;

  const TrieIndex& Index(IndexOrder order) const {
    return *indexes_[static_cast<int>(order)];
  }
  // The flat hash range index of `order`: the set's own, or the base's
  // for an overlay view. It answers in the BASE position space, which
  // shifts under an overlay, so callers outside src/index must route
  // depth lookups through Depth1/Depth2/Depth3/Ndv2 below (kgoa_lint's
  // hash-bypass rule).
  const HashRangeIndex& Hash(IndexOrder order) const {
    return *hashes_[static_cast<int>(order)];
  }

  // Range of triples whose level-0 value is `v` under `order` (empty
  // Range{} if absent): one hash probe, plus two rank-directory lookups
  // on a view.
  Range Depth1(IndexOrder order, TermId v) const;

  // Range with the first two levels fixed to (v0, v1). A pair only the
  // view's adds hold misses the base table and is answered from the
  // overlay's own pair table.
  Range Depth2(IndexOrder order, TermId v0, TermId v1) const;

  // Index(order).Narrow(Depth2(order, v0, v1), 2, v2): the range of the
  // single triple, or an empty range. A view answers from the base range
  // without reading the merged node's keys.
  Range Depth3(IndexOrder order, TermId v0, TermId v1, TermId v2) const;

  // Distinct level-0 / level-1-under-v0 counts for `order`. A view adds
  // the OrderDelta's correction to the base table's Ndv2.
  uint64_t Ndv1(IndexOrder order) const { return Index(order).Ndv1(); }
  uint64_t Ndv2(IndexOrder order, TermId v0) const;

  // Prefetch hints for the hash slots the depth lookups above probe.
  void PrefetchDepth1(IndexOrder order, TermId v) const {
    Hash(order).PrefetchDepth1(v);
  }
  void PrefetchDepth2(IndexOrder order, TermId v0, TermId v1) const {
    Hash(order).PrefetchDepth2(v0, v1);
  }

  uint64_t NumTriples() const { return num_triples_; }

  StorageTier tier() const { return tier_; }

  const IndexBuildStats& build_stats() const { return stats_; }

  // Bytes resident in each storage tier across the four orders (exactly
  // one is nonzero: the orders share a tier). The registry's
  // index.memory_bytes.raw / index.memory_bytes.block gauges read these.
  uint64_t RawStorageBytes() const;
  uint64_t BlockStorageBytes() const;

  // Resident size of the four trie orders (active tier + CSR offsets).
  uint64_t TrieMemoryBytes() const;

  // Resident size of the flat hash range tables this set owns (zero for
  // a view, which shares its base's).
  uint64_t HashMemoryBytes() const;

  // Rough resident size of the whole index structure: the four trie
  // orders in their active tier, their CSR level-0 offset arrays, and
  // the flat hash slot arrays (the analogue of the paper's reported
  // index memory — 72 GB / 194 GB for its two graphs).
  uint64_t ApproxMemoryBytes() const;

  // Chooses an order whose first popcount(fixed_mask) levels are exactly
  // the components in fixed_mask (bit 0 = subject, 1 = predicate,
  // 2 = object). Returns false for the one unsupported mask ({s,o}).
  // On success *depth is the prefix length.
  static bool ChooseOrder(uint32_t fixed_mask, IndexOrder* order, int* depth);

  // Like ChooseOrder, but additionally requires the component `next` to sit
  // at level *depth (right after the fixed prefix).
  static bool ChooseOrderWithNext(uint32_t fixed_mask, int next,
                                  IndexOrder* order, int* depth);

  // Range of triples matching the constants of `pattern` under an order
  // chosen by ChooseOrder; requires such an order to exist.
  Range ConstantRange(const TriplePattern& pattern, IndexOrder* order,
                      int* depth) const;

  // Number of triples matching the constants of `pattern`. O(1) for all
  // pattern shapes with a prefix order; O(range) otherwise.
  uint64_t CountMatches(const TriplePattern& pattern) const;

  // Number of distinct values variable `v` takes among the matches of
  // `pattern`. `v` must occur in `pattern`.
  uint64_t CountDistinctVar(const TriplePattern& pattern, VarId v) const;

 private:
  IndexSet() = default;  // MakeView fills the fields directly

  uint32_t ConstantMask(const TriplePattern& pattern) const;

  uint64_t num_triples_ = 0;
  StorageTier tier_ = StorageTier::kRaw;
  std::vector<std::unique_ptr<TrieIndex>> indexes_;
  std::vector<std::unique_ptr<HashRangeIndex>> owned_hashes_;  // empty: view
  // Per order: the hash table probed (owned, or the base's for a view) and
  // the overlay delta shifting its ranges (null unless a view).
  std::array<const HashRangeIndex*, kNumIndexOrders> hashes_{};
  std::array<const OrderDelta*, kNumIndexOrders> deltas_{};
  IndexBuildStats stats_;
};

}  // namespace kgoa

#endif  // KGOA_INDEX_INDEX_SET_H_
