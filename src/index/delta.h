// LSM-style delta overlay over a built IndexSet: the write side of the
// snapshot-epoch model (DESIGN.md §13).
//
// A MutableGraph absorbs insert/delete batches into a pair of canonical
// pending sets (adds that are not in the base, deletes that are), and this
// overlay translates those sets into per-index-order structures that define
// a MERGED position space per order:
//
//   merged = base positions minus tombstones, with each add spliced in at
//            its sorted insertion point.
//
// The merged space is rank-defined: position p of the merged sequence is
// the p-th smallest triple (under the order) of the live set, exactly as a
// from-scratch rebuild of base + adds - deletes would lay it out. A view
// TrieIndex over (base, OrderDelta) therefore satisfies the same
// SeekGE/Narrow/BlockEnd position-space contract as a rebuilt index,
// position for position — which is what makes estimates on a snapshot
// bit-identical to an immutable build of the same triple set (the
// overlay_fuzz differential harness checks this on random batches).
//
// Per order the overlay keeps small sorted arrays
//
//   tombs           ascending base positions of deleted triples
//   adds            added triples, sorted under the order, each with its
//                   base insertion point and its merged position
//
// plus two bucketed rank directories with O(overlay) entries each, one
// over base positions and one over merged positions. Their bucket width
// is the largest power of two not above base size / (4 overlay size), so
// most buckets hold no overlay entry: every mapping below is one
// directory load plus a search confined to one bucket.
//
//   LookupPrefix(prefix) base hash range of a key prefix -> merged range
//                        (surviving base triples below each bound plus
//                        the adds below the prefix)
//   MapToSource(m)       add index or base position backing merged m
//
// The publish step also derives the distinct-count corrections: the
// merged Ndv1 and, per level-0 value the overlay touches, the change in
// its distinct level-1 count. A view's Ndv1/Ndv2 are the base's counts
// plus these corrections.
//
// Overlays are immutable once built; MutableGraph rebuilds the overlay on
// every applied batch and publishes it behind a fresh GraphVersion.
#ifndef KGOA_INDEX_DELTA_H_
#define KGOA_INDEX_DELTA_H_

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/index/flat_table.h"
#include "src/index/hash_range.h"
#include "src/index/order.h"
#include "src/index/trie_index.h"
#include "src/rdf/types.h"
#include "src/util/contract.h"

namespace kgoa {

class IndexSet;

// Canonical pending write sets, both sorted by (s, p, o) and duplicate
// free. Invariants (maintained by MutableGraph, checked by DeltaOverlay):
// every add is absent from the base graph, every delete is present in it,
// and the two sets are disjoint.
struct PendingWrites {
  std::vector<Triple> adds;
  std::vector<Triple> dels;

  bool empty() const { return adds.empty() && dels.empty(); }
};

// The per-order half of the overlay: the pending sets projected into one
// trie order's position space.
class OrderDelta {
 public:
  // Key prefix in level order (OrderKey); levels past the prefix depth
  // are ignored.
  using Key = std::array<TermId, 3>;

  // Builds the order's delta against `base` and `base_hash` (the same
  // order's base index and its hash range index), which must outlive the
  // delta. `pending` must satisfy the PendingWrites invariants.
  // O(overlay log n).
  OrderDelta(IndexOrder order, const TrieIndex& base,
             const HashRangeIndex& base_hash, const PendingWrites& pending);

  IndexOrder order() const { return order_; }
  uint32_t NumAdds() const { return static_cast<uint32_t>(adds_.size()); }
  uint32_t NumTombs() const { return static_cast<uint32_t>(tombs_.size()); }

  const Triple& Add(uint32_t i) const { return adds_[i]; }

  // Distinct level-0 values of the merged sequence (the view's Ndv1).
  uint64_t ViewNdv1() const { return view_ndv1_; }

  // Merged minus base distinct level-1 count under level-0 value `v0`
  // (zero for values the overlay does not touch). O(log overlay).
  int64_t Ndv2Correction(TermId v0) const;

  // Merged range of level-0 value `v0`: the same range a rebuilt index's
  // CSR offsets hold for it, or the empty range at its insertion point
  // when the merged set lacks it.
  Range MergedLevel0Range(TermId v0) const;

  // Hash-table-style lookup of the depth-1/2 prefix `key`: its merged
  // range, or Range{} when the merged set lacks it. `base` is the base
  // hash table's answer for the same prefix. A base hit costs two
  // rank-directory lookups; a depth-2 miss one probe of the adds' own
  // pair table.
  Range LookupPrefix(int depth, const Key& key, Range base) const;

  // Narrow of the depth-2 node of `key` to key[2], as a rebuilt index
  // answers Narrow(Depth2(key[0], key[1]), 2, key[2]): Range{} when the
  // merged set lacks the pair, else the sub-range (empty at its insertion
  // point when the triple is absent). `base` is the base hash table's
  // depth-2 answer for the pair.
  Range LookupTriple(const Key& key, Range base) const;

  // Source of merged position `mpos`: either an add (index into adds_) or
  // a surviving base position.
  struct Source {
    bool is_add;
    uint32_t index;  // add index or base position
  };
  Source MapToSource(uint32_t mpos) const {
    KGOA_DCHECK_LT((mpos >> shift_) + 1, merged_dir_.size());
    const Rank lo = merged_dir_[mpos >> shift_];
    const Rank hi = merged_dir_[(mpos >> shift_) + 1];
    // Adds at or below mpos, then the live base rank k = mpos - adds; the
    // k-th live base position is k + (tombs t with tombs_[t] - t <= k).
    // Both searches stay inside the bucket's slice of the arrays.
    const uint32_t a = FirstFalse(lo.adds, hi.adds, [&](uint32_t i) {
      return add_merged_pos_[i] <= mpos;
    });
    if (a > 0 && add_merged_pos_[a - 1] == mpos) return Source{true, a - 1};
    const uint32_t k = mpos - a;
    const uint32_t t = FirstFalse(lo.tombs, hi.tombs, [&](uint32_t i) {
      return tombs_[i] - i <= k;
    });
    return Source{false, k + t};
  }

 private:
  // Counts at one bucket boundary of a rank directory.
  struct Rank {
    uint32_t adds = 0;
    uint32_t tombs = 0;
  };

  // First index in [lo, hi) where `pred` turns false (`pred` must be
  // true on a prefix of the slice and false after it); hi if never.
  template <typename Pred>
  static uint32_t FirstFalse(uint32_t lo, uint32_t hi, Pred pred) {
    while (lo < hi) {
      const uint32_t mid = lo + (hi - lo) / 2;
      if (pred(mid)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  // Merged range given the base range of the same prefix.
  Range ShiftRange(Range base, int depth, const Key& key) const {
    return Range{MergedRank(base.begin, depth, key, /*inclusive=*/false),
                 MergedRank(base.end, depth, key, /*inclusive=*/true)};
  }

  // Merged triples whose depth-`depth` prefix is below `key` (at or below
  // it when `inclusive`), given `base_pos`, the number of base triples
  // with that property. Most buckets hold no overlay entry; there the
  // directory entry alone is the answer.
  uint32_t MergedRank(uint32_t base_pos, int depth, const Key& key,
                      bool inclusive) const {
    KGOA_DCHECK_LT((base_pos >> shift_) + 1, base_dir_.size());
    const Rank lo = base_dir_[base_pos >> shift_];
    const Rank hi = base_dir_[(base_pos >> shift_) + 1];
    if (lo.adds == hi.adds && lo.tombs == hi.tombs) {
      return base_pos - lo.tombs + lo.adds;
    }
    return MergedRankInBucket(base_pos, depth, key, inclusive, lo, hi);
  }
  // MergedRank for a bucket that holds overlay entries.
  uint32_t MergedRankInBucket(uint32_t base_pos, int depth, const Key& key,
                              bool inclusive, Rank lo, Rank hi) const;

  // Fills the two rank directories (after tombs_/adds_ are final).
  void BuildDirectories();

  // Fills add_pairs_ (after adds_ is sorted).
  void BuildAddPairs();

  // Fills view_ndv1_ and ndv2_fix_ from the overlay's (v0, v1) groups.
  void BuildDistinctCorrections();

  IndexOrder order_;
  const TrieIndex* base_;
  const HashRangeIndex* base_hash_;
  std::vector<Triple> adds_;              // sorted under order_
  std::vector<uint32_t> add_base_pos_;    // base insertion points, ascending
  std::vector<uint32_t> add_merged_pos_;  // strictly increasing
  std::vector<uint32_t> tombs_;           // ascending base positions
  // Bucket j of both directories spans positions [j << shift_,
  // (j + 1) << shift_). base_dir_[j]: adds inserted below and tombs below
  // base position j << shift_. merged_dir_[j]: adds below merged position
  // j << shift_, and tombs below the base position of the first live base
  // triple at or after it. Each has a trailing sentinel entry.
  uint32_t shift_ = 0;
  std::vector<Rank> base_dir_;
  std::vector<Rank> merged_dir_;
  // (v0, v1) -> the index range of the adds holding that pair.
  FlatTable<uint64_t, Range> add_pairs_{~0ull};
  uint64_t view_ndv1_ = 0;
  // (v0, merged - base Ndv2) for every v0 whose count moves, sorted by v0.
  std::vector<std::pair<TermId, int32_t>> ndv2_fix_;
};

// The full overlay: one OrderDelta per maintained order plus the canonical
// pending sets (for membership adjustment and compaction folding).
class DeltaOverlay {
 public:
  // `base` must outlive the overlay (views hold pointers into it).
  DeltaOverlay(const IndexSet& base, PendingWrites pending);

  DeltaOverlay(const DeltaOverlay&) = delete;
  DeltaOverlay& operator=(const DeltaOverlay&) = delete;

  const OrderDelta& Delta(IndexOrder order) const {
    return *deltas_[static_cast<int>(order)];
  }

  const PendingWrites& pending() const { return pending_; }

  uint64_t NumAdds() const { return pending_.adds.size(); }
  uint64_t NumDels() const { return pending_.dels.size(); }

  // Upper bound (exclusive) on TermIds of the merged triple set: the base
  // bound widened by any fresh terms the adds introduce.
  uint32_t ViewNumTerms() const { return view_num_terms_; }

  bool IsAdded(const Triple& t) const;
  bool IsDeleted(const Triple& t) const;

 private:
  PendingWrites pending_;
  uint32_t view_num_terms_ = 0;
  std::array<std::unique_ptr<OrderDelta>, kNumIndexOrders> deltas_;
};

}  // namespace kgoa

#endif  // KGOA_INDEX_DELTA_H_
