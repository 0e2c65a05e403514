#include "src/index/delta.h"

#include <algorithm>
#include <bit>

#include "src/index/index_set.h"

namespace kgoa {

namespace {

// First base position whose triple is >= `t` under the base's order: a
// binary search inside t's level-0 block (the CSR offsets bound it).
// Tier-agnostic (goes through TripleAt); build-time only.
uint32_t BaseLowerBound(const TrieIndex& base, const Triple& t) {
  const TermId v0 = t[OrderComponent(base.order(), 0)];
  if (v0 >= base.num_terms()) return base.size();
  const Range block = base.Level0Range(v0);
  const OrderLess less{base.order()};
  uint32_t lo = block.begin;
  uint32_t hi = block.end;
  while (lo < hi) {
    const uint32_t mid = lo + (hi - lo) / 2;
    if (less(base.TripleAt(mid), t)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

OrderDelta::OrderDelta(IndexOrder order, const TrieIndex& base,
                       const HashRangeIndex& base_hash,
                       const PendingWrites& pending)
    : order_(order), base_(&base), base_hash_(&base_hash),
      adds_(pending.adds) {
  KGOA_CHECK(!base.is_view());
  const OrderLess less{order_};
  std::sort(adds_.begin(), adds_.end(), less);

  // Deletes sorted under the order locate in ascending base positions, so
  // tombs_ comes out sorted without a second pass.
  std::vector<Triple> dels = pending.dels;
  std::sort(dels.begin(), dels.end(), less);
  tombs_.reserve(dels.size());
  for (const Triple& t : dels) {
    const uint32_t pos = BaseLowerBound(base, t);
    // PendingWrites invariant: every delete names a live base triple.
    KGOA_CHECK_MSG(pos < base.size() && base.TripleAt(pos) == t,
                   "tombstone for a triple absent from the base index");
    tombs_.push_back(pos);
  }
  KGOA_DCHECK_SORTED(tombs_.begin(), tombs_.end());

  // Merged position of add i: its rank among the adds (i) plus the live
  // base triples below its insertion point. Strictly increasing in i.
  add_base_pos_.reserve(adds_.size());
  add_merged_pos_.reserve(adds_.size());
  uint32_t tombs_below = 0;
  for (uint32_t i = 0; i < adds_.size(); ++i) {
    const uint32_t base_pos = BaseLowerBound(base, adds_[i]);
    // PendingWrites invariant: adds are absent from the base.
    KGOA_DCHECK(base_pos == base.size() ||
                !(base.TripleAt(base_pos) == adds_[i]));
    while (tombs_below < tombs_.size() && tombs_[tombs_below] < base_pos) {
      ++tombs_below;
    }
    add_base_pos_.push_back(base_pos);
    add_merged_pos_.push_back(i + base_pos - tombs_below);
  }
  KGOA_DCHECK_SORTED(add_merged_pos_.begin(), add_merged_pos_.end());

  BuildDirectories();
  BuildAddPairs();
  BuildDistinctCorrections();
}

void OrderDelta::BuildAddPairs() {
  const int c0 = OrderComponent(order_, 0);
  const int c1 = OrderComponent(order_, 1);
  auto pair_at = [&](uint32_t i) {
    return PackPair(adds_[i][c0], adds_[i][c1]);
  };
  add_pairs_.Reset(NumAdds());  // at most one pair per add
  for (uint32_t i = 0; i < NumAdds();) {
    const uint64_t pair = pair_at(i);
    uint32_t end = i + 1;
    while (end < NumAdds() && pair_at(end) == pair) ++end;
    add_pairs_.InsertUnique(pair) = Range{i, end};
    i = end;
  }
}

void OrderDelta::BuildDirectories() {
  const uint64_t n = base_->size();
  const uint64_t overlay = std::max<uint64_t>(1, adds_.size() + tombs_.size());
  // The widest power-of-two bucket not above n / (4 overlay): most
  // buckets hold no overlay entry, so the in-bucket searches rarely run,
  // and the directories keep O(overlay) entries.
  shift_ = static_cast<uint32_t>(
      std::bit_width(std::max<uint64_t>(1, n / overlay / 4)) - 1);

  const uint32_t num_adds = NumAdds();
  const uint32_t num_tombs = NumTombs();
  base_dir_.resize((n >> shift_) + 2);
  uint32_t a = 0;
  uint32_t t = 0;
  for (uint64_t j = 0; j < base_dir_.size(); ++j) {
    const uint64_t bound = j << shift_;
    while (a < num_adds && add_base_pos_[a] < bound) ++a;
    while (t < num_tombs && tombs_[t] < bound) ++t;
    base_dir_[j] = Rank{a, t};
  }

  const uint64_t merged = n - num_tombs + num_adds;
  merged_dir_.resize((merged >> shift_) + 2);
  a = 0;
  t = 0;
  for (uint64_t j = 0; j < merged_dir_.size(); ++j) {
    const uint64_t bound = j << shift_;
    while (a < num_adds && add_merged_pos_[a] < bound) ++a;
    // Live base rank of the first base triple at or after `bound`.
    const uint64_t k = bound - a;
    while (t < num_tombs && tombs_[t] - t <= k) ++t;
    merged_dir_[j] = Rank{a, t};
  }
}

void OrderDelta::BuildDistinctCorrections() {
  const TrieIndex& base = *base_;
  const int c0 = OrderComponent(order_, 0);
  const int c1 = OrderComponent(order_, 1);
  using Pair = std::pair<TermId, TermId>;
  std::vector<Pair> tomb_pairs;
  tomb_pairs.reserve(tombs_.size());
  for (const uint32_t pos : tombs_) {
    tomb_pairs.emplace_back(base.KeyAt(pos, 0), base.KeyAt(pos, 1));
  }
  std::size_t ai = 0;
  std::size_t ti = 0;
  // The smallest (v0, v1) pair left in either stream; kNone once both run
  // dry (kInvalidTerm never names a term).
  constexpr Pair kNone{kInvalidTerm, kInvalidTerm};
  auto add_pair = [&](std::size_t i) {
    return Pair{adds_[i][c0], adds_[i][c1]};
  };
  auto next_pair = [&] {
    return std::min(ai < adds_.size() ? add_pair(ai) : kNone,
                    ti < tomb_pairs.size() ? tomb_pairs[ti] : kNone);
  };

  // Walk the (v0, v1) groups the overlay touches, in key order. A group is
  // live in the merged set when some base triple survives or some add
  // lands; it is present in the base when its base range is non-empty.
  // The same test one level up gives the Ndv1 correction.
  int64_t ndv1_delta = 0;
  while (ai < adds_.size() || ti < tomb_pairs.size()) {
    const TermId v0 = next_pair().first;
    uint32_t adds0 = 0;
    uint32_t tombs0 = 0;
    int32_t ndv2_delta = 0;
    for (Pair pair = next_pair(); pair.first == v0; pair = next_pair()) {
      uint32_t adds_in = 0;
      uint32_t tombs_in = 0;
      for (; ai < adds_.size() && add_pair(ai) == pair; ++ai) ++adds_in;
      for (; ti < tomb_pairs.size() && tomb_pairs[ti] == pair; ++ti) ++tombs_in;
      const uint32_t base_size =
          base_hash_->Depth2(pair.first, pair.second).size();
      ndv2_delta += static_cast<int32_t>(base_size > tombs_in || adds_in > 0) -
                    static_cast<int32_t>(base_size > 0);
      adds0 += adds_in;
      tombs0 += tombs_in;
    }
    const uint32_t base_size = base_hash_->Depth1(v0).size();
    ndv1_delta += static_cast<int64_t>(base_size > tombs0 || adds0 > 0) -
                  static_cast<int64_t>(base_size > 0);
    if (ndv2_delta != 0) ndv2_fix_.emplace_back(v0, ndv2_delta);
  }
  view_ndv1_ = static_cast<uint64_t>(static_cast<int64_t>(base.Ndv1()) +
                                     ndv1_delta);
}

int64_t OrderDelta::Ndv2Correction(TermId v0) const {
  const auto it = std::lower_bound(
      ndv2_fix_.begin(), ndv2_fix_.end(), v0,
      [](const std::pair<TermId, int32_t>& fix, TermId v) {
        return fix.first < v;
      });
  return it != ndv2_fix_.end() && it->first == v0 ? it->second : 0;
}

uint32_t OrderDelta::MergedRankInBucket(uint32_t base_pos, int depth,
                                        const Key& key, bool inclusive,
                                        Rank lo, Rank hi) const {
  const uint32_t tombs_below = FirstFalse(
      lo.tombs, hi.tombs, [&](uint32_t i) { return tombs_[i] < base_pos; });
  // Adds inserted below base_pos sort below every base triple from
  // base_pos on; adds inserted exactly at base_pos sit between the base
  // neighbours and need their own prefix comparison against `key`.
  const uint32_t adds_below = FirstFalse(lo.adds, hi.adds, [&](uint32_t i) {
    if (add_base_pos_[i] != base_pos) return add_base_pos_[i] < base_pos;
    for (int level = 0; level < depth; ++level) {
      const TermId value = adds_[i][OrderComponent(order_, level)];
      if (value != key[level]) return value < key[level];
    }
    return inclusive;
  });
  return base_pos - tombs_below + adds_below;
}

Range OrderDelta::MergedLevel0Range(TermId v0) const {
  const TrieIndex& base = *base_;
  const Range range = v0 < base.num_terms()
                          ? base.Level0Range(v0)
                          : Range{base.size(), base.size()};
  return ShiftRange(range, 1, Key{v0, 0, 0});
}

Range OrderDelta::LookupPrefix(int depth, const Key& key, Range base) const {
  KGOA_DCHECK(depth == 1 || depth == 2);
  Range merged;
  if (!base.empty()) {
    merged = ShiftRange(base, depth, key);
  } else if (depth == 1) {
    merged = MergedLevel0Range(key[0]);
  } else {
    // A pair the base lacks: its merged range is exactly its adds, which
    // sit next to each other in the merged order.
    const Range* adds = add_pairs_.Find(PackPair(key[0], key[1]));
    if (adds == nullptr) return Range{};
    merged = Range{add_merged_pos_[adds->begin],
                   add_merged_pos_[adds->end - 1] + 1};
  }
  return merged.empty() ? Range{} : merged;
}

Range OrderDelta::LookupTriple(const Key& key, Range base) const {
  if (!base.empty()) {
    const Range merged = ShiftRange(base_->Narrow(base, 2, key[2]), 3, key);
    // An empty answer is the insertion point inside the pair's node, or
    // Range{} when every triple of the pair is gone.
    if (!merged.empty() || !LookupPrefix(2, key, base).empty()) return merged;
    return Range{};
  }
  // A pair the base lacks: its node is its adds, consecutive in both the
  // adds array and the merged order.
  const Range* adds = add_pairs_.Find(PackPair(key[0], key[1]));
  if (adds == nullptr) return Range{};
  const int c2 = OrderComponent(order_, 2);
  const uint32_t lo = FirstFalse(adds->begin, adds->end, [&](uint32_t i) {
    return adds_[i][c2] < key[2];
  });
  const uint32_t hi = FirstFalse(lo, adds->end, [&](uint32_t i) {
    return adds_[i][c2] <= key[2];
  });
  const uint32_t node_begin = add_merged_pos_[adds->begin];
  return Range{node_begin + (lo - adds->begin),
               node_begin + (hi - adds->begin)};
}

DeltaOverlay::DeltaOverlay(const IndexSet& base, PendingWrites pending)
    : pending_(std::move(pending)) {
  KGOA_DCHECK_SORTED_BY(pending_.adds.begin(), pending_.adds.end(), SpoLess);
  KGOA_DCHECK_SORTED_BY(pending_.dels.begin(), pending_.dels.end(), SpoLess);
  uint32_t num_terms = base.Index(IndexOrder::kSpo).num_terms();
  for (const Triple& t : pending_.adds) {
    num_terms = std::max({num_terms, t.s + 1, t.p + 1, t.o + 1});
  }
  view_num_terms_ = num_terms;
  for (IndexOrder order : kAllIndexOrders) {
    deltas_[static_cast<int>(order)] =
        std::make_unique<OrderDelta>(order, base.Index(order),
                                     base.Hash(order), pending_);
  }
}

bool DeltaOverlay::IsAdded(const Triple& t) const {
  return std::binary_search(pending_.adds.begin(), pending_.adds.end(), t,
                            SpoLess);
}

bool DeltaOverlay::IsDeleted(const Triple& t) const {
  return std::binary_search(pending_.dels.begin(), pending_.dels.end(), t,
                            SpoLess);
}

}  // namespace kgoa
