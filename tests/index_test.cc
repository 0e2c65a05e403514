// Unit tests for src/index: trie indexes, trie iterators, hash ranges, and
// the IndexSet facade, validated against brute-force scans.
#include <algorithm>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include <gtest/gtest.h>

#include "src/index/block_codec.h"
#include "src/index/index_set.h"
#include "src/index/trie_iterator.h"
#include "src/ola/parallel.h"
#include "src/util/contract.h"
#include "tests/test_util.h"

namespace kgoa {
namespace {

class IndexTest : public ::testing::Test {
 protected:
  IndexTest() : graph_(testing::PaperExampleGraph()), indexes_(graph_) {}
  Graph graph_;
  IndexSet indexes_;
};

TEST_F(IndexTest, OrdersAreSorted) {
  for (IndexOrder order : kAllIndexOrders) {
    const TrieIndex& index = indexes_.Index(order);
    ASSERT_EQ(index.size(), graph_.NumTriples());
    for (uint32_t i = 1; i < index.size(); ++i) {
      EXPECT_FALSE(OrderLess{order}(index.TripleAt(i), index.TripleAt(i - 1)))
          << OrderName(order) << " not sorted at " << i;
    }
  }
}

TEST_F(IndexTest, NarrowMatchesBruteForce) {
  const TrieIndex& pso = indexes_.Index(IndexOrder::kPso);
  const TermId type = graph_.rdf_type();
  const Range r = pso.Narrow(pso.Root(), 0, type);
  uint64_t expected = 0;
  for (const Triple& t : graph_.triples()) expected += t.p == type;
  EXPECT_EQ(r.size(), expected);
  // All triples in the range have the predicate.
  for (uint32_t pos = r.begin; pos < r.end; ++pos) {
    EXPECT_EQ(pso.TripleAt(pos).p, type);
  }
}

TEST_F(IndexTest, NarrowMissingValueIsEmpty) {
  const TrieIndex& spo = indexes_.Index(IndexOrder::kSpo);
  const Range r = spo.Narrow(spo.Root(), 0, kInvalidTerm - 1);
  EXPECT_TRUE(r.empty());
}

TEST_F(IndexTest, Ndv1MatchesSet) {
  for (IndexOrder order : kAllIndexOrders) {
    const TrieIndex& index = indexes_.Index(order);
    std::set<TermId> level0;
    for (const Triple& t : graph_.triples()) {
      level0.insert(t[OrderComponent(order, 0)]);
    }
    EXPECT_EQ(index.Ndv1(), level0.size());
  }
}

TEST_F(IndexTest, TrieIteratorEnumeratesDistinctSortedKeys) {
  const TrieIndex& pso = indexes_.Index(IndexOrder::kPso);
  TrieIterator it(&pso);
  it.Open();
  std::vector<TermId> keys;
  while (!it.AtEnd()) {
    keys.push_back(it.Key());
    it.Next();
  }
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(std::unique(keys.begin(), keys.end()), keys.end());
  EXPECT_EQ(keys.size(), indexes_.Hash(IndexOrder::kPso).Ndv1());
}

TEST_F(IndexTest, TrieIteratorOpenUpRestoresPosition) {
  const TrieIndex& spo = indexes_.Index(IndexOrder::kSpo);
  TrieIterator it(&spo);
  it.Open();
  const TermId first = it.Key();
  it.Next();
  ASSERT_FALSE(it.AtEnd());
  const TermId second = it.Key();
  it.Open();  // descend under `second`
  ASSERT_FALSE(it.AtEnd());
  it.Up();
  EXPECT_EQ(it.Key(), second);
  it.Up();
  EXPECT_EQ(it.level(), -1);
  it.Open();
  EXPECT_EQ(it.Key(), first);
}

TEST_F(IndexTest, TrieIteratorSeek) {
  const TrieIndex& spo = indexes_.Index(IndexOrder::kSpo);
  TrieIterator it(&spo);
  it.Open();
  std::vector<TermId> keys;
  while (!it.AtEnd()) {
    keys.push_back(it.Key());
    it.Next();
  }
  ASSERT_GE(keys.size(), 3u);
  // Seek to each key and one past it.
  for (TermId key : keys) {
    TrieIterator seeker(&spo);
    seeker.Open();
    seeker.SeekGE(key);
    ASSERT_FALSE(seeker.AtEnd());
    EXPECT_EQ(seeker.Key(), key);
  }
  TrieIterator seeker(&spo);
  seeker.Open();
  seeker.SeekGE(keys.back() + 1);
  EXPECT_TRUE(seeker.AtEnd());
}

TEST_F(IndexTest, TrieIteratorThreeLevelWalkReconstructsTriples) {
  const TrieIndex& ops = indexes_.Index(IndexOrder::kOps);
  TrieIterator it(&ops);
  std::unordered_set<uint64_t> seen;
  std::size_t count = 0;
  it.Open();
  while (!it.AtEnd()) {
    const TermId o = it.Key();
    it.Open();
    while (!it.AtEnd()) {
      const TermId p = it.Key();
      it.Open();
      while (!it.AtEnd()) {
        const TermId s = it.Key();
        EXPECT_TRUE(graph_.Contains(Triple{s, p, o}));
        ++count;
        it.Next();
      }
      it.Up();
      it.Next();
    }
    it.Up();
    it.Next();
  }
  EXPECT_EQ(count, graph_.NumTriples());
  (void)seen;
}

TEST_F(IndexTest, HashRangesAgreeWithNarrow) {
  for (IndexOrder order : kAllIndexOrders) {
    const TrieIndex& index = indexes_.Index(order);
    const HashRangeIndex& hash = indexes_.Hash(order);
    std::set<TermId> level0;
    for (const Triple& t : graph_.triples()) {
      level0.insert(t[OrderComponent(order, 0)]);
    }
    for (TermId v : level0) {
      const Range expected = index.Narrow(index.Root(), 0, v);
      EXPECT_EQ(hash.Depth1(v), expected) << OrderName(order);
      std::set<TermId> level1;
      for (uint32_t pos = expected.begin; pos < expected.end; ++pos) {
        level1.insert(index.KeyAt(pos, 1));
      }
      EXPECT_EQ(hash.Ndv2(v), level1.size());
      // Depth-2 spot check: first (v, w) pair in the range.
      const TermId w = index.KeyAt(expected.begin, 1);
      EXPECT_EQ(hash.Depth2(v, w), index.Narrow(expected, 1, w));
    }
  }
}

TEST_F(IndexTest, HashRangeMissingKeysEmpty) {
  const HashRangeIndex& hash = indexes_.Hash(IndexOrder::kSpo);
  EXPECT_TRUE(hash.Depth1(kInvalidTerm - 1).empty());
  EXPECT_TRUE(hash.Depth2(kInvalidTerm - 1, 0).empty());
  EXPECT_EQ(hash.Ndv2(kInvalidTerm - 1), 0u);
}

TEST(ChooseOrder, CoversAllPrefixMasks) {
  IndexOrder order;
  int depth;
  // Every mask except {s,o} has a covering order.
  for (uint32_t mask : {0b000u, 0b001u, 0b010u, 0b100u, 0b011u, 0b110u,
                        0b111u}) {
    EXPECT_TRUE(IndexSet::ChooseOrder(mask, &order, &depth)) << mask;
    EXPECT_EQ(depth, std::popcount(mask));
  }
  EXPECT_FALSE(IndexSet::ChooseOrder(0b101u, &order, &depth));
}

TEST_F(IndexTest, CountMatchesAgainstBruteForce) {
  const TermId type = graph_.rdf_type();
  const TermId person = graph_.dict().Lookup("Person");
  const TermId plato = graph_.dict().Lookup("plato");

  struct Case {
    TriplePattern pattern;
    const char* label;
  };
  const std::vector<Case> cases = {
      {MakePattern(Slot::MakeVar(0), Slot::MakeConst(type),
                   Slot::MakeConst(person)),
       "?x type Person"},
      {MakePattern(Slot::MakeVar(0), Slot::MakeVar(1), Slot::MakeVar(2)),
       "?x ?p ?y"},
      {MakePattern(Slot::MakeConst(plato), Slot::MakeVar(0),
                   Slot::MakeVar(1)),
       "plato ?p ?y"},
      {MakePattern(Slot::MakeConst(plato), Slot::MakeVar(0),
                   Slot::MakeConst(person)),
       "plato ?p Person ({s,o} fallback)"},
      {MakePattern(Slot::MakeConst(plato), Slot::MakeConst(type),
                   Slot::MakeConst(person)),
       "plato type Person (existence)"},
  };
  for (const Case& c : cases) {
    uint64_t expected = 0;
    for (const Triple& t : graph_.triples()) {
      expected += c.pattern.MatchesConstants(t);
    }
    EXPECT_EQ(indexes_.CountMatches(c.pattern), expected) << c.label;
  }
}

TEST_F(IndexTest, CountDistinctVarAgainstBruteForce) {
  const TermId type = graph_.rdf_type();
  const TermId person = graph_.dict().Lookup("Person");
  const TermId influenced = graph_.dict().Lookup("influencedBy");

  struct Case {
    TriplePattern pattern;
    VarId var;
    int component;
  };
  const std::vector<Case> cases = {
      // Adjacent level (fast path).
      {MakePattern(Slot::MakeVar(0), Slot::MakeConst(type),
                   Slot::MakeConst(person)),
       0, kSubject},
      {MakePattern(Slot::MakeVar(0), Slot::MakeConst(influenced),
                   Slot::MakeVar(1)),
       0, kSubject},
      // Non-adjacent: distinct objects given predicate.
      {MakePattern(Slot::MakeVar(0), Slot::MakeConst(influenced),
                   Slot::MakeVar(1)),
       1, kObject},
      // No constants at all.
      {MakePattern(Slot::MakeVar(0), Slot::MakeVar(1), Slot::MakeVar(2)), 1,
       kPredicate},
  };
  for (const Case& c : cases) {
    std::set<TermId> values;
    for (const Triple& t : graph_.triples()) {
      if (c.pattern.MatchesConstants(t)) values.insert(t[c.component]);
    }
    EXPECT_EQ(indexes_.CountDistinctVar(c.pattern, c.var), values.size());
  }
}

TEST_F(IndexTest, SeekGEGallopingEdgeCases) {
  const TrieIndex& spo = indexes_.Index(IndexOrder::kSpo);
  const Range root = spo.Root();
  ASSERT_FALSE(root.empty());
  const TermId first = spo.KeyAt(root.begin, 0);
  const TermId last = spo.KeyAt(root.end - 1, 0);

  // `from` already at the end: nothing left to seek.
  EXPECT_EQ(spo.SeekGE(root, 0, first, root.end), root.end);
  // Value past everything in the range.
  EXPECT_EQ(spo.SeekGE(root, 0, last + 1, root.begin), root.end);
  // `from` already at (or past) the target value: position is unchanged.
  EXPECT_EQ(spo.SeekGE(root, 0, first, root.begin), root.begin);
  const uint32_t at_last = spo.Narrow(root, 0, last).begin;
  EXPECT_EQ(spo.SeekGE(root, 0, last, at_last), at_last);
  // Seek to the exact last value from the front.
  EXPECT_EQ(spo.SeekGE(root, 0, last, root.begin), at_last);

  // Leapfrog sweep: seeking every distinct value in ascending order from
  // the previous hit never moves backwards and lands exactly where a
  // from-scratch Narrow would.
  uint32_t from = root.begin;
  uint32_t pos = root.begin;
  while (pos < root.end) {
    const TermId v = spo.KeyAt(pos, 0);
    const uint32_t hit = spo.SeekGE(root, 0, v, from);
    EXPECT_GE(hit, from);
    EXPECT_EQ(hit, spo.Narrow(root, 0, v).begin);
    from = hit;
    pos = spo.BlockEnd(root, 0, pos);
  }
  // A repeated seek to the last value from its own hit stays put.
  EXPECT_EQ(spo.SeekGE(root, 0, last, from), from);
}

TEST_F(IndexTest, SeekGEDeepLevels) {
  // Same invariants one level down, where SeekGE gallops instead of using
  // the CSR offsets.
  const TrieIndex& pso = indexes_.Index(IndexOrder::kPso);
  const Range root = pso.Root();
  uint32_t pos0 = root.begin;
  while (pos0 < root.end) {
    const Range node = Range{pos0, pso.BlockEnd(root, 0, pos0)};
    uint32_t from = node.begin;
    uint32_t pos = node.begin;
    while (pos < node.end) {
      const TermId v = pso.KeyAt(pos, 1);
      const uint32_t hit = pso.SeekGE(node, 1, v, from);
      EXPECT_GE(hit, from);
      EXPECT_EQ(hit, pso.Narrow(node, 1, v).begin);
      from = pso.BlockEnd(node, 1, hit);  // consume the block, keep moving
      pos = from;
    }
    EXPECT_EQ(pso.SeekGE(node, 1, pso.KeyAt(node.end - 1, 1) + 1, node.begin),
              node.end);
    pos0 = node.end;
  }
}

TEST_F(IndexTest, Level0RangeMatchesNarrowForAllTerms) {
  for (IndexOrder order : kAllIndexOrders) {
    const TrieIndex& index = indexes_.Index(order);
    for (TermId v = 0; v < index.num_terms(); ++v) {
      EXPECT_EQ(index.Level0Range(v), index.Narrow(index.Root(), 0, v))
          << OrderName(order) << " term " << v;
    }
    // Out-of-dictionary values are empty, not out-of-bounds.
    EXPECT_TRUE(index.Level0Range(index.num_terms()).empty());
    EXPECT_TRUE(index.Level0Range(kInvalidTerm - 1).empty());
  }
}

TEST(TrieIndexRadix, SortingCtorMatchesStdSort) {
  // The copying constructor radix-sorts arbitrary input; std::sort with
  // OrderLess is the reference. Duplicate-free input => unique sorted
  // array, so the two must be bit-identical.
  Rng rng(7);
  for (int round = 0; round < 5; ++round) {
    Graph g = testing::RandomGraph(rng);
    std::vector<Triple> shuffled = g.triples();
    for (std::size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.Below(i)]);
    }
    for (IndexOrder order : kAllIndexOrders) {
      TrieIndex index(order, shuffled);
      std::vector<Triple> expected = shuffled;
      std::sort(expected.begin(), expected.end(), OrderLess{order});
      ASSERT_EQ(index.size(), expected.size());
      for (uint32_t i = 0; i < index.size(); ++i) {
        ASSERT_EQ(index.TripleAt(i), expected[i])
            << OrderName(order) << " pos " << i;
      }
    }
  }
}

TEST_F(IndexTest, BuildStatsAndMemoryAreSane) {
  const IndexBuildStats& stats = indexes_.build_stats();
  EXPECT_GT(stats.total_ms, 0.0);
  for (int o = 0; o < kNumIndexOrders; ++o) {
    EXPECT_GE(stats.sort_ms[o], 0.0);
    EXPECT_GE(stats.hash_ms[o], 0.0);
  }
  // Memory at least covers the four resident triple arrays.
  EXPECT_GE(indexes_.ApproxMemoryBytes(),
            4 * graph_.NumTriples() * sizeof(Triple));
}

// Differential test: the flat-table hash ranges must answer exactly like
// the pre-rewrite representation — one std::unordered_map per depth,
// populated by the same nested block walk the old constructor used.
// --- Structural contracts on deliberately corrupted inputs ----------------

TEST(TrieIndexContracts, AdoptCtorRejectsCorruptedSortedLevel) {
  if (!contract::kEnabled) GTEST_SKIP() << "KGOA_DCHECK compiled out";
  // Level 0 of an SPO trie must be non-decreasing; subject 5 precedes 2.
  std::vector<Triple> corrupted = {{5, 1, 1}, {2, 1, 1}, {3, 1, 1}};
  EXPECT_DEATH(
      TrieIndex(IndexOrder::kSpo, std::move(corrupted), /*num_terms=*/6),
      "KGOA_DCHECK_SORTED failed at .*precedes");
}

TEST(TrieIndexContracts, CheckInvariantsCatchesCorruptedTrie) {
  // Always-on validation: whichever contract layer is active, adopting an
  // unsorted array and auditing the index must abort, never return wrong
  // ranges silently.
  const auto adopt_and_audit = [] {
    std::vector<Triple> corrupted = {{5, 1, 1}, {2, 1, 1}, {3, 1, 1}};
    const TrieIndex index(IndexOrder::kSpo, std::move(corrupted),
                          /*num_terms=*/6);
    index.CheckInvariants();
  };
  EXPECT_DEATH(adopt_and_audit(), "failed at");
}

TEST(IndexRandom, FlatTablesMatchReferenceMaps) {
  Rng rng(4242);
  for (int round = 0; round < 10; ++round) {
    Graph g = testing::RandomGraph(rng);
    IndexSet indexes(g);
    for (IndexOrder order : kAllIndexOrders) {
      const TrieIndex& index = indexes.Index(order);
      const HashRangeIndex& hash = indexes.Hash(order);

      struct RefEntry {
        Range range;
        uint32_t child_count = 0;
      };
      std::unordered_map<TermId, RefEntry> ref1;
      std::unordered_map<uint64_t, Range> ref2;
      const Range root = index.Root();
      uint32_t pos = root.begin;
      while (pos < root.end) {
        const TermId v0 = index.KeyAt(pos, 0);
        const uint32_t end0 = index.BlockEnd(root, 0, pos);
        RefEntry entry{Range{pos, end0}, 0};
        uint32_t p1 = pos;
        while (p1 < end0) {
          const TermId v1 = index.KeyAt(p1, 1);
          const uint32_t end1 = index.BlockEnd(Range{pos, end0}, 1, p1);
          ref2[(static_cast<uint64_t>(v0) << 32) | v1] = Range{p1, end1};
          ++entry.child_count;
          p1 = end1;
        }
        ref1[v0] = entry;
        pos = end0;
      }

      ASSERT_EQ(hash.Depth1Entries(), ref1.size()) << OrderName(order);
      ASSERT_EQ(hash.Depth2Entries(), ref2.size()) << OrderName(order);
      ASSERT_EQ(hash.Ndv1(), ref1.size()) << OrderName(order);
      // Present keys agree; a few shifted keys miss on both sides.
      for (const auto& [v0, entry] : ref1) {
        ASSERT_EQ(hash.Depth1(v0), entry.range) << OrderName(order);
        ASSERT_EQ(hash.Ndv2(v0), entry.child_count) << OrderName(order);
      }
      for (const auto& [key, range] : ref2) {
        ASSERT_EQ(hash.Depth2(static_cast<TermId>(key >> 32),
                              static_cast<TermId>(key)),
                  range)
            << OrderName(order);
      }
      for (int probe = 0; probe < 64; ++probe) {
        const TermId v0 = static_cast<TermId>(rng.Below(2 * g.dict().size()));
        const TermId v1 = static_cast<TermId>(rng.Below(2 * g.dict().size()));
        const auto it1 = ref1.find(v0);
        ASSERT_EQ(hash.Depth1(v0),
                  it1 == ref1.end() ? Range{} : it1->second.range);
        ASSERT_EQ(hash.Ndv2(v0),
                  it1 == ref1.end() ? 0u : it1->second.child_count);
        const uint64_t key = (static_cast<uint64_t>(v0) << 32) | v1;
        const auto it2 = ref2.find(key);
        ASSERT_EQ(hash.Depth2(v0, v1),
                  it2 == ref2.end() ? Range{} : it2->second);
      }
    }
  }
}

// Randomized agreement between index structures and scans.
TEST(IndexRandom, RangesAgreeWithScans) {
  Rng rng(99);
  for (int round = 0; round < 10; ++round) {
    Graph g = testing::RandomGraph(rng);
    IndexSet indexes(g);
    for (IndexOrder order : kAllIndexOrders) {
      const TrieIndex& index = indexes.Index(order);
      const HashRangeIndex& hash = indexes.Hash(order);
      uint64_t total = 0;
      std::set<TermId> level0;
      for (const Triple& t : g.triples()) {
        level0.insert(t[OrderComponent(order, 0)]);
      }
      for (TermId v : level0) {
        const Range r = hash.Depth1(v);
        total += r.size();
        uint64_t expected = 0;
        for (const Triple& t : g.triples()) {
          expected += t[OrderComponent(order, 0)] == v;
        }
        ASSERT_EQ(r.size(), expected);
      }
      ASSERT_EQ(total, g.NumTriples());
      ASSERT_EQ(hash.Ndv1(), level0.size());
      ASSERT_EQ(index.Ndv1(), level0.size());
    }
  }
}

// ---------------------------------------------------------------------------
// Block codec (src/index/block_codec.h)
// ---------------------------------------------------------------------------

// Decode-what-you-encode across the value shapes that steer the per-block
// bit width: constant blocks (0-bit FOR), narrow bands, sorted small-gap
// runs, wide random values, outliers that widen a block's frame, and the
// partial-last-block sizes around the 128-value boundary.
TEST(BlockCodec, RoundTripProperty) {
  Rng rng(2024);
  const uint32_t sizes[] = {0, 1, 63, 127, 128, 129, 255, 256, 1000, 4096};
  for (const uint32_t n : sizes) {
    for (int shape = 0; shape < 5; ++shape) {
      std::vector<uint32_t> values(n);
      uint32_t running = static_cast<uint32_t>(rng.Below(1000));
      for (uint32_t i = 0; i < n; ++i) {
        switch (shape) {
          case 0:  // constant
            values[i] = 42;
            break;
          case 1:  // narrow band
            values[i] = 1000 + static_cast<uint32_t>(rng.Below(17));
            break;
          case 2:  // sorted, small gaps
            running += static_cast<uint32_t>(rng.Below(4));
            values[i] = running;
            break;
          case 3:  // wide random
            values[i] = static_cast<uint32_t>(rng.Below(1u << 30));
            break;
          default:  // mostly narrow with rare outliers (FOR poison)
            values[i] = rng.Below(100) == 0
                            ? (1u << 29) + static_cast<uint32_t>(rng.Below(7))
                            : static_cast<uint32_t>(rng.Below(32));
            break;
        }
      }
      const BlockedColumn col(values.data(), n);
      ASSERT_EQ(col.size(), n);
      col.CheckInvariants(values.data());
      for (uint32_t i = 0; i < n; ++i) {
        ASSERT_EQ(col.Get(i), values[i]) << "shape " << shape << " pos " << i;
      }
      uint32_t decoded[kCodecBlockSize];
      uint32_t pos = 0;
      for (uint32_t b = 0; b < col.num_blocks(); ++b) {
        const uint32_t count = col.DecodeBlock(b, decoded);
        ASSERT_EQ(count, col.block_meta(b).count);
        for (uint32_t i = 0; i < count; ++i) {
          ASSERT_EQ(decoded[i], values[pos + i]);
        }
        pos += count;
      }
      ASSERT_EQ(pos, n);
    }
  }
}

// SeekGE/SeekGT over sorted windows agree with std::lower_bound /
// std::upper_bound on the raw array — including windows that straddle
// block boundaries, where the gallop must never overshoot.
TEST(BlockCodec, SeekMatchesLinearScan) {
  Rng rng(777);
  for (int round = 0; round < 20; ++round) {
    const uint32_t n = 1 + static_cast<uint32_t>(rng.Below(2000));
    std::vector<uint32_t> values(n);
    uint32_t running = 0;
    for (uint32_t i = 0; i < n; ++i) {
      running += static_cast<uint32_t>(rng.Below(8));
      values[i] = running;
    }
    const BlockedColumn col(values.data(), n);
    for (int probe = 0; probe < 200; ++probe) {
      uint32_t from = static_cast<uint32_t>(rng.Below(n + 1));
      uint32_t end = static_cast<uint32_t>(rng.Below(n + 1));
      if (from > end) std::swap(from, end);
      const uint32_t v = static_cast<uint32_t>(rng.Below(running + 3));
      const auto begin_it = values.begin() + from;
      const auto end_it = values.begin() + end;
      const uint32_t expect_ge = static_cast<uint32_t>(
          std::lower_bound(begin_it, end_it, v) - values.begin());
      const uint32_t expect_gt = static_cast<uint32_t>(
          std::upper_bound(begin_it, end_it, v) - values.begin());
      ASSERT_EQ(col.SeekGE(from, end, v), expect_ge)
          << "[" << from << "," << end << ") v=" << v;
      ASSERT_EQ(col.SeekGT(from, end, v), expect_gt)
          << "[" << from << "," << end << ") v=" << v;
    }
  }
}

// Point reads come straight from the packed bytes, so every bit width is
// its own code path through the shift/mask arithmetic. One column per
// width 0..32: each full block spans exactly 2^width - 1 above a base
// near the top of the uint32 range, and the short final block (37
// values) ends at the payload's last packed byte — at width 32 that is
// the read the padding exists for.
TEST(BlockCodec, GetMatchesSourceAtEveryPositionForEveryWidth) {
  Rng rng(4242);
  constexpr uint32_t kN = 3 * kCodecBlockSize + 37;
  for (uint32_t width = 0; width <= 32; ++width) {
    const auto span = static_cast<uint32_t>((uint64_t{1} << width) - 1);
    const uint32_t base = 0xffffffffu - span;
    std::vector<uint32_t> values(kN);
    for (uint32_t i = 0; i < kN; ++i) {
      values[i] =
          base + static_cast<uint32_t>(rng.Next() % (uint64_t{span} + 1));
    }
    // Pin each block's frame to exactly [base, base + span].
    for (uint32_t begin = 0; begin < kN; begin += kCodecBlockSize) {
      values[begin] = base;
      values[std::min(kN, begin + kCodecBlockSize) - 1] = base + span;
    }
    const BlockedColumn col(values.data(), kN);
    col.CheckInvariants(values.data());
    ASSERT_EQ(col.num_blocks(), 4u);
    for (uint32_t b = 0; b < col.num_blocks(); ++b) {
      ASSERT_EQ(col.block_meta(b).bit_width, width) << "block " << b;
    }
    ASSERT_EQ(col.block_meta(3).count, 37u);
    for (uint32_t i = 0; i < kN; ++i) {
      ASSERT_EQ(col.Get(i), values[i]) << "width " << width << " pos " << i;
    }
  }
}

// Seek windows anchored at every block edge: [from, end) with both ends
// drawn from {edge - 1, edge, edge + 1}, against std::lower_bound /
// std::upper_bound. The gallop's first probe, its doubling steps and its
// bisection all cross block boundaries here.
TEST(BlockCodec, SeekWindowsAnchoredAtBlockEdges) {
  Rng rng(515);
  for (const uint32_t n : {1u, 127u, 128u, 129u, 5 * kCodecBlockSize + 3}) {
    std::vector<uint32_t> values(n);
    uint32_t running = 0;
    for (uint32_t i = 0; i < n; ++i) {
      running += static_cast<uint32_t>(rng.Below(3));  // long equal runs
      values[i] = running;
    }
    const BlockedColumn col(values.data(), n);
    std::vector<uint32_t> anchors = {0, n};
    for (uint32_t edge = kCodecBlockSize; edge < n; edge += kCodecBlockSize) {
      anchors.insert(anchors.end(), {edge - 1, edge, edge + 1});
    }
    std::vector<uint32_t> probes = {0, running + 1};
    for (const uint32_t a : anchors) {
      if (a < n) probes.insert(probes.end(), {values[a], values[a] + 1});
    }
    for (const uint32_t from : anchors) {
      for (const uint32_t end : anchors) {
        if (from > end) continue;
        const auto lo = values.begin() + from;
        const auto hi = values.begin() + end;
        for (const uint32_t v : probes) {
          const auto expect_ge = static_cast<uint32_t>(
              std::lower_bound(lo, hi, v) - values.begin());
          const auto expect_gt = static_cast<uint32_t>(
              std::upper_bound(lo, hi, v) - values.begin());
          ASSERT_EQ(col.SeekGE(from, end, v), expect_ge)
              << "n " << n << " [" << from << "," << end << ") v=" << v;
          ASSERT_EQ(col.SeekGT(from, end, v), expect_gt)
              << "n " << n << " [" << from << "," << end << ") v=" << v;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Block storage tier (src/index/trie_index.h, src/index/index_set.h)
// ---------------------------------------------------------------------------

// Every index operation the engines use — TripleAt, KeyAt, Narrow,
// SeekGE, BlockEnd — returns identical positions and ranges on the raw
// and block tiers of the same graph. This is the property that makes
// estimate bit-identity across tiers automatic: the RNG draws depend only
// on range sizes, and the position space is shared.
TEST(IndexRandom, BlockTierMatchesRawOnAllOps) {
  Rng rng(31337);
  testing::RandomGraphSpec spec;
  spec.num_entities = 60;
  spec.num_property_triples = 600;
  spec.num_type_triples = 200;
  for (int round = 0; round < 5; ++round) {
    Graph g = testing::RandomGraph(rng, spec);
    IndexSet raw(g);
    IndexSet block(g, IndexSetOptions{StorageTier::kBlock});
    ASSERT_EQ(raw.tier(), StorageTier::kRaw);
    ASSERT_EQ(block.tier(), StorageTier::kBlock);
    for (IndexOrder order : kAllIndexOrders) {
      const TrieIndex& a = raw.Index(order);
      const TrieIndex& b = block.Index(order);
      ASSERT_EQ(a.size(), b.size());
      b.CheckInvariants();
      for (uint32_t pos = 0; pos < a.size(); ++pos) {
        ASSERT_EQ(a.TripleAt(pos), b.TripleAt(pos)) << OrderName(order);
      }
      // Level-0 node walk + per-node level-1 walk, in lockstep.
      const Range root = a.Root();
      ASSERT_EQ(root, b.Root());
      uint32_t pos = root.begin;
      while (pos < root.end) {
        const TermId v0 = a.KeyAt(pos, 0);
        ASSERT_EQ(v0, b.KeyAt(pos, 0));
        const uint32_t end0 = a.BlockEnd(root, 0, pos);
        ASSERT_EQ(end0, b.BlockEnd(root, 0, pos));
        ASSERT_EQ(a.Narrow(root, 0, v0), b.Narrow(root, 0, v0));
        const Range node{pos, end0};
        uint32_t p1 = pos;
        while (p1 < end0) {
          const TermId v1 = a.KeyAt(p1, 1);
          ASSERT_EQ(v1, b.KeyAt(p1, 1));
          const uint32_t end1 = a.BlockEnd(node, 1, p1);
          ASSERT_EQ(end1, b.BlockEnd(node, 1, p1));
          ASSERT_EQ(a.Narrow(node, 1, v1), b.Narrow(node, 1, v1));
          p1 = end1;
        }
        pos = end0;
      }
      // Random seeks, including missing values.
      for (int probe = 0; probe < 100; ++probe) {
        const TermId v =
            static_cast<TermId>(rng.Below(2 * g.dict().size() + 2));
        const uint32_t from =
            root.begin + static_cast<uint32_t>(rng.Below(root.size() + 1));
        ASSERT_EQ(a.SeekGE(root, 0, v, from), b.SeekGE(root, 0, v, from));
        ASSERT_EQ(a.Narrow(root, 0, v), b.Narrow(root, 0, v));
      }
    }
    // Tier accounting: exactly one tier's byte count is nonzero per set,
    // and the block tier is strictly smaller than raw on this data.
    EXPECT_EQ(raw.BlockStorageBytes(), 0u);
    EXPECT_EQ(block.RawStorageBytes(), 0u);
    EXPECT_GT(raw.RawStorageBytes(), 0u);
    EXPECT_GT(block.BlockStorageBytes(), 0u);
    EXPECT_LT(block.BlockStorageBytes(), raw.RawStorageBytes());
    EXPECT_LT(block.ApproxMemoryBytes(), raw.ApproxMemoryBytes());
  }
}

// A triple set whose block-tier columns include constant (width-0)
// blocks and a short final block: subject 0 carries 700 objects under
// one predicate, so in SPO the level-0 and level-1 columns are constant
// over the first five blocks and level 2 is one long sorted run; 396
// further subjects with a spread of objects give wider blocks, and the
// 1096 triples leave a 72-value final block.
std::vector<Triple> EdgeCaseTriples() {
  std::vector<Triple> triples;
  for (TermId o = 2; o < 702; ++o) triples.push_back(Triple{0, 1, o});
  for (TermId s = 2; s < 398; ++s) {
    triples.push_back(Triple{s, 1, 2 + (s * 7919) % 1500});
  }
  return triples;
}

// Raw and block tier of one order, built from the same triples.
struct TierPair {
  TierPair(IndexOrder order, const std::vector<Triple>& triples)
      : raw(order, triples), block(order, triples) {
    block.CompressToBlockTier();
  }
  TrieIndex raw;
  TrieIndex block;
};

// KeyAt/TripleAt at every position, on every order: the decode-free
// point read against the raw array.
TEST(BlockTier, PointReadsMatchRawAtEveryPosition) {
  const std::vector<Triple> triples = EdgeCaseTriples();
  ASSERT_EQ(triples.size() % kCodecBlockSize, 72u);
  for (IndexOrder order : kAllIndexOrders) {
    const TierPair t(order, triples);
    ASSERT_EQ(t.block.tier(), StorageTier::kBlock);
    t.block.CheckInvariants();
    for (uint32_t pos = 0; pos < t.raw.size(); ++pos) {
      ASSERT_EQ(t.raw.TripleAt(pos), t.block.TripleAt(pos))
          << OrderName(order) << " pos " << pos;
      for (int level = 0; level < 3; ++level) {
        ASSERT_EQ(t.raw.KeyAt(pos, level), t.block.KeyAt(pos, level))
            << OrderName(order) << " pos " << pos << " level " << level;
      }
    }
  }
}

// SeekGE/Narrow/BlockEnd on both tiers over windows whose ends sit at
// block_begin - 1, block_begin and block_begin + 1 of every block edge
// inside a trie node (any sub-window of a level-(L-1) node is sorted at
// level L). Level 0 seeks and BlockEnds run on the root from the same
// anchors.
TEST(BlockTier, SeeksMatchRawOnWindowsAtBlockEdges) {
  const std::vector<Triple> triples = EdgeCaseTriples();
  auto anchors_in = [](Range node) {
    std::vector<uint32_t> anchors = {node.begin, node.end};
    const uint32_t first_edge =
        (node.begin / kCodecBlockSize + 1) * kCodecBlockSize;
    for (uint32_t edge = first_edge; edge < node.end + 2;
         edge += kCodecBlockSize) {
      for (const uint32_t a : {edge - 1, edge, edge + 1}) {
        if (a > node.begin && a < node.end) anchors.push_back(a);
      }
    }
    std::sort(anchors.begin(), anchors.end());
    anchors.erase(std::unique(anchors.begin(), anchors.end()), anchors.end());
    return anchors;
  };
  uint64_t windows = 0;
  for (IndexOrder order : kAllIndexOrders) {
    const TierPair t(order, triples);
    const Range root = t.raw.Root();
    for (const uint32_t pos : anchors_in(root)) {
      if (pos == root.end) continue;
      ASSERT_EQ(t.raw.BlockEnd(root, 0, pos), t.block.BlockEnd(root, 0, pos));
      for (const TermId v :
           {TermId{0}, t.raw.KeyAt(pos, 0), t.raw.KeyAt(pos, 0) + 1}) {
        ASSERT_EQ(t.raw.SeekGE(root, 0, v, pos),
                  t.block.SeekGE(root, 0, v, pos));
      }
    }
    // Trie nodes at depth 1 and 2, enumerated on the raw tier.
    std::vector<std::pair<Range, int>> nodes;
    for (uint32_t p0 = 0; p0 < root.end;) {
      const Range n0{p0, t.raw.BlockEnd(root, 0, p0)};
      nodes.emplace_back(n0, 1);
      for (uint32_t p1 = n0.begin; p1 < n0.end;) {
        const Range n1{p1, t.raw.BlockEnd(n0, 1, p1)};
        nodes.emplace_back(n1, 2);
        p1 = n1.end;
      }
      p0 = n0.end;
    }
    for (const auto& [node, level] : nodes) {
      // Only nodes that reach a block edge have anchored windows.
      if (node.begin / kCodecBlockSize ==
          (node.end - 1) / kCodecBlockSize) {
        continue;
      }
      const std::vector<uint32_t> anchors = anchors_in(node);
      std::vector<TermId> probes = {0, ~TermId{0}};
      for (const uint32_t a : anchors) {
        if (a == node.end) continue;
        const TermId key = t.raw.KeyAt(a, level);
        probes.insert(probes.end(), {key - 1, key, key + 1});
      }
      for (const uint32_t from : anchors) {
        for (const uint32_t end : anchors) {
          if (from > end) continue;
          const Range window{from, end};
          ++windows;
          for (const TermId v : probes) {
            ASSERT_EQ(t.raw.Narrow(window, level, v),
                      t.block.Narrow(window, level, v))
                << OrderName(order) << " level " << level << " [" << from
                << "," << end << ") v=" << v;
            ASSERT_EQ(t.raw.SeekGE(window, level, v, from),
                      t.block.SeekGE(window, level, v, from))
                << OrderName(order) << " level " << level << " [" << from
                << "," << end << ") v=" << v;
          }
          for (const uint32_t pos : anchors) {
            if (pos < from || pos >= end) continue;
            ASSERT_EQ(t.raw.BlockEnd(window, level, pos),
                      t.block.BlockEnd(window, level, pos))
                << OrderName(order) << " level " << level << " [" << from
                << "," << end << ") pos " << pos;
          }
        }
      }
    }
  }
  // The triple set must actually put trie nodes across block edges.
  EXPECT_GT(windows, 1000u);
}

// The serving-layer acceptance criterion: a budget-mode estimate is
// bit-identical between the raw and block tiers across pool sizes
// {1, 2, 8} and batch widths {1 (unbatched), default, 48}. The contract
// comes for free from BlockTierMatchesRawOnAllOps and the per-walk
// counter-derived RNG — this asserts it end-to-end through the engines
// and the slot merge.
TEST(BlockTier, BudgetEstimatesBitIdenticalToRawAcrossPools) {
  const Graph graph = testing::PaperExampleGraph();
  IndexSet raw(graph);
  IndexSet block(graph, IndexSetOptions{StorageTier::kBlock});

  auto q = ChainQuery::Create(
      {MakePattern(Slot::MakeVar(0), Slot::MakeConst(graph.rdf_type()),
                   Slot::MakeConst(graph.dict().Lookup("Person"))),
       MakePattern(Slot::MakeVar(0),
                   Slot::MakeConst(graph.dict().Lookup("birthPlace")),
                   Slot::MakeVar(1)),
       MakePattern(Slot::MakeVar(1), Slot::MakeConst(graph.rdf_type()),
                   Slot::MakeVar(2))},
      2, 1, /*distinct=*/true);
  ASSERT_TRUE(q.has_value());

  constexpr uint64_t kBudget = 1501;  // remainder path
  ChartJobOptions job = testing::BudgetJob(kBudget, 4, /*seed=*/23);
  const ParallelOlaResult reference = testing::Serve(raw, *q, job, 1);
  ASSERT_EQ(reference.estimates.walks(), kBudget);
  for (const uint32_t batch : {1u, 0u, 48u}) {
    for (int threads : {1, 2, 8}) {
      SCOPED_TRACE(::testing::Message()
                   << "batch=" << batch << " threads=" << threads);
      job.batch_walks = batch;
      testing::ExpectBitIdentical(
          testing::Serve(raw, *q, job, threads).estimates,
          reference.estimates);
      testing::ExpectBitIdentical(
          testing::Serve(block, *q, job, threads).estimates,
          reference.estimates);
    }
  }
}

}  // namespace
}  // namespace kgoa
