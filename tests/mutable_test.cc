// Tests for the snapshot-epoch model (src/core/mutable_graph.h,
// src/index/snapshot.h — DESIGN.md §13).
//
// The keystone is version isolation under writes: a budget-mode run
// pinned on epoch N must be BIT-IDENTICAL to the same run against an
// immutable build of epoch N's triple set, no matter how many batches
// land or compactions publish while it runs. The matrix below checks
// that across thread counts and both storage tiers, with
// a concurrent writer and a racing compaction (this file runs under
// ThreadSanitizer in tier 1).
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/explorer.h"
#include "src/core/mutable_graph.h"
#include "src/eval/runner.h"
#include "src/explore/cache.h"
#include "src/index/snapshot.h"
#include "src/ola/parallel.h"
#include "src/rdf/graph.h"
#include "tests/index_differential.h"
#include "tests/test_util.h"

namespace kgoa {
namespace {

Slot V(VarId v) { return Slot::MakeVar(v); }
Slot C(TermId t) { return Slot::MakeConst(t); }

using testing::ExpectBitIdentical;

class MutableGraphTest : public ::testing::Test {
 protected:
  MutableGraphTest() : graph_(testing::PaperExampleGraph()) {}

  TermId Id(const char* term) const { return graph_.dict().Lookup(term); }

  ChainQuery Fig5(bool distinct = true) const {
    auto q = ChainQuery::Create(
        {MakePattern(V(0), C(graph_.rdf_type()), C(Id("Person"))),
         MakePattern(V(0), C(Id("birthPlace")), V(1)),
         MakePattern(V(1), C(graph_.rdf_type()), V(2))},
        2, 1, distinct);
    EXPECT_TRUE(q.has_value());
    return *q;
  }

  // A write batch touching the Fig5 query's footprint: a new person with
  // a birth place, plus a retraction of an existing birthPlace edge.
  std::vector<Triple> BatchInserts(MutableGraph& m) const {
    const TermId zeno = m.Intern("zeno");
    const TermId elea = m.Intern("elea");
    return {Triple{zeno, graph_.rdf_type(), Id("Person")},
            Triple{zeno, Id("birthPlace"), elea},
            Triple{elea, graph_.rdf_type(), Id("City")},
            Triple{elea, graph_.rdf_type(), Id("Place")}};
  }
  std::vector<Triple> BatchDeletes() const {
    return {Triple{Id("socrates"), Id("birthPlace"), Id("athens")}};
  }

  Graph graph_;  // template copied into each MutableGraph under test
};

// ---------------------------------------------------------------------------
// Canonical apply semantics
// ---------------------------------------------------------------------------

TEST_F(MutableGraphTest, ApplyCountsLiveSetFlipsAndSkipsNoOps) {
  MutableGraph m(testing::PaperExampleGraph());
  EXPECT_EQ(m.epoch(), 0u);
  const Triple existing{Id("plato"), Id("birthPlace"), Id("athens")};
  const TermId zeno = m.Intern("zeno");
  const Triple fresh{zeno, graph_.rdf_type(), Id("Person")};

  // Inserting a present triple and deleting an absent one are no-ops: no
  // flip, no epoch.
  EXPECT_EQ(m.Insert({existing}), 0u);
  EXPECT_EQ(m.Delete({fresh}), 0u);
  EXPECT_EQ(m.epoch(), 0u);

  // An effective insert flips once and publishes.
  EXPECT_EQ(m.Insert({fresh}), 1u);
  EXPECT_EQ(m.epoch(), 1u);
  EXPECT_TRUE(m.snapshot().Contains(fresh));

  // Deleting the pending add retracts it before any base ever holds it.
  EXPECT_EQ(m.Delete({fresh}), 1u);
  EXPECT_FALSE(m.snapshot().Contains(fresh));
  EXPECT_EQ(m.stats().overlay_adds, 0u);

  // Deleting a base triple, then re-inserting it, round-trips through the
  // tombstone (the overlay ends empty again).
  EXPECT_EQ(m.Delete({existing}), 1u);
  EXPECT_FALSE(m.snapshot().Contains(existing));
  EXPECT_EQ(m.Insert({existing}), 1u);
  EXPECT_TRUE(m.snapshot().Contains(existing));
  EXPECT_EQ(m.stats().overlay_adds, 0u);
  EXPECT_EQ(m.stats().overlay_dels, 0u);
}

TEST_F(MutableGraphTest, InsertsApplyBeforeDeletesWithinOneBatch) {
  MutableGraph m(testing::PaperExampleGraph());
  const TermId zeno = m.Intern("zeno");
  const Triple fresh{zeno, graph_.rdf_type(), Id("Person")};
  // The same triple in both lists of one batch ends up absent (insert
  // lands first, the delete retracts it): two flips.
  EXPECT_EQ(m.Apply({fresh}, {fresh}), 2u);
  EXPECT_FALSE(m.snapshot().Contains(fresh));
}

TEST_F(MutableGraphTest, SnapshotPinsItsEpochWhileWritesLand) {
  MutableGraph m(testing::PaperExampleGraph());
  const GraphSnapshot before = m.snapshot();
  const uint64_t triples_before = before.NumTriples();

  m.Insert(BatchInserts(m));
  m.Delete(BatchDeletes());

  // The pinned snapshot still answers for epoch 0.
  EXPECT_EQ(before.epoch(), 0u);
  EXPECT_EQ(before.NumTriples(), triples_before);
  EXPECT_TRUE(before.Contains(
      Triple{Id("socrates"), Id("birthPlace"), Id("athens")}));

  // A fresh snapshot sees the writes.
  const GraphSnapshot after = m.snapshot();
  EXPECT_EQ(after.epoch(), 2u);
  EXPECT_EQ(after.NumTriples(), triples_before + 4 - 1);
  EXPECT_FALSE(after.Contains(
      Triple{Id("socrates"), Id("birthPlace"), Id("athens")}));
}

// ---------------------------------------------------------------------------
// Compaction
// ---------------------------------------------------------------------------

TEST_F(MutableGraphTest, CompactionFoldMatchesIndependentMerge) {
  for (const StorageTier tier : {StorageTier::kRaw, StorageTier::kBlock}) {
    SCOPED_TRACE(tier == StorageTier::kRaw ? "raw" : "block");
    MutableGraph::Options options;
    options.index_options.tier = tier;
    MutableGraph m(testing::PaperExampleGraph(), options);
    const std::vector<Triple> inserts = BatchInserts(m);
    const std::vector<Triple> deletes = BatchDeletes();
    m.Apply(inserts, deletes);

    // Independent expectation: (base - deletes + adds), (s,p,o)-sorted
    // the way Graph stores its triple array.
    std::vector<Triple> expected = m.snapshot().graph().triples();
    expected.erase(std::remove_if(expected.begin(), expected.end(),
                                  [&](const Triple& t) {
                                    return std::find(deletes.begin(),
                                                     deletes.end(),
                                                     t) != deletes.end();
                                  }),
                   expected.end());
    expected.insert(expected.end(), inserts.begin(), inserts.end());
    std::sort(expected.begin(), expected.end(), SpoLess);

    const uint64_t epoch = m.Compact();
    EXPECT_EQ(epoch, 2u);  // one applied batch, then the compaction
    const GraphSnapshot compacted = m.snapshot();
    EXPECT_EQ(compacted.graph().triples(), expected);
    EXPECT_EQ(m.stats().overlay_adds, 0u);
    EXPECT_EQ(m.stats().overlay_dels, 0u);
    EXPECT_EQ(m.stats().compactions, 1u);

    // Compacting a clean graph is a no-op at the same epoch.
    EXPECT_EQ(m.Compact(), epoch);
    EXPECT_EQ(m.stats().compactions, 1u);
  }
}

// The overlay view and the compacted rebuild present the SAME triple set
// through rank-identical position spaces, so a budget run is bit-identical
// across the representation change — on both storage tiers.
TEST_F(MutableGraphTest, OverlayViewEstimatesMatchCompactedRebuild) {
  const ChainQuery query = Fig5();
  constexpr uint64_t kBudget = 2000;
  for (const StorageTier tier : {StorageTier::kRaw, StorageTier::kBlock}) {
    SCOPED_TRACE(tier == StorageTier::kRaw ? "raw" : "block");
    MutableGraph::Options options;
    options.index_options.tier = tier;
    MutableGraph m(testing::PaperExampleGraph(), options);
    m.Apply(BatchInserts(m), BatchDeletes());

    ChartJobOptions run = testing::BudgetJob(kBudget, 4);
    run.walk_order = DefaultAuditOrder(query);

    const GraphSnapshot overlay = m.snapshot();
    ASSERT_NE(overlay.overlay(), nullptr);
    const GroupedEstimates via_view =
        testing::Serve(overlay, query, run).estimates;

    m.Compact();
    const GraphSnapshot rebuilt = m.snapshot();
    ASSERT_EQ(rebuilt.overlay(), nullptr);
    const GroupedEstimates via_base =
        testing::Serve(rebuilt, query, run).estimates;

    ExpectBitIdentical(via_view, via_base);
  }
}

// Key by key, the overlay view's depth lookups, distinct counts and
// position reads equal a from-scratch rebuild's (tests/
// index_differential.h) on both storage tiers. The batches leave a fully
// tombstoned (s, p) block, (s, p) pairs only the adds hold, and triples on
// terms interned after the base build; the probes add absent keys.
TEST_F(MutableGraphTest, OverlayViewLookupsMatchRebuildPerKey) {
  for (const StorageTier tier : {StorageTier::kRaw, StorageTier::kBlock}) {
    SCOPED_TRACE(tier == StorageTier::kRaw ? "raw" : "block");
    Rng rng(23);
    testing::RandomGraphSpec spec;
    spec.num_property_triples = 120;
    MutableGraph::Options options;
    options.index_options.tier = tier;
    MutableGraph m(testing::RandomGraph(rng, spec), options);
    const std::vector<Triple> base = m.snapshot().graph().triples();
    std::vector<Triple> live = base;

    // Batch 1: retract the whole first (s, p) block, add pairs on a fresh
    // subject and a fresh property, and re-add one retracted triple.
    const Triple first = base.front();
    std::vector<Triple> deletes;
    for (const Triple& t : base) {
      if (t.s == first.s && t.p == first.p) deletes.push_back(t);
    }
    const TermId fresh_s = m.Intern("fresh_subject");
    const TermId fresh_p = m.Intern("fresh_property");
    std::vector<Triple> inserts = {Triple{fresh_s, first.p, first.o},
                                   Triple{first.s, fresh_p, first.o},
                                   Triple{base.back().o, fresh_p, fresh_s}};
    m.Apply(inserts, deletes);
    // Batch 2: random flips over the base vocabulary.
    std::vector<Triple> inserts2;
    std::vector<Triple> deletes2;
    for (int i = 0; i < 24; ++i) {
      const Triple& a = base[rng.Below(base.size())];
      const Triple& b = base[rng.Below(base.size())];
      inserts2.push_back(Triple{a.s, b.p, a.o});
      deletes2.push_back(base[rng.Below(base.size())]);
    }
    m.Apply(inserts2, deletes2);

    // Reference live set: inserts first, then deletes, batch by batch.
    for (const auto& [ins, del] :
         {std::pair{inserts, deletes}, std::pair{inserts2, deletes2}}) {
      live.insert(live.end(), ins.begin(), ins.end());
      std::sort(live.begin(), live.end(), SpoLess);
      live.erase(std::unique(live.begin(), live.end()), live.end());
      for (const Triple& t : del) {
        const auto it = std::lower_bound(live.begin(), live.end(), t, SpoLess);
        if (it != live.end() && *it == t) live.erase(it);
      }
    }

    const GraphSnapshot view = m.snapshot();
    ASSERT_NE(view.overlay(), nullptr);
    const Graph rebuilt = Graph::Rebase(view.graph(), live);
    IndexSetOptions rebuilt_options;
    rebuilt_options.tier = tier;
    const IndexSet rebuilt_indexes(rebuilt, rebuilt_options);

    std::vector<Triple> probes;
    for (const std::vector<Triple>& source :
         {base, live, inserts, inserts2, deletes, deletes2}) {
      for (const Triple& t : source) testing::AddProbesAround(t, &probes);
    }
    EXPECT_EQ(testing::IndexSetDiff(view.indexes(), rebuilt_indexes, probes),
              "");
  }
}

TEST_F(MutableGraphTest, WritesLandingDuringCompactionAreReplayed) {
  MutableGraph m(testing::PaperExampleGraph());
  // Pre-intern every term the writer thread uses (Intern is writer-locked
  // but concurrent Spell is not a safe race — src/rdf/dictionary.h).
  std::vector<Triple> batches;
  for (int i = 0; i < 64; ++i) {
    const TermId s = m.Intern("wave" + std::to_string(i));
    batches.push_back(Triple{s, graph_.rdf_type(), Id("Person")});
  }
  m.Insert({batches[0]});  // make the first compaction non-trivial

  // kgoa-lint: allow(raw-thread) writer racing the pool is the scenario under test
  std::thread writer([&]() {
    for (int i = 1; i < 64; ++i) {
      m.Insert({batches[static_cast<std::size_t>(i)]});
      if (i % 16 == 0) {
        m.Delete({batches[static_cast<std::size_t>(i)]});
      }
    }
  });
  // Race several folds against the writer: each fold's journal replay
  // must preserve every batch that landed mid-fold.
  for (int i = 0; i < 4; ++i) m.Compact();
  writer.join();
  m.Compact();

  const GraphSnapshot final_snapshot = m.snapshot();
  EXPECT_EQ(final_snapshot.overlay(), nullptr);
  for (int i = 0; i < 64; ++i) {
    const bool deleted = i > 0 && i % 16 == 0;
    EXPECT_EQ(final_snapshot.graph().Contains(
                  batches[static_cast<std::size_t>(i)]),
              !deleted)
        << "wave" << i;
  }
}

TEST_F(MutableGraphTest, CompactAsyncPublishesThroughTheServingPool) {
  MutableGraph m(testing::PaperExampleGraph());
  m.Insert(BatchInserts(m));
  {
    ServingCore::Options core_options;
    core_options.threads = 2;
    ServingCore core(m.snapshot(), core_options);
    MutableGraph::CompactTicket ticket = m.CompactAsync(core);
    ASSERT_TRUE(ticket.valid());
    EXPECT_EQ(ticket.Await(), 2u);
    EXPECT_TRUE(ticket.done());
    EXPECT_GT(core.stats().tasks_run, 0u);
  }
  EXPECT_EQ(m.stats().compactions, 1u);
  EXPECT_EQ(m.stats().overlay_adds, 0u);
}

// ---------------------------------------------------------------------------
// The acceptance matrix: pinned-epoch bit-identity under racing writes
// ---------------------------------------------------------------------------

// A budget job pinned on epoch N keeps producing epoch N's exact estimate
// while a writer thread lands batches and a compaction publishes N+1
// concurrently. The reference is an immutable build of the SAME triple
// set (a second MutableGraph compacted before serving — its base is the
// from-scratch build of the merged set, with identical TermIds because
// PaperExampleGraph interning is deterministic).
TEST_F(MutableGraphTest, PinnedEstimatesBitIdenticalAcrossThreadsAndTiers) {
  const ChainQuery query = Fig5();
  constexpr uint64_t kBudget = 1501;

  for (const StorageTier tier : {StorageTier::kRaw, StorageTier::kBlock}) {
    SCOPED_TRACE(tier == StorageTier::kRaw ? "raw" : "block");
    MutableGraph::Options options;
    options.index_options.tier = tier;

    // The reference: same batch, compacted to an immutable base BEFORE
    // serving (so its snapshot is a plain from-scratch IndexSet).
    MutableGraph reference_graph(testing::PaperExampleGraph(), options);
    reference_graph.Apply(BatchInserts(reference_graph), BatchDeletes());
    reference_graph.Compact();
    const GraphSnapshot reference_snapshot = reference_graph.snapshot();

    // The system under test: same batch pinned as an overlay view, with
    // a writer + compaction racing every serving below.
    MutableGraph m(testing::PaperExampleGraph(), options);
    m.Apply(BatchInserts(m), BatchDeletes());
    const GraphSnapshot pinned = m.snapshot();
    const uint64_t pinned_epoch = pinned.epoch();

    std::vector<Triple> noise;
    for (int i = 0; i < 32; ++i) {
      noise.push_back(Triple{m.Intern("noise" + std::to_string(i)),
                             graph_.rdf_type(), Id("Person")});
    }
    // kgoa-lint: allow(raw-thread) writer racing the pool is the scenario under test
    std::thread writer([&]() {
      for (const Triple& t : noise) {
        m.Insert({t});
      }
      m.Compact();
    });

    for (const int threads : {1, 2, 8}) {
      SCOPED_TRACE(::testing::Message() << "threads=" << threads);
      // Fixed logical split: the pool size does not change it.
      ChartJobOptions run = testing::BudgetJob(kBudget, 8);
      run.walk_order = DefaultAuditOrder(query);

      const GroupedEstimates expected =
          testing::Serve(reference_snapshot, query, run, threads).estimates;
      const GroupedEstimates pinned_run =
          testing::Serve(pinned, query, run, threads).estimates;
      ExpectBitIdentical(pinned_run, expected);
    }
    writer.join();

    // The pinned snapshot is still epoch N even though the writer
    // published far past it.
    EXPECT_EQ(pinned.epoch(), pinned_epoch);
    EXPECT_GT(m.epoch(), pinned_epoch);
  }
}

// ---------------------------------------------------------------------------
// Explorer facade + epoch-aware caches
// ---------------------------------------------------------------------------

TEST_F(MutableGraphTest, ExplorerWritePathPublishesEpochsAndEvictsCaches) {
  Explorer explorer(testing::PaperExampleGraph());
  const ChainQuery query = Fig5();
  EXPECT_EQ(explorer.epoch(), 0u);

  // Warm an epoch-0 reach cache.
  (void)explorer.ApproximateChart(query, /*seconds=*/0.005, BarKind::kClass);
  EXPECT_EQ(explorer.metrics().Counter("explorer.reach.plans"), 1u);

  // A write publishes epoch 1 and evicts the superseded plan cache.
  const TermId zeno = explorer.Intern("zeno");
  EXPECT_EQ(explorer.Insert({Triple{zeno, graph_.rdf_type(), Id("Person")}}),
            1u);
  EXPECT_EQ(explorer.epoch(), 1u);
  EXPECT_EQ(explorer.metrics().Counter("epoch.current"), 1u);
  EXPECT_EQ(explorer.metrics().Counter("epoch.overlay_adds"), 1u);
  EXPECT_EQ(explorer.metrics().Counter("explorer.reach.stale_evictions"),
            1u);

  // Serving after the write sees the new epoch (fresh plan cache) and the
  // inserted triple's contribution flows into the estimate path.
  (void)explorer.ApproximateChart(query, /*seconds=*/0.005, BarKind::kClass);
  EXPECT_EQ(explorer.metrics().Counter("explorer.reach.plans"), 1u);
  EXPECT_EQ(explorer.metrics().Counter("explorer.reach.plan_misses"), 2u);

  // Compaction folds the overlay and bumps the epoch again.
  const uint64_t compacted_epoch = explorer.Compact();
  EXPECT_EQ(compacted_epoch, 2u);
  EXPECT_EQ(explorer.metrics().Counter("epoch.compactions"), 1u);
  EXPECT_EQ(explorer.metrics().Counter("epoch.overlay_adds"), 0u);
  EXPECT_TRUE(explorer.graph().Contains(
      Triple{zeno, graph_.rdf_type(), Id("Person")}));

  // Exact evaluation answers for the current version.
  const GroupedResult exact = explorer.Evaluate(query);
  const GroupedResult brute =
      testing::BruteForce(explorer.graph(), query);
  EXPECT_EQ(exact.counts, brute.counts);
}

TEST_F(MutableGraphTest, ExplorerCompactAsyncTicketCompletes) {
  Explorer explorer(testing::PaperExampleGraph());
  const TermId zeno = explorer.Intern("zeno");
  explorer.Insert({Triple{zeno, graph_.rdf_type(), Id("Person")}});
  MutableGraph::CompactTicket ticket = explorer.CompactAsync();
  ASSERT_TRUE(ticket.valid());
  EXPECT_EQ(ticket.Await(), 2u);
  EXPECT_EQ(explorer.graph_stats().compactions, 1u);
}

TEST_F(MutableGraphTest, ChartCacheKeysOnEpoch) {
  ChartCache cache;
  const ChainQuery query = Fig5();
  GroupedResult epoch0;
  epoch0.counts[1] = 10;
  GroupedResult epoch1;
  epoch1.counts[1] = 11;
  cache.Insert(query, epoch0, /*epoch=*/0);
  cache.Insert(query, epoch1, /*epoch=*/1);
  ASSERT_NE(cache.Lookup(query, 0), nullptr);
  ASSERT_NE(cache.Lookup(query, 1), nullptr);
  EXPECT_EQ(cache.Lookup(query, 0)->counts.at(1), 10u);
  EXPECT_EQ(cache.Lookup(query, 1)->counts.at(1), 11u);
  EXPECT_EQ(cache.Lookup(query, 2), nullptr);
}

TEST_F(MutableGraphTest, ReachRegistryKeysOnEpochAndEvictsStale) {
  MutableGraph m(testing::PaperExampleGraph());
  const ChainQuery query = Fig5();
  ReachCacheRegistry registry;

  const GraphSnapshot epoch0 = m.snapshot();
  AcquiredReach first = registry.Acquire(query, {}, epoch0);
  ASSERT_NE(first.reach, nullptr);
  EXPECT_EQ(first.epoch, 0u);

  m.Insert(BatchInserts(m));
  const GraphSnapshot epoch1 = m.snapshot();
  AcquiredReach second = registry.Acquire(query, {}, epoch1);
  EXPECT_NE(second.reach, first.reach);  // distinct epoch, distinct memos
  EXPECT_EQ(registry.plans(), 2u);

  // Evicting for the current epoch drops only the superseded entry; the
  // keepalive keeps the handed-out cache (and its pinned version) valid.
  EXPECT_EQ(registry.EvictStale(epoch1.epoch()), 1u);
  EXPECT_EQ(registry.plans(), 1u);
  EXPECT_GE(first.reach->stats().entries, 0u);  // still safe to probe
}

// ---------------------------------------------------------------------------
// Contracts
// ---------------------------------------------------------------------------

using MutableGraphDeathTest = MutableGraphTest;

TEST_F(MutableGraphDeathTest, ReleasedSnapshotTripsTheContract) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  MutableGraph m(testing::PaperExampleGraph());
  GraphSnapshot snapshot = m.snapshot();
  snapshot.Release();
  EXPECT_FALSE(snapshot.valid());
  EXPECT_DEATH((void)snapshot.epoch(),
               "use of an invalid or released GraphSnapshot");
  EXPECT_DEATH((void)snapshot.indexes(),
               "use of an invalid or released GraphSnapshot");
}

TEST_F(MutableGraphTest, SnapshotCountersTrackPinnedVersions) {
  MutableGraph m(testing::PaperExampleGraph());
  EXPECT_EQ(m.stats().snapshots_pinned, 1u);  // the current version
  GraphSnapshot pinned = m.snapshot();
  m.Insert(BatchInserts(m));
  EXPECT_EQ(m.stats().snapshots_pinned, 2u);  // epoch 0 pinned + current
  pinned.Release();
  EXPECT_EQ(m.stats().snapshots_pinned, 1u);
  EXPECT_EQ(m.stats().batches_applied, 1u);
}

}  // namespace
}  // namespace kgoa
