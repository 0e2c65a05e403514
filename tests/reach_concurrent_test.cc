// Tests for the shared concurrent reach-probability cache and the sharded
// flat table underneath it.
//
// The load-bearing guarantees exercised here:
//  * sharing ONE cache across workers never changes estimates — the memo
//    values are pure functions of (indexes, plan), so insert races are
//    benign and walk-budget runs stay bit-identical across thread counts;
//  * the flat Pr(a, b) memo agrees with an independent reference map
//    computed by exhaustive walk enumeration (differential test);
//  * the table survives concurrent hammering (run under TSan by tier1.sh)
//    and its atomic counters stay coherent.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/core/audit.h"
#include "src/core/explorer.h"
#include "src/core/reach.h"
#include "src/explore/cache.h"
#include "src/index/concurrent_flat_table.h"
#include "src/ola/parallel.h"
#include "src/ola/walk_plan.h"
#include "tests/test_util.h"

namespace kgoa {
namespace {

Slot V(VarId v) { return Slot::MakeVar(v); }
Slot C(TermId t) { return Slot::MakeConst(t); }

// ---------------------------------------------------------------------------
// ShardedFlatTable unit tests.

TEST(ShardedFlatTable, InsertFindAndStats) {
  ShardedFlatTable<uint64_t, double> table(~0ull, /*shard_bits=*/2);
  EXPECT_EQ(table.num_shards(), 4u);
  EXPECT_EQ(table.Find(7), nullptr);
  EXPECT_DOUBLE_EQ(table.Insert(7, 1.5), 1.5);
  const double* found = table.Find(7);
  ASSERT_NE(found, nullptr);
  EXPECT_DOUBLE_EQ(*found, 1.5);
  EXPECT_EQ(table.size(), 1u);

  const ShardedTableStats stats = table.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.memory_bytes, 0u);
}

TEST(ShardedFlatTable, DuplicateInsertReturnsCanonicalValue) {
  ShardedFlatTable<uint64_t, double> table(~0ull);
  EXPECT_DOUBLE_EQ(table.Insert(42, 2.0), 2.0);
  // A benign race re-inserting the same key keeps the resident value; the
  // duplicate is counted, not stored.
  EXPECT_DOUBLE_EQ(table.Insert(42, 2.0), 2.0);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.stats().duplicate_inserts, 1u);
}

TEST(ShardedFlatTable, GrowsPastInitialCapacityAndKeepsPointersValid) {
  ShardedFlatTable<uint64_t, double> table(~0ull, /*shard_bits=*/1,
                                           /*initial_shard_capacity=*/8);
  constexpr uint64_t kKeys = 20000;
  table.Insert(1, 0.5);
  // Find() pointers must survive growth: retired arrays are kept alive.
  const double* early = table.Find(1);
  ASSERT_NE(early, nullptr);
  for (uint64_t k = 0; k < kKeys; ++k) {
    if (k != 1) table.Insert(k, static_cast<double>(k) * 0.5);
  }
  EXPECT_EQ(table.size(), kKeys);
  EXPECT_DOUBLE_EQ(*early, 0.5);
  for (uint64_t k = 0; k < kKeys; ++k) {
    const double* v = table.Find(k);
    ASSERT_NE(v, nullptr) << "key " << k;
    EXPECT_DOUBLE_EQ(*v, static_cast<double>(k) * 0.5);
  }
  table.Clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.Find(3), nullptr);
  table.Insert(3, 9.0);
  EXPECT_EQ(table.size(), 1u);
}

TEST(ShardedFlatTable, FindOrComputeComputesOnce) {
  ShardedFlatTable<uint64_t, double> table(~0ull);
  int computes = 0;
  auto compute = [&] {
    ++computes;
    return 4.25;
  };
  EXPECT_DOUBLE_EQ(table.FindOrCompute(9, compute), 4.25);
  EXPECT_DOUBLE_EQ(table.FindOrCompute(9, compute), 4.25);
  EXPECT_EQ(computes, 1);
}

// Concurrent hammer: many threads racing to insert an overlapping key
// range, every value a pure function of its key — the shared-cache usage
// pattern. Primarily a TSan target (tier1.sh runs this binary under TSan);
// the asserts also pin the single-writer-per-slot semantics.
TEST(ShardedFlatTable, ConcurrentInsertsAgreeOnValues) {
  ShardedFlatTable<uint64_t, double> table(~0ull, /*shard_bits=*/3,
                                           /*initial_shard_capacity=*/16);
  constexpr uint64_t kKeys = 4096;
  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  // kgoa-lint: allow(raw-thread) test drives the cache from raw threads
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&table, &ready, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      // Each thread walks the full key range from a different offset, so
      // every key is contended by every thread.
      for (uint64_t i = 0; i < kKeys; ++i) {
        const uint64_t key = (i + static_cast<uint64_t>(t) * 517) % kKeys;
        const double got = table.FindOrCompute(
            key, [key] { return static_cast<double>(key) * 1.5 + 1.0; });
        if (got != static_cast<double>(key) * 1.5 + 1.0) {
          ADD_FAILURE() << "wrong value for key " << key;
          return;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(table.size(), kKeys);
  for (uint64_t key = 0; key < kKeys; ++key) {
    const double* v = table.Find(key);
    ASSERT_NE(v, nullptr);
    EXPECT_DOUBLE_EQ(*v, static_cast<double>(key) * 1.5 + 1.0);
  }
  const ShardedTableStats stats = table.stats();
  EXPECT_EQ(stats.entries, kKeys);
  // Every duplicate insert must have carried a bit-identical value (the
  // table contract-checks this); the counter just records how often the
  // race happened.
  EXPECT_GE(stats.hits + stats.misses, kKeys * kThreads);
}

// ---------------------------------------------------------------------------
// Reach-probability cache tests.

class ReachConcurrentTest : public ::testing::Test {
 protected:
  ReachConcurrentTest()
      : graph_(testing::PaperExampleGraph()), indexes_(graph_) {}

  TermId Id(const char* term) { return graph_.dict().Lookup(term); }

  ChainQuery Fig5(bool distinct) {
    auto q = ChainQuery::Create(
        {MakePattern(V(0), C(graph_.rdf_type()), C(Id("Person"))),
         MakePattern(V(0), C(Id("birthPlace")), V(1)),
         MakePattern(V(1), C(graph_.rdf_type()), V(2))},
        2, 1, distinct);
    EXPECT_TRUE(q.has_value());
    return *q;
  }

  Graph graph_;
  IndexSet indexes_;
};

using testing::BudgetJob;
using testing::ExpectBitIdentical;
using testing::Serve;

// Exhaustively enumerates the plan's walks, accumulating the probability
// mass of completed walks per (alpha, beta) pair into a reference
// unordered_map — an independent implementation of Pr(a, b) against which
// the flat memo is differentially tested.
std::unordered_map<uint64_t, double> ReferencePrMap(const IndexSet& indexes,
                                                    const WalkPlan& plan) {
  std::unordered_map<uint64_t, double> reference;
  std::vector<TermId> state(plan.num_slots(), kInvalidTerm);
  auto walk = [&](auto&& self, int step_idx, double probability) -> void {
    if (step_idx == plan.NumSteps()) {
      reference[PackPair(state[plan.alpha_slot()],
                         state[plan.beta_slot()])] += probability;
      return;
    }
    const WalkStep& step = plan.steps()[step_idx];
    const TermId bound =
        step.in_slot >= 0 ? state[step.in_slot] : kInvalidTerm;
    const Range range = step.access.Resolve(indexes, bound);
    if (range.empty()) return;  // dead end: walk rejected
    const double d = static_cast<double>(range.size());
    const TrieIndex& index = indexes.Index(step.access.order());
    for (uint32_t pos = range.begin; pos < range.end; ++pos) {
      const Triple& t = index.TripleAt(pos);
      if (!step.filter.empty() && !step.filter.Pass(indexes, t)) continue;
      for (const WalkStep::Record& record : step.records) {
        state[record.slot] = t[record.component];
      }
      self(self, step_idx + 1, probability / d);
    }
  };
  walk(walk, 0, 1.0);
  return reference;
}

// Differential test: flat-memo Pr(a, b) equals the reference map for every
// reachable pair, under every candidate walk order.
TEST_F(ReachConcurrentTest, FlatMemoMatchesReferenceMap) {
  const ChainQuery query = Fig5(true);
  for (const auto& order : CandidateWalkOrders(query.NumPatterns())) {
    const WalkPlan plan = WalkPlan::Compile(query, order);
    const auto reference = ReferencePrMap(indexes_, plan);
    ASSERT_FALSE(reference.empty());

    ReachProbability reach(indexes_, plan);
    for (const auto& [pair, probability] : reference) {
      const TermId a = static_cast<TermId>(pair >> 32);
      const TermId b = static_cast<TermId>(pair & 0xffffffffu);
      EXPECT_NEAR(reach.PrAB(a, b), probability, 1e-12)
          << "pair (" << a << ", " << b << "), order size " << order.size();
    }
    // A pair no completed walk produces has zero mass.
    EXPECT_NEAR(reach.PrAB(Id("athens"), Id("stagira")), 0.0, 1e-12);
    // Warm lookups hit the memo instead of recomputing.
    const uint64_t misses = reach.cache_misses();
    for (const auto& [pair, probability] : reference) {
      EXPECT_NEAR(reach.PrAB(static_cast<TermId>(pair >> 32),
                             static_cast<TermId>(pair & 0xffffffffu)),
                  probability, 1e-12);
    }
    EXPECT_EQ(reach.cache_misses(), misses);
  }
}

// One cache probed by many threads concurrently: every thread must read
// the same (reference) values, and the memo must end with exactly one
// entry per distinct pair. TSan target for the lock-free read path.
TEST_F(ReachConcurrentTest, SharedCacheConcurrentProbesAgree) {
  const ChainQuery query = Fig5(true);
  const WalkPlan plan = WalkPlan::Compile(query);
  const auto reference = ReferencePrMap(indexes_, plan);
  ASSERT_FALSE(reference.empty());
  std::vector<std::pair<uint64_t, double>> pairs(reference.begin(),
                                                 reference.end());

  ReachProbability reach(indexes_, plan);
  constexpr int kThreads = 8;
  constexpr int kRounds = 200;
  std::atomic<int> mismatches{0};
  // kgoa-lint: allow(raw-thread) test drives the cache from raw threads
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < pairs.size(); ++i) {
          // Different starting offsets maximize insert races on the
          // first round.
          const auto& [pair, expected] =
              pairs[(i + static_cast<std::size_t>(t)) % pairs.size()];
          const double got =
              reach.PrAB(static_cast<TermId>(pair >> 32),
                         static_cast<TermId>(pair & 0xffffffffu));
          if (std::abs(got - expected) > 1e-12) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(reach.pr_stats().entries, pairs.size());
  EXPECT_GT(reach.cache_hits(), 0u);
}

// The tentpole guarantee: with the run-shared cache (the default), a
// walk-budget run is bit-identical across thread counts — sharing memo
// state across workers must never leak into the estimates.
TEST_F(ReachConcurrentTest, SharedCacheBitIdenticalAcrossThreadCounts) {
  const ChainQuery query = Fig5(true);
  constexpr uint64_t kBudget = 4000;

  const ChartJobOptions job = BudgetJob(kBudget, 8, /*seed=*/1);
  ASSERT_TRUE(job.share_reach);
  GroupedEstimates reference;
  for (int threads : {1, 2, 8}) {
    const ParallelOlaResult run = Serve(indexes_, query, job, threads);
    EXPECT_EQ(run.estimates.walks(), kBudget);
    EXPECT_GT(run.counters.reach_entries, 0u);
    if (threads == 1) {
      reference = run.estimates;
    } else {
      ExpectBitIdentical(reference, run.estimates);
    }
  }
}

// Sharing the cache changes performance counters, never estimates: a run
// with private per-worker caches merges to the exact same result.
TEST_F(ReachConcurrentTest, SharedAndPrivateCachesProduceIdenticalRuns) {
  const ChainQuery query = Fig5(true);
  constexpr uint64_t kBudget = 3000;

  ChartJobOptions job = BudgetJob(kBudget, 4, /*seed=*/1);
  job.share_reach = true;
  const ParallelOlaResult shared = Serve(indexes_, query, job, 4);
  job.share_reach = false;
  const ParallelOlaResult isolated = Serve(indexes_, query, job, 4);
  ExpectBitIdentical(shared.estimates, isolated.estimates);
}

// A caller-supplied cache stays warm across jobs: a second identical job
// on the same core resolves every lookup from the memo (zero misses in
// its counter window) and reproduces the first job exactly.
TEST_F(ReachConcurrentTest, CallerCacheStaysWarmAcrossJobs) {
  const ChainQuery query = Fig5(true);
  constexpr uint64_t kBudget = 2000;

  const WalkPlan plan = WalkPlan::Compile(query);
  ReachProbability reach(indexes_, plan);
  ChartJobOptions job = BudgetJob(kBudget, 4, /*seed=*/1);
  job.shared_reach = &reach;
  ServingCore core(indexes_);

  const ParallelOlaResult cold = core.Submit(query, job).Await();
  const ParallelOlaResult warm = core.Submit(query, job).Await();
  ExpectBitIdentical(cold.estimates, warm.estimates);
  EXPECT_GT(cold.counters.reach_misses, 0u);
  EXPECT_EQ(warm.counters.reach_misses, 0u);
  EXPECT_GT(warm.counters.reach_hits, 0u);
  EXPECT_EQ(warm.counters.reach_entries, cold.counters.reach_entries);
}

// An externally owned cache (the exploration-session registry) slots into
// both the sequential engine and a serving-core job without changing
// results.
TEST_F(ReachConcurrentTest, ExternalRegistryCacheMatchesPrivateRuns) {
  const ChainQuery query = Fig5(true);
  constexpr uint64_t kBudget = 2000;

  ReachCacheRegistry registry;
  const GraphSnapshot snapshot = GraphSnapshot::Unowned(indexes_);
  ReachProbability* cache = registry.Acquire(query, {}, snapshot).reach;
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(registry.plan_misses(), 1u);
  // Re-acquiring the same (query, order) returns the same warm cache.
  EXPECT_EQ(registry.Acquire(query, {}, snapshot).reach, cache);
  EXPECT_EQ(registry.plan_hits(), 1u);
  EXPECT_EQ(registry.plans(), 1u);

  // Sequential engine, private vs registry cache.
  AuditJoin::Options aj;
  aj.seed = 7;
  aj.tipping_threshold = 2.0;
  AuditJoin private_engine(indexes_, query, aj);
  private_engine.RunWalks(kBudget);
  aj.shared_reach = cache;
  AuditJoin shared_engine(indexes_, query, aj);
  EXPECT_FALSE(shared_engine.owns_reach());
  shared_engine.RunWalks(kBudget);
  ExpectBitIdentical(private_engine.estimates(), shared_engine.estimates());

  // Serving-core job fed the registry cache.
  ChartJobOptions job = BudgetJob(kBudget, 4, /*seed=*/1);
  const ParallelOlaResult baseline = Serve(indexes_, query, job);
  job.shared_reach = cache;
  const ParallelOlaResult via_registry = Serve(indexes_, query, job);
  ExpectBitIdentical(baseline.estimates, via_registry.estimates);
  EXPECT_GT(registry.stats().entries, 0u);
}

// A different plan may not reuse the cache: the compatibility contract
// trips before any stale memo value can be served.
TEST_F(ReachConcurrentTest, IncompatiblePlanIsRejected) {
  const ChainQuery query = Fig5(true);
  ReachCacheRegistry registry;
  const GraphSnapshot snapshot = GraphSnapshot::Unowned(indexes_);
  ReachProbability* cache = registry.Acquire(query, {}, snapshot).reach;

  // Same query, different pattern order => different walk distribution.
  const std::vector<int> other_order{2, 1, 0};
  const WalkPlan other = WalkPlan::Compile(query, other_order);
  EXPECT_FALSE(cache->CompatibleWith(other));
  EXPECT_TRUE(cache->CompatibleWith(WalkPlan::Compile(query)));
  // The registry keys on the order, so the other order gets its own cache.
  EXPECT_NE(registry.Acquire(query, other_order, snapshot).reach, cache);
  EXPECT_EQ(registry.plans(), 2u);
}

// Explorer-level reuse: serving the same distinct chart twice touches one
// registry plan and reports the session totals through the metrics
// registry.
TEST_F(ReachConcurrentTest, ExplorerReusesSessionReachCache) {
  Explorer explorer(testing::PaperExampleGraph());
  const ChainQuery query = Fig5(true);

  (void)explorer.ApproximateChart(query, /*seconds=*/0.01, BarKind::kClass);
  const uint64_t hits_after_first =
      explorer.metrics().Counter("explorer.reach.hits");
  EXPECT_EQ(explorer.metrics().Counter("explorer.reach.plans"), 1u);
  EXPECT_GT(explorer.metrics().Counter("explorer.reach.entries"), 0u);
  EXPECT_GT(explorer.metrics().Counter("explorer.reach.misses"), 0u);

  (void)explorer.ApproximateChart(query, /*seconds=*/0.01, BarKind::kClass);
  EXPECT_EQ(explorer.metrics().Counter("explorer.reach.plans"), 1u);
  EXPECT_EQ(explorer.metrics().Counter("explorer.reach.plan_hits"), 1u);
  // The second serving probes the warm session cache: hits keep growing.
  // (Walk counts are wall-clock dependent here, so memo-miss equality is
  // asserted by the deterministic executor test above, not this one.)
  EXPECT_GT(explorer.metrics().Counter("explorer.reach.hits"),
            hits_after_first);
}

}  // namespace
}  // namespace kgoa
