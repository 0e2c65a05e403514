// Tests for the persistent serving core: cancellation latency, multi-job
// fairness, priority scheduling, session auto-cancel, and — the load-bearing
// guarantee — walk-budget bit-identity of a job run solo vs. run alongside
// competing jobs on pools of 1, 2, and 8 threads.
//
// Runs under TSan in tier-1 (scripts/tier1.sh): the scheduler state, the
// per-slot publish handoff, and the callback serialization are all exercised
// with real concurrency here.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/explorer.h"
#include "src/ola/parallel.h"
#include "src/util/sync.h"
#include "tests/test_util.h"

namespace kgoa {
namespace {

Slot V(VarId v) { return Slot::MakeVar(v); }
Slot C(TermId t) { return Slot::MakeConst(t); }

constexpr uint64_t kHugeBudget = 1ull << 40;  // never finishes on its own

class ServeTest : public ::testing::Test {
 protected:
  ServeTest() : graph_(testing::PaperExampleGraph()), indexes_(graph_) {}

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

using testing::ExpectBitIdentical;

// Cancellation is observed within ONE walk quantum. The job cancels itself
// from its own snapshot callback (which runs at a quantum boundary, right
// after that quantum's partial was published); on a 1-thread pool nothing
// else of the job can be in flight, so the final result must contain
// exactly the walks the cancelling snapshot saw — not one walk more.
TEST_F(ServeTest, CancelObservedWithinOneQuantumNoLeakedPartials) {
  ServingCore::Options core_options;
  core_options.threads = 1;
  core_options.quantum_walks = 128;
  ServingCore core(indexes_, core_options);

  struct Shared {
    Mutex mutex;
    ChartHandle handle KGOA_GUARDED_BY(mutex);
    std::atomic<bool> armed{false};
    std::atomic<bool> fired{false};
    std::atomic<uint64_t> walks_at_cancel{0};
  };
  auto shared = std::make_shared<Shared>();

  ChartJobOptions options;
  options.walk_budget = kHugeBudget;
  options.workers = 4;
  options.seed = 11;
  options.snapshot_period = 0.0;  // every quantum
  options.on_snapshot = [shared](const OlaSnapshot& snapshot) {
    if (snapshot.final_snapshot) return;
    if (!shared->armed.load(std::memory_order_acquire)) return;
    if (shared->fired.exchange(true)) return;
    shared->walks_at_cancel.store(snapshot.walks);
    ChartHandle handle;
    {
      MutexLock lock(shared->mutex);
      handle = shared->handle;
    }
    handle.Cancel();
  };

  ChartHandle handle = core.Submit(Fig5(true), options);
  {
    MutexLock lock(shared->mutex);
    shared->handle = handle;
  }
  shared->armed.store(true, std::memory_order_release);

  const ParallelOlaResult& result = handle.Await();
  EXPECT_EQ(handle.state(), ChartJobState::kCancelled);
  EXPECT_TRUE(handle.finished());
  const uint64_t at_cancel = shared->walks_at_cancel.load();
  EXPECT_GT(at_cancel, 0u);
  // No partials leak past the token: the retired result IS the partial at
  // the cancellation quantum, and nothing ran after it.
  EXPECT_EQ(result.estimates.walks(), at_cancel);
  EXPECT_LT(result.estimates.walks(), kHugeBudget);

  // The pool survives the cancellation without joining/respawning: the
  // same core immediately serves another job to completion.
  ChartJobOptions follow_up;
  follow_up.walk_budget = 1024;
  follow_up.workers = 2;
  const ParallelOlaResult& done = core.Submit(Fig5(true), follow_up).Await();
  EXPECT_EQ(done.estimates.walks(), 1024u);

  const ServeStats stats = core.stats();
  EXPECT_EQ(stats.threads, 1u);
  EXPECT_EQ(stats.jobs_submitted, 2u);
  EXPECT_EQ(stats.jobs_cancelled, 1u);
  EXPECT_EQ(stats.jobs_completed, 1u);
  EXPECT_EQ(stats.live_jobs, 0u);
  EXPECT_GE(stats.last_cancel_latency_seconds, 0.0);
  // Cancel is idempotent and a no-op on finished jobs.
  handle.Cancel();
  EXPECT_EQ(handle.state(), ChartJobState::kCancelled);
}

// Two equal-priority jobs share a 1-thread pool round-robin: when the
// finite job completes, the competing job must have advanced to within a
// comparable walk count — not been starved behind it.
TEST_F(ServeTest, TwoJobsShareThePoolFairly) {
  ServingCore::Options core_options;
  core_options.threads = 1;
  core_options.quantum_walks = 256;
  ServingCore core(indexes_, core_options);

  constexpr uint64_t kBudget = 40 * 256;

  ChartJobOptions finite;
  finite.walk_budget = kBudget;
  finite.workers = 1;
  finite.seed = 3;
  ChartJobOptions competing;
  competing.walk_budget = kHugeBudget;
  competing.workers = 1;
  competing.seed = 4;

  const ChainQuery query = Fig5(true);
  // The unbounded competitor is submitted FIRST: the finite job then
  // joins a busy pool, and every one of its quanta is interleaved with
  // the competitor's. (Submitting the competitor second would race its
  // construction — plan compilation, reach-cache setup — against the
  // finite job's entire 40-quantum run.)
  ChartHandle b = core.Submit(query, competing);
  ChartHandle a = core.Submit(query, finite);
  const ParallelOlaResult& done = a.Await();
  EXPECT_EQ(done.estimates.walks(), kBudget);

  b.Cancel();
  const ParallelOlaResult& partial = b.Await();
  // Strict alternation keeps b at least abreast of a (it started first);
  // allow half as slack for in-flight quanta around the probes.
  EXPECT_GE(partial.estimates.walks(), kBudget / 2);

  const ServeStats stats = core.stats();
  EXPECT_GE(stats.preemptions, 10u);  // the worker really time-sliced
  EXPECT_EQ(stats.jobs_completed, 1u);
  EXPECT_EQ(stats.jobs_cancelled, 1u);
}

// The acceptance criterion: a budgeted job's estimate is a pure function
// of (query, seed, budget, workers) — bit-identical across pool sizes
// {1, 2, 8} AND across running solo vs. alongside a competing job.
TEST_F(ServeTest, WalkBudgetBitIdenticalSoloVsConcurrentAcrossPools) {
  const ChainQuery query = Fig5(true);
  constexpr uint64_t kBudget = 2002;  // not divisible by 4: remainder path

  ChartJobOptions measured;
  measured.walk_budget = kBudget;
  measured.workers = 4;
  measured.seed = 17;
  measured.tipping_threshold = 2.0;  // stochastic mode

  // Reference: the job alone on a one-thread pool (equal to the
  // sequential union of the slot seeds, locked in by parallel_test).
  const ParallelOlaResult reference =
      testing::Serve(indexes_, query, measured, /*threads=*/1);
  ASSERT_EQ(reference.estimates.walks(), kBudget);

  for (int threads : {1, 2, 8}) {
    ServingCore::Options core_options;
    core_options.threads = threads;
    ServingCore core(indexes_, core_options);

    // Solo.
    const ParallelOlaResult solo = core.Submit(query, measured).Await();
    ExpectBitIdentical(reference.estimates, solo.estimates);

    // Alongside a competing job contending for every worker.
    ChartJobOptions competing;
    competing.walk_budget = kHugeBudget;
    competing.workers = threads;
    competing.seed = 99;
    ChartHandle competitor = core.Submit(query, competing);
    const ParallelOlaResult crowded = core.Submit(query, measured).Await();
    ExpectBitIdentical(reference.estimates, crowded.estimates);
    competitor.Cancel();
  }
}

// Batched walk execution under the serving core: a job's batch width is
// not part of the run identity — batch_walks 1 (unbatched), the default
// SoA width, and an oddball width all reproduce the same estimate across
// pool sizes, interleaved with quantum-level preemption.
TEST_F(ServeTest, WalkBudgetBitIdenticalAcrossBatchWidths) {
  const ChainQuery query = Fig5(true);
  constexpr uint64_t kBudget = 2002;
  GroupedEstimates reference;
  bool have_reference = false;
  for (const uint32_t batch : {1u, 0u, 48u}) {  // 0 = engine default
    for (int threads : {1, 2, 8}) {
      SCOPED_TRACE(::testing::Message()
                   << "batch=" << batch << " threads=" << threads);
      ServingCore::Options core_options;
      core_options.threads = threads;
      ServingCore core(indexes_, core_options);
      ChartJobOptions job;
      job.walk_budget = kBudget;
      job.workers = 4;
      job.seed = 17;
      job.tipping_threshold = 2.0;
      job.batch_walks = batch;
      const ParallelOlaResult run = core.Submit(query, job).Await();
      ASSERT_EQ(run.estimates.walks(), kBudget);
      if (!have_reference) {
        reference = run.estimates;
        have_reference = true;
      } else {
        ExpectBitIdentical(reference, run.estimates);
      }
    }
  }
}

// The slot-order fold of a finished job's SlotPartials() is exactly its
// Await() result: one partial per logical slot, merged in slot order.
// The random graph's non-integral contributions make the sum
// order-sensitive (the reversed fold differs), so the check cannot pass
// vacuously.
TEST(SlotPartialsTest, SlotOrderFoldEqualsAwait) {
  Rng rng(1);
  testing::RandomGraphSpec spec;
  spec.num_entities = 30;
  spec.num_property_triples = 150;
  spec.num_type_triples = 40;
  const Graph graph = testing::RandomGraph(rng, spec);
  const IndexSet indexes(graph);
  const auto query =
      testing::RandomChainQuery(rng, graph, 3, /*distinct=*/true);
  ASSERT_TRUE(query.has_value());

  ServingCore core(indexes);
  const ChartHandle handle =
      core.Submit(*query, testing::BudgetJob(2002, 4));
  const ParallelOlaResult awaited = handle.Await();
  const std::vector<GroupedEstimates> slots = handle.SlotPartials();
  ASSERT_EQ(slots.size(), 4u);
  GroupedEstimates folded;
  for (const GroupedEstimates& slot : slots) {
    EXPECT_GT(slot.walks(), 0u);
    folded.Merge(slot);
  }
  ExpectBitIdentical(folded, awaited.estimates);
  GroupedEstimates reversed;
  for (auto it = slots.rbegin(); it != slots.rend(); ++it) {
    reversed.Merge(*it);
  }
  EXPECT_NE(reversed.Estimates(), awaited.estimates.Estimates());
}

// A budget smaller than the slot count leaves the trailing slots with a
// zero share: they never run, their partials are empty, and the fold
// skips them exactly — folding only the slots that ran gives the same
// bits as folding all of them, and both equal Await().
TEST_F(ServeTest, TinyBudgetZeroShareSlotsFoldAsExactNoOps) {
  const ChainQuery query = Fig5(true);
  constexpr uint64_t kBudget = 3;  // 8 slots: only slots 0-2 run
  ServingCore core(indexes_);
  const ChartHandle handle =
      core.Submit(query, testing::BudgetJob(kBudget, 8));
  const ParallelOlaResult awaited = handle.Await();
  EXPECT_EQ(awaited.estimates.walks(), kBudget);
  const std::vector<GroupedEstimates> slots = handle.SlotPartials();
  ASSERT_EQ(slots.size(), 8u);
  GroupedEstimates all;
  GroupedEstimates ran;
  for (std::size_t s = 0; s < slots.size(); ++s) {
    if (s < kBudget) {
      EXPECT_EQ(slots[s].walks(), 1u) << "slot " << s;
      ran.Merge(slots[s]);
    } else {
      EXPECT_EQ(slots[s].walks(), 0u) << "slot " << s;
      EXPECT_TRUE(slots[s].Estimates().empty()) << "slot " << s;
    }
    all.Merge(slots[s]);
  }
  ExpectBitIdentical(all, ran);
  ExpectBitIdentical(all, awaited.estimates);
}

// Snapshot() on a finished job is exactly the Await() result (deadline
// mode, so the walk count is whatever the deadline allowed).
TEST_F(ServeTest, FinishedSnapshotEqualsAwait) {
  ServingCore core(indexes_);
  ChartJobOptions job;
  job.deadline_seconds = 0.05;
  job.workers = 4;
  const ChartHandle handle = core.Submit(Fig5(true), job);
  const ParallelOlaResult awaited = handle.Await();
  EXPECT_GT(awaited.estimates.walks(), 0u);
  EXPECT_EQ(awaited.workers, 4);
  EXPECT_EQ(handle.state(), ChartJobState::kDone);
  ExpectBitIdentical(handle.Snapshot().estimates, awaited.estimates);
}

// Explorer::ApproximateChartParallel serves the caller's ChartJobOptions
// as given: batch_walks = 1 runs unbatched (aj.batched_walks stays 0) and
// the default runs every walk through the batched path.
TEST_F(ServeTest, ApproximateChartParallelHonorsBatchWalks) {
  Explorer explorer(testing::PaperExampleGraph());
  const ChainQuery query = Fig5(true);
  ChartJobOptions job = testing::BudgetJob(2000, 2);
  job.batch_walks = 1;
  const Chart unbatched =
      explorer.ApproximateChartParallel(query, BarKind::kClass, job);
  EXPECT_FALSE(unbatched.bars.empty());
  EXPECT_EQ(explorer.metrics().Counter("aj.walks"), 2000u);
  EXPECT_EQ(explorer.metrics().Counter("aj.batched_walks"), 0u);

  explorer.ClearMetrics();
  job.batch_walks = 0;  // the default width
  explorer.ApproximateChartParallel(query, BarKind::kClass, job);
  EXPECT_EQ(explorer.metrics().Counter("aj.batched_walks"), 2000u);
}

// Priority: a high-priority job submitted while a low-priority job is
// running takes over the (single) worker until it completes; the
// low-priority job makes no progress beyond in-flight quanta.
TEST_F(ServeTest, HigherPriorityJobPreemptsLowerPriority) {
  ServingCore::Options core_options;
  core_options.threads = 1;
  core_options.quantum_walks = 256;
  ServingCore core(indexes_, core_options);

  const ChainQuery query = Fig5(true);
  ChartJobOptions low;
  low.walk_budget = kHugeBudget;
  low.workers = 1;
  low.priority = 0;
  low.seed = 5;
  ChartHandle background = core.Submit(query, low);

  ChartJobOptions high;
  high.walk_budget = 80 * 256;
  high.workers = 1;
  high.priority = 10;
  high.seed = 7;
  // Probe the low-priority job's progress from inside the high-priority
  // job's FINAL snapshot callback: it runs on the pool's only worker
  // thread before that worker can go back to the background job, so it
  // observes the background walk count exactly at high-job completion.
  // (Probing from this thread after Await() would also count everything
  // the freed worker runs during our wake-up latency.)
  std::atomic<uint64_t> low_walks_at_high_done{0};
  high.on_snapshot = [&](const OlaSnapshot& snapshot) {
    if (snapshot.final_snapshot) {
      low_walks_at_high_done.store(background.Snapshot().estimates.walks());
    }
  };
  const ChartHandle urgent_handle = core.Submit(query, high);
  // From here on the scheduler must prefer the high-priority job, so the
  // background job can at most finish quanta already in flight. (The
  // baseline is read only now: everything run while Submit itself built
  // the job — plan compilation, reach-cache setup — is real time on a
  // 1-thread pool and not the scheduler's doing.)
  const uint64_t before = background.Snapshot().estimates.walks();
  const ParallelOlaResult urgent = urgent_handle.Await();
  EXPECT_EQ(urgent.estimates.walks(), 80u * 256u);

  const uint64_t after = low_walks_at_high_done.load();
  // The low-priority job may finish quanta that were in flight around the
  // two probes, but must not have shared the pool while the high-priority
  // job was live (a round-robin scheduler would give it ~80 quanta here).
  EXPECT_LE(after, before + 16 * 256);
  background.Cancel();
  background.Await();
}

// Deadline mode through the core: the job retires on its own once the
// wall clock passes the deadline fixed at submit.
TEST_F(ServeTest, DeadlineJobRetiresOnItsOwn) {
  ServingCore::Options core_options;
  core_options.threads = 2;
  ServingCore core(indexes_, core_options);

  ChartJobOptions options;
  options.walk_budget = 0;
  options.deadline_seconds = 0.05;
  options.workers = 2;
  ChartHandle handle = core.Submit(Fig5(true), options);
  const ParallelOlaResult& result = handle.Await();
  EXPECT_EQ(handle.state(), ChartJobState::kDone);
  EXPECT_GE(result.elapsed_seconds, 0.05);
  EXPECT_GT(result.estimates.walks(), 0u);
  EXPECT_EQ(core.stats().jobs_completed, 1u);
}

// Engine-agnostic scheduling: a Ripple job runs through the same pool.
// Ripple's without-replacement samples don't merge across engines, so the
// scheduler clamps it to one logical worker; on this graph the budget
// exhausts the extents and the estimates become exact.
TEST_F(ServeTest, RippleJobClampsToOneWorkerAndConverges) {
  ServingCore::Options core_options;
  core_options.threads = 2;
  ServingCore core(indexes_, core_options);

  const ChainQuery query = Fig5(false);
  const GroupedResult exact = testing::BruteForce(graph_, query);

  ChartJobOptions options;
  options.engine = OlaEngineKind::kRipple;
  options.walk_budget = 20000;
  options.workers = 4;  // requested, but clamped
  const ParallelOlaResult& result = core.Submit(query, options).Await();
  EXPECT_EQ(result.workers, 1);
  for (const auto& [group, count] : exact.counts) {
    EXPECT_NEAR(result.estimates.Estimate(group),
                static_cast<double>(count),
                1e-6 * static_cast<double>(count) + 1e-6);
  }
}

// The Explorer/session wiring: SubmitChart returns a live handle wired to
// the explorer's warm reach caches, and navigating away from the current
// selection (ExpandAndSelect / GoBack) auto-cancels superseded jobs.
TEST_F(ServeTest, SessionAutoCancelsSupersededJobs) {
  Explorer explorer(testing::PaperExampleGraph());
  ExplorationSession session = explorer.NewSession();
  const TermId birth_place =
      explorer.graph().dict().Lookup("birthPlace");
  ASSERT_NE(birth_place, kInvalidTerm);

  ChartJobOptions options;
  options.walk_budget = kHugeBudget;
  options.workers = 2;

  ChartHandle first =
      explorer.SubmitChart(session.BuildQuery(ExpansionKind::kOutProperty),
                           options);
  session.TrackJob(first);
  EXPECT_EQ(session.tracked_jobs().size(), 1u);

  session.ExpandAndSelect(ExpansionKind::kOutProperty, birth_place);
  first.Await();  // cancellation is observed within one quantum
  EXPECT_EQ(first.state(), ChartJobState::kCancelled);
  EXPECT_EQ(session.jobs_auto_cancelled(), 1u);
  EXPECT_TRUE(session.tracked_jobs().empty());

  ChartHandle second =
      explorer.SubmitChart(session.BuildQuery(ExpansionKind::kObject),
                           options);
  session.TrackJob(second);
  ASSERT_TRUE(session.GoBack());
  second.Await();
  EXPECT_EQ(second.state(), ChartJobState::kCancelled);
  EXPECT_EQ(session.jobs_auto_cancelled(), 2u);

  // Finished jobs are not counted as auto-cancelled.
  ChartJobOptions small;
  small.walk_budget = 512;
  small.workers = 2;
  ChartHandle done =
      explorer.SubmitChart(session.BuildQuery(ExpansionKind::kOutProperty),
                           small);
  done.Await();
  session.TrackJob(done);
  session.ExpandAndSelect(ExpansionKind::kOutProperty, birth_place);
  EXPECT_EQ(session.jobs_auto_cancelled(), 2u);

  // The explorer's shared pool served everything without respawning.
  const ServeStats stats = explorer.serve_stats();
  EXPECT_EQ(stats.jobs_submitted, 3u);
  EXPECT_EQ(stats.jobs_cancelled, 2u);
  EXPECT_EQ(stats.jobs_completed, 1u);
  EXPECT_GT(explorer.metrics().Counter("serve.jobs_submitted"), 0u);
}

// Graceful finish: like Cancel, Finish stops a live job within one
// quantum — but the job retires as COMPLETED with its partials, so
// serving a chart to a quality target no longer shows up as a
// cancellation in the job-lifecycle stats.
TEST_F(ServeTest, FinishStopsJobQuicklyAndRetiresAsCompleted) {
  ServingCore::Options core_options;
  core_options.threads = 1;
  core_options.quantum_walks = 128;
  ServingCore core(indexes_, core_options);

  ChartJobOptions options;
  options.walk_budget = kHugeBudget;
  options.workers = 4;
  options.seed = 31;
  ChartHandle handle = core.Submit(Fig5(true), options);
  // Let it make some progress so the finish gathers real partials.
  while (handle.Snapshot().estimates.walks() == 0) {
  }
  handle.Finish();
  const ParallelOlaResult& result = handle.Await();
  EXPECT_TRUE(handle.finished());
  EXPECT_EQ(handle.state(), ChartJobState::kDone);
  EXPECT_GT(result.estimates.walks(), 0u);
  EXPECT_LT(result.estimates.walks(), kHugeBudget);

  const ServeStats stats = core.stats();
  EXPECT_EQ(stats.jobs_completed, 1u);
  EXPECT_EQ(stats.jobs_cancelled, 0u);
  // Idempotent, also after retirement.
  handle.Finish();
  EXPECT_EQ(handle.state(), ChartJobState::kDone);
}

// Top-K serving in deadline mode: with a heavily skewed group
// distribution and K = 1, the tracker's K-th lower bound separates the
// tail groups, walks bound to them are pruned, the displayed chart
// converges, and (with finish_on_displayed_convergence) the job retires
// itself as completed long before the deadline.
TEST(TopKServeTest, DeadlineModePrunesTailAndSelfFinishesOnConvergence) {
  GraphBuilder b;
  for (int i = 0; i < 400; ++i) {
    b.AddSpelled("s" + std::to_string(i), "p", "big");
  }
  for (int t = 0; t < 20; ++t) {
    for (int j = 0; j < 5; ++j) {
      b.AddSpelled("t" + std::to_string(t) + "_" + std::to_string(j), "p",
                   "tiny" + std::to_string(t));
    }
  }
  const Graph graph = std::move(b).Build();
  IndexSet indexes(graph);
  const TermId p = graph.dict().Lookup("p");
  // One pattern, grouped by object: "big" dwarfs every "tiny" group.
  auto q = ChainQuery::Create(
      {MakePattern(Slot::MakeVar(0), Slot::MakeConst(p), Slot::MakeVar(1))},
      1, 0, /*distinct=*/false);
  ASSERT_TRUE(q.has_value());

  ServingCore::Options core_options;
  core_options.threads = 2;
  core_options.quantum_walks = 256;
  ServingCore core(indexes, core_options);

  ChartJobOptions options;
  options.walk_budget = 0;
  options.deadline_seconds = 0.3;
  options.workers = 2;
  options.seed = 7;
  options.tipping_threshold = 2.0;  // stochastic mode: real CIs
  options.top_k.k = 1;
  options.top_k.ci_target = 0.005;
  options.top_k.min_walks = 256;

  // Run the full deadline (no self-finish) so walks keep flowing after
  // the first top-K refresh activates the filter.
  ChartHandle handle = core.Submit(*q, options);
  const ParallelOlaResult& result = handle.Await();
  EXPECT_EQ(handle.state(), ChartJobState::kDone);
  EXPECT_TRUE(result.displayed_converged);
  // Walks landing on separated tail groups were pruned...
  EXPECT_GT(result.counters.pruned_walks, 0u);
  // ...and the displayed group's estimate is still in the right place
  // (pruned walks decay only the pruned groups).
  const TermId big = graph.dict().Lookup("big");
  EXPECT_NEAR(result.estimates.Estimate(big), 400.0, 80.0);
  // Every pruned tail group decayed below the K-th lower bound.
  for (const auto& [group, estimate] : result.estimates.Estimates()) {
    if (group == big) continue;
    EXPECT_LT(estimate + result.estimates.CiHalfWidth(group),
              result.estimates.Estimate(big));
  }

  // The converged flag survives into post-completion snapshots.
  EXPECT_TRUE(handle.Snapshot().displayed_converged);

  // Self-finish: the same job with finish_on_displayed_convergence stops
  // itself far before a long deadline and retires as COMPLETED.
  options.deadline_seconds = 30.0;
  options.finish_on_displayed_convergence = true;
  ChartHandle self = core.Submit(*q, options);
  const ParallelOlaResult& early = self.Await();
  EXPECT_EQ(self.state(), ChartJobState::kDone);
  EXPECT_TRUE(early.displayed_converged);
  EXPECT_LT(early.elapsed_seconds, 5.0);
  EXPECT_EQ(core.stats().jobs_completed, 2u);
  EXPECT_EQ(core.stats().jobs_cancelled, 0u);
}

// Budget mode keeps the bit-identity contract: enabling top-K tracking
// must not change the estimate (pruning is forced off — observe-only),
// and no walks are ever counted as pruned.
TEST_F(ServeTest, BudgetModeTopKIsObserveOnly) {
  const ChainQuery query = Fig5(true);
  constexpr uint64_t kBudget = 2002;
  ServingCore::Options core_options;
  core_options.threads = 2;
  ServingCore core(indexes_, core_options);

  ChartJobOptions plain;
  plain.walk_budget = kBudget;
  plain.workers = 4;
  plain.seed = 17;
  plain.tipping_threshold = 2.0;
  ChartJobOptions tracked = plain;
  tracked.top_k.k = 2;
  tracked.top_k.min_walks = 64;

  const ParallelOlaResult without = core.Submit(query, plain).Await();
  const ParallelOlaResult with = core.Submit(query, tracked).Await();
  ExpectBitIdentical(without.estimates, with.estimates);
  EXPECT_EQ(with.counters.pruned_walks, 0u);
}

// Destroying a core with live jobs cancels them and wakes Await-ers with
// well-formed partial results (handles outlive the core).
TEST_F(ServeTest, CoreDestructionCancelsLiveJobs) {
  ChartHandle orphan;
  {
    ServingCore core(indexes_);
    ChartJobOptions options;
    options.walk_budget = kHugeBudget;
    options.workers = 2;
    orphan = core.Submit(Fig5(true), options);
  }
  EXPECT_TRUE(orphan.finished());
  EXPECT_EQ(orphan.state(), ChartJobState::kCancelled);
  const ParallelOlaResult& result = orphan.Await();
  EXPECT_LT(result.estimates.walks(), kHugeBudget);
  orphan.Snapshot();  // still answerable after the core is gone
}

TEST(ChartJobStateNames, AreStable) {
  EXPECT_STREQ(ChartJobStateName(ChartJobState::kQueued), "queued");
  EXPECT_STREQ(ChartJobStateName(ChartJobState::kRunning), "running");
  EXPECT_STREQ(ChartJobStateName(ChartJobState::kDone), "done");
  EXPECT_STREQ(ChartJobStateName(ChartJobState::kCancelled), "cancelled");
}

}  // namespace
}  // namespace kgoa
