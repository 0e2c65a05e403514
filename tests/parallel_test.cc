// Tests for estimator merging and parallel charts on the serving core.
//
// The convergence tests use the deterministic walk-budget mode rather than
// wall-clock deadlines, so they are reproducible and independent of machine
// load — and they double as the tier-1 check of the core's guarantee: a
// budgeted job is a pure function of (query, seed, budget, workers),
// bit-identical across pool sizes and equal to a sequential run over the
// union of the per-slot seeds.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/core/audit.h"
#include "src/ola/parallel.h"
#include "src/ola/wander.h"
#include "src/util/simd.h"
#include "tests/test_util.h"

namespace kgoa {
namespace {

Slot V(VarId v) { return Slot::MakeVar(v); }
Slot C(TermId t) { return Slot::MakeConst(t); }

TEST(EstimatorMerge, EqualsSequentialAccumulation) {
  GroupedEstimates a, b, whole;
  const double values_a[] = {3, 0, 7};
  const double values_b[] = {5, 11};
  for (double v : values_a) {
    if (v > 0) {
      a.AddContribution(1, v);
      whole.AddContribution(1, v);
    }
    a.EndWalk(v == 0);
    whole.EndWalk(v == 0);
  }
  for (double v : values_b) {
    b.AddContribution(1, v);
    whole.AddContribution(1, v);
    b.EndWalk(false);
    whole.EndWalk(false);
  }
  GroupedEstimates merged;
  merged.Merge(a);
  merged.Merge(b);
  EXPECT_EQ(merged.walks(), whole.walks());
  EXPECT_EQ(merged.rejected_walks(), whole.rejected_walks());
  EXPECT_DOUBLE_EQ(merged.Estimate(1), whole.Estimate(1));
  EXPECT_DOUBLE_EQ(merged.CiHalfWidth(1), whole.CiHalfWidth(1));
}

// Regression for the CI half-width against the closed form, with rejected
// walks counted as zero contributions in the denominator: contributions
// {10, 0 (rejected), 20, 0 (rejected)} give mean 30/4 = 7.5,
// sum of squares 500, SAMPLE variance (500 - 4 * 7.5^2) / (4 - 1)
// = 275/3, and half-width z * sqrt(variance / n). (The population form —
// dividing by n — was a bug: it made the interval systematically too
// tight at low walk counts.)
TEST(EstimatorCi, ClosedFormIncludesRejectedWalks) {
  GroupedEstimates est;
  est.AddContribution(1, 10.0);
  est.EndWalk(false);
  est.EndWalk(true);  // rejected: zero contribution, still a walk
  est.AddContribution(1, 20.0);
  est.EndWalk(false);
  est.EndWalk(true);

  EXPECT_EQ(est.walks(), 4u);
  EXPECT_EQ(est.rejected_walks(), 2u);
  EXPECT_DOUBLE_EQ(est.RejectionRate(), 0.5);
  EXPECT_DOUBLE_EQ(est.Estimate(1), 7.5);

  const double z = 1.959963984540054;
  const double variance = (500.0 - 4.0 * 7.5 * 7.5) / 3.0;  // 275/3
  EXPECT_DOUBLE_EQ(est.CiHalfWidth(1), z * std::sqrt(variance / 4.0));
  // Custom z values scale linearly.
  EXPECT_DOUBLE_EQ(est.CiHalfWidth(1, 1.0), std::sqrt(variance / 4.0));
  // Unknown group and tiny samples report no interval.
  EXPECT_DOUBLE_EQ(est.CiHalfWidth(99), 0.0);
  GroupedEstimates one_walk;
  one_walk.AddContribution(1, 5.0);
  one_walk.EndWalk(false);
  EXPECT_DOUBLE_EQ(one_walk.CiHalfWidth(1), 0.0);
}

// A second hand-computed sequence without rejections: {2, 4, 9} gives
// mean 5, sum of squares 101, sample variance (101 - 3 * 25) / 2 = 13,
// half-width z * sqrt(13 / 3) — and the sample variance must agree with
// the textbook sum-of-squared-deviations form.
TEST(EstimatorCi, ClosedFormSampleVariance) {
  GroupedEstimates est;
  for (double v : {2.0, 4.0, 9.0}) {
    est.AddContribution(7, v);
    est.EndWalk(false);
  }
  EXPECT_DOUBLE_EQ(est.Estimate(7), 5.0);
  const double deviations =
      (2.0 - 5.0) * (2.0 - 5.0) + (4.0 - 5.0) * (4.0 - 5.0) +
      (9.0 - 5.0) * (9.0 - 5.0);  // 26
  const double variance = deviations / 2.0;  // 13
  EXPECT_DOUBLE_EQ(est.CiHalfWidth(7, 1.0), std::sqrt(variance / 3.0));
  EXPECT_DOUBLE_EQ(est.CiHalfWidth(7),
                   1.959963984540054 * std::sqrt(variance / 3.0));
}

class ParallelTest : public ::testing::Test {
 protected:
  ParallelTest() : graph_(testing::PaperExampleGraph()), indexes_(graph_) {}

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

// The satellite check: a 4-worker budgeted parallel run merges to exactly
// the same estimate as one sequential pass over the union of the per-worker
// seeds — GroupedEstimates::Merge is exact, not approximate.
TEST_F(ParallelTest, WalkBudgetEqualsSequentialUnionOfSeeds) {
  const ChainQuery query = Fig5(true);
  constexpr uint64_t kBudget = 2002;  // not divisible by 4: remainder path

  const ChartJobOptions job = BudgetJob(kBudget, 4);
  const ParallelOlaResult parallel = Serve(indexes_, query, job);
  EXPECT_EQ(parallel.workers, 4);
  EXPECT_EQ(parallel.estimates.walks(), kBudget);

  // Sequential reference: the same logical workers, run one after another
  // on this thread and merged in the same order.
  GroupedEstimates sequential;
  for (uint64_t w = 0; w < 4; ++w) {
    AuditJoin::Options aj;
    aj.seed = job.seed + w;
    aj.tipping_threshold = job.tipping_threshold;
    AuditJoin engine(indexes_, query, aj);
    engine.RunWalks(kBudget / 4 + (w < kBudget % 4 ? 1 : 0));
    sequential.Merge(engine.estimates());
  }
  ExpectBitIdentical(parallel.estimates, sequential);
}

TEST_F(ParallelTest, WalkBudgetBitIdenticalAcrossThreadCounts) {
  const ChainQuery query = Fig5(true);
  constexpr uint64_t kBudget = 3000;

  GroupedEstimates reference;
  for (int threads : {1, 2, 4}) {
    const ParallelOlaResult run =
        Serve(indexes_, query, BudgetJob(kBudget, 4), threads);
    EXPECT_EQ(run.estimates.walks(), kBudget);
    if (threads == 1) {
      reference = run.estimates;
    } else {
      ExpectBitIdentical(reference, run.estimates);
    }
  }
}

// The batching contract: walk RNG is counter-derived per walk index, so
// the SoA batched path (any width) produces bit-identical estimates to
// the unbatched path, at every thread count, for both walk-sampling
// engines. Widths bracket the default (32) and include a non-divisor of
// the per-slot budget (the final short batch).
TEST_F(ParallelTest, WalkBudgetBitIdenticalAcrossBatchWidths) {
  constexpr uint64_t kBudget = 3000;
  for (const OlaEngineKind engine :
       {OlaEngineKind::kAudit, OlaEngineKind::kWander}) {
    const ChainQuery query = Fig5(engine == OlaEngineKind::kAudit);
    ChartJobOptions job = BudgetJob(kBudget, 4);
    job.engine = engine;
    GroupedEstimates reference;
    bool have_reference = false;
    for (const uint32_t batch : {1u, 2u, 32u, 101u}) {
      for (const int threads : {1, 2, 8}) {
        SCOPED_TRACE(::testing::Message()
                     << OlaEngineName(engine) << " batch=" << batch
                     << " threads=" << threads);
        job.batch_walks = batch;
        const ParallelOlaResult run = Serve(indexes_, query, job, threads);
        EXPECT_EQ(run.estimates.walks(), kBudget);
        if (batch > 1) {
          EXPECT_EQ(run.counters.batched_walks, kBudget);
        } else {
          EXPECT_EQ(run.counters.batched_walks, 0u);
        }
        if (!have_reference) {
          reference = run.estimates;
          have_reference = true;
        } else {
          ExpectBitIdentical(reference, run.estimates);
        }
      }
    }
  }
}

// The kernel layer is exact, not approximate: forcing the scalar dispatch
// level must reproduce the vectorized run bit for bit (decode, seek and
// probe kernels all sit under the walk inner loop).
TEST_F(ParallelTest, WalkBudgetBitIdenticalAcrossSimdLevels) {
  const ChainQuery query = Fig5(true);
  constexpr uint64_t kBudget = 2002;
  const SimdLevel entry_level = CurrentSimdLevel();
  GroupedEstimates reference;
  bool have_reference = false;
  for (const SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kSse42, SimdLevel::kAvx2}) {
    SetSimdLevel(level);  // clamped to what the CPU supports
    const ParallelOlaResult run =
        Serve(indexes_, query, BudgetJob(kBudget, 4));
    if (!have_reference) {
      reference = run.estimates;
      have_reference = true;
    } else {
      ExpectBitIdentical(reference, run.estimates);
    }
  }
  SetSimdLevel(entry_level);
}

TEST_F(ParallelTest, AuditWorkersConvergeMerged) {
  const ChainQuery query = Fig5(true);
  const GroupedResult exact = testing::BruteForce(graph_, query);

  const ParallelOlaResult run =
      Serve(indexes_, query, BudgetJob(30000, 3, /*seed=*/1), /*threads=*/3);

  EXPECT_EQ(run.estimates.walks(), 30000u);
  for (const auto& [group, count] : exact.counts) {
    EXPECT_NEAR(run.estimates.Estimate(group), static_cast<double>(count),
                0.1 * static_cast<double>(count) + 0.1);
  }
}

TEST_F(ParallelTest, WanderWorkersConvergeOnNonDistinct) {
  const ChainQuery query = Fig5(false);
  const GroupedResult exact = testing::BruteForce(graph_, query);

  ChartJobOptions job = BudgetJob(30000, 2, /*seed=*/1);
  job.engine = OlaEngineKind::kWander;
  const ParallelOlaResult run = Serve(indexes_, query, job);
  for (const auto& [group, count] : exact.counts) {
    EXPECT_NEAR(run.estimates.Estimate(group), static_cast<double>(count),
                0.1 * static_cast<double>(count) + 0.1);
  }
}

// Snapshot publishing: the callback observes monotonically growing partial
// merges while workers run, and one final snapshot with the exact budget.
TEST_F(ParallelTest, WalkBudgetSnapshotsPublishPartials) {
  const ChainQuery query = Fig5(true);
  constexpr uint64_t kBudget = 20000;

  ServingCore::Options core_options;
  core_options.threads = 4;
  core_options.quantum_walks = 64;
  ServingCore core(indexes_, core_options);

  int snapshots = 0;
  int finals = 0;
  uint64_t last_walks = 0;
  ChartJobOptions job = BudgetJob(kBudget, 4, /*seed=*/1);
  job.snapshot_period = 1e-4;  // as fast as the loop allows
  job.on_snapshot = [&](const OlaSnapshot& snapshot) {
    ++snapshots;
    ASSERT_NE(snapshot.estimates, nullptr);
    EXPECT_GE(snapshot.walks, last_walks);
    EXPECT_LE(snapshot.walks, kBudget);
    EXPECT_EQ(snapshot.walks, snapshot.estimates->walks());
    last_walks = snapshot.walks;
    if (snapshot.final_snapshot) {
      ++finals;
      EXPECT_EQ(snapshot.walks, kBudget);
    }
  };
  const ParallelOlaResult run = core.Submit(query, job).Await();
  EXPECT_GE(snapshots, 1);
  EXPECT_EQ(finals, 1);
  EXPECT_EQ(run.estimates.walks(), kBudget);
}

TEST_F(ParallelTest, DeadlineModeRunsUntilTheDeadline) {
  const ChainQuery query = Fig5(true);
  int finals = 0;
  ChartJobOptions job;
  job.deadline_seconds = 0.05;
  job.workers = 2;
  job.on_snapshot = [&](const OlaSnapshot& snapshot) {
    if (snapshot.final_snapshot) ++finals;
  };
  const ParallelOlaResult run = Serve(indexes_, query, job);
  EXPECT_GT(run.estimates.walks(), 0u);
  EXPECT_EQ(finals, 1);
  EXPECT_GE(run.elapsed_seconds, 0.05);
}

}  // namespace
}  // namespace kgoa
