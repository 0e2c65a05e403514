#include "src/core/explorer.h"

#include <algorithm>

#include "src/eval/runner.h"
#include "src/join/ctj.h"
#include "src/util/stopwatch.h"

namespace kgoa {

Explorer::Explorer(Graph graph)
    : Explorer(std::move(graph), MutableGraph::Options()) {}

Explorer::Explorer(Graph graph, MutableGraph::Options options)
    : mutable_graph_(std::move(graph), options) {}

uint64_t Explorer::Apply(const std::vector<Triple>& inserts,
                         const std::vector<Triple>& deletes) {
  const uint64_t changes = mutable_graph_.Apply(inserts, deletes);
  if (changes > 0) AfterPublish();
  return changes;
}

uint64_t Explorer::Compact() {
  const uint64_t epoch = mutable_graph_.Compact();
  AfterPublish();
  return epoch;
}

MutableGraph::CompactTicket Explorer::CompactAsync() {
  // Stale-cache eviction for a background fold happens on the NEXT write
  // (or synchronous Compact); superseded entries only waste memory.
  return mutable_graph_.CompactAsync(Core());
}

void Explorer::AfterPublish() {
  reach_caches_.EvictStale(mutable_graph_.epoch());
  ExportMetrics(mutable_graph_, "epoch.", &metrics_);
  ExportReachMetrics();
}

GroupedResult Explorer::Evaluate(const ChainQuery& query) const {
  // Pinned for the call: an exact evaluation racing a write still reads
  // one coherent version.
  const GraphSnapshot snapshot = mutable_graph_.snapshot();
  return CtjEngine(snapshot.indexes()).Evaluate(query);
}

namespace {

void SortBars(Chart& chart) {
  std::sort(chart.bars.begin(), chart.bars.end(),
            [](const Bar& a, const Bar& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.category < b.category;
            });
}

// Metric prefix per engine kind ("aj.walks", "wj.walks", "rj.walks").
const char* EngineMetricPrefix(OlaEngineKind engine) {
  switch (engine) {
    case OlaEngineKind::kAudit:
      return "aj.";
    case OlaEngineKind::kWander:
      return "wj.";
    case OlaEngineKind::kRipple:
      return "rj.";
  }
  return "ola.";
}

}  // namespace

Chart Explorer::ChartFromEstimates(const GroupedEstimates& estimates,
                                   BarKind kind) {
  Chart chart;
  chart.kind = kind;
  for (const auto& [group, estimate] : estimates.Estimates()) {
    if (estimate <= 0) continue;
    chart.bars.push_back(
        Bar{group, estimate, estimates.CiHalfWidth(group)});
  }
  SortBars(chart);
  return chart;
}

Chart Explorer::EvaluateChart(const ChainQuery& query, BarKind kind) const {
  Chart chart;
  chart.kind = kind;
  for (const auto& [group, count] : Evaluate(query).counts) {
    chart.bars.push_back(Bar{group, static_cast<double>(count), 0.0});
  }
  SortBars(chart);
  return chart;
}

Chart Explorer::ApproximateChart(const ChainQuery& query, double seconds,
                                 BarKind kind,
                                 AuditJoin::Options options) const {
  if (options.walk_order.empty()) {
    options.walk_order = DefaultAuditOrder(query);
  }
  // Pinned for the call: walks and audits read one coherent version even
  // while writes land.
  const GraphSnapshot snapshot = mutable_graph_.snapshot();
  // Serve distinct charts against the session's warm reach cache so a
  // revisited (epoch, query, walk order) never re-audits a pair (the
  // memos are exact across servings — src/explore/cache.h). The acquired
  // keepalive outlives the AuditJoin below.
  AcquiredReach acquired;
  if (query.distinct() && options.shared_reach == nullptr) {
    acquired = reach_caches_.Acquire(query, options.walk_order, snapshot);
    options.shared_reach = acquired.reach;
  }
  Stopwatch clock;
  AuditJoin audit(snapshot.indexes(), query, options);
  do {
    audit.RunWalks(64);
  } while (clock.ElapsedSeconds() < seconds);
  ExportMetrics(audit, "aj.", &metrics_);
  ExportReachMetrics();
  metrics_.Add("explorer.charts", 1);
  metrics_.SetGauge("explorer.last_chart_seconds", clock.ElapsedSeconds());
  return ChartFromEstimates(audit.estimates(), kind);
}

Chart Explorer::ApproximateChartParallel(const ChainQuery& query,
                                         BarKind kind,
                                         ChartJobOptions options) const {
  const OlaEngineKind engine = options.engine;
  const ParallelOlaResult run = SubmitChart(query, std::move(options)).Await();

  const char* prefix = EngineMetricPrefix(engine);
  ExportMetrics(run.counters, prefix, &metrics_);
  if (engine == OlaEngineKind::kAudit) ExportReachMetrics();
  metrics_.Add(std::string(prefix) + "walks", run.estimates.walks());
  metrics_.Add(std::string(prefix) + "rejected_walks",
               run.estimates.rejected_walks());
  metrics_.Add("explorer.charts", 1);
  metrics_.SetGauge("explorer.last_chart_seconds", run.elapsed_seconds);
  metrics_.SetGauge("explorer.last_chart_walks_per_second",
                    run.elapsed_seconds > 0
                        ? static_cast<double>(run.estimates.walks()) /
                              run.elapsed_seconds
                        : 0.0);
  ExportMetrics(serve_stats(), "serve.", &metrics_);
  return ChartFromEstimates(run.estimates, kind);
}

ServingCore& Explorer::Core() const {
  if (serving_core_ == nullptr) {
    serving_core_ = std::make_unique<ServingCore>(mutable_graph_.snapshot(),
                                                  serving_options_);
  }
  return *serving_core_;
}

ChartHandle Explorer::SubmitChart(const ChainQuery& query,
                                  ChartJobOptions options) const {
  // Pin the CURRENT version at submit (not the core's construction-time
  // default, which a long-lived explorer outgrows write by write).
  if (!options.snapshot.valid()) options.snapshot = mutable_graph_.snapshot();
  if (options.engine == OlaEngineKind::kAudit) {
    if (options.walk_order.empty()) {
      options.walk_order = DefaultAuditOrder(query);
    }
    // Serve distinct jobs against the explorer's warm reach caches so
    // concurrent and repeated jobs on the same (epoch, query, walk order)
    // share audits instead of redoing them per job.
    if (query.distinct() && options.shared_reach == nullptr &&
        options.share_reach) {
      AcquiredReach acquired = reach_caches_.Acquire(query, options.walk_order,
                                                     options.snapshot);
      options.share_reach = false;
      options.shared_reach = acquired.reach;
      options.reach_keepalive = std::move(acquired.keepalive);
    }
  }
  ChartHandle handle = Core().Submit(query, std::move(options));
  metrics_.Add("explorer.jobs_submitted", 1);
  ExportMetrics(serve_stats(), "serve.", &metrics_);
  return handle;
}

void Explorer::ConfigureServing(ServingCore::Options options) const {
  serving_core_.reset();  // joins the pool; cancels any live jobs
  serving_options_ = options;
}

ServeStats Explorer::serve_stats() const {
  return serving_core_ == nullptr ? ServeStats() : serving_core_->stats();
}

void Explorer::ExportReachMetrics() const {
  // Session-cumulative values, so SetCounter (not Add): each serving
  // republishes the registry's current totals.
  metrics_.SetCounter("explorer.reach.plans", reach_caches_.plans());
  metrics_.SetCounter("explorer.reach.plan_hits", reach_caches_.plan_hits());
  metrics_.SetCounter("explorer.reach.plan_misses",
                      reach_caches_.plan_misses());
  metrics_.SetCounter("explorer.reach.stale_evictions",
                      reach_caches_.stale_evictions());
  const ShardedTableStats stats = reach_caches_.stats();
  metrics_.SetCounter("explorer.reach.hits", stats.hits);
  metrics_.SetCounter("explorer.reach.misses", stats.misses);
  metrics_.SetCounter("explorer.reach.contention", stats.insert_contention);
  metrics_.SetCounter("explorer.reach.entries", stats.entries);
  metrics_.SetCounter("explorer.reach.memory_bytes", stats.memory_bytes);
}

}  // namespace kgoa
