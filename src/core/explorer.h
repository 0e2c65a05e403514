// Explorer — the library's top-level facade (the "specialized query
// engine" of Figure 1). It owns a MutableGraph and serves exploration
// charts either exactly (Cached Trie Join) or approximately within a
// wall-clock budget (Audit Join), the way the paper's exploration system
// serves its web frontend. Since the snapshot-epoch refactor (DESIGN.md
// §13) the graph is writable: Insert/Delete/Apply land triple batches,
// Compact folds them into a rebuilt base, and every serving call pins the
// current version so in-flight charts never see a write.
//
// Typical use (see examples/quickstart.cc):
//
//   kgoa::Explorer explorer(std::move(graph));
//   kgoa::ExplorationSession session = explorer.NewSession();
//   kgoa::ChainQuery q = session.BuildQuery(kgoa::ExpansionKind::kSubclass);
//   kgoa::Chart chart = explorer.ApproximateChart(q, /*seconds=*/0.1);
#ifndef KGOA_CORE_EXPLORER_H_
#define KGOA_CORE_EXPLORER_H_

#include <memory>
#include <string_view>
#include <vector>

#include "src/core/audit.h"
#include "src/core/mutable_graph.h"
#include "src/eval/registry.h"
#include "src/explore/cache.h"
#include "src/explore/chart.h"
#include "src/explore/session.h"
#include "src/index/index_set.h"
#include "src/index/snapshot.h"
#include "src/join/result.h"
#include "src/ola/parallel.h"
#include "src/query/chain_query.h"
#include "src/rdf/graph.h"

namespace kgoa {

class Explorer {
 public:
  // Takes ownership of the graph and builds the four index orders
  // (publishing epoch 0).
  explicit Explorer(Graph graph);
  Explorer(Graph graph, MutableGraph::Options options);

  Explorer(const Explorer&) = delete;
  Explorer& operator=(const Explorer&) = delete;

  // Legacy accessors over the CURRENT version. The references stay valid
  // until the next Compact (graph) / next write or Compact (indexes) —
  // callers that hold on across writes should pin a snapshot() instead.
  const Graph& graph() const { return mutable_graph_.snapshot().graph(); }
  const IndexSet& indexes() const {
    return mutable_graph_.snapshot().indexes();
  }

  // Pins the current graph version (see src/index/snapshot.h). The
  // preferred handle for anything that outlives one call.
  GraphSnapshot snapshot() const { return mutable_graph_.snapshot(); }
  uint64_t epoch() const { return mutable_graph_.epoch(); }

  // --- Writes (snapshot-epoch model, DESIGN.md §13) ------------------
  //
  // Each effective batch publishes a new epoch; serving calls submitted
  // afterwards see it, in-flight jobs keep their pinned version. Stale
  // reach caches are evicted after every publish; in-flight jobs keep
  // theirs via keepalives.

  // Applies one batch (inserts first, then deletes); returns the number
  // of live-set changes. Thread-safe against serving; see MutableGraph.
  uint64_t Apply(const std::vector<Triple>& inserts,
                 const std::vector<Triple>& deletes);
  uint64_t Insert(const std::vector<Triple>& triples) {
    return Apply(triples, {});
  }
  uint64_t Delete(const std::vector<Triple>& triples) {
    return Apply({}, triples);
  }

  // Interns a term in the shared dictionary (stable across compactions).
  // Not safe against concurrent readers spelling terms — intern before
  // submitting jobs that race writes.
  TermId Intern(std::string_view term) { return mutable_graph_.Intern(term); }

  // Folds the overlay into a rebuilt base; returns the published epoch.
  uint64_t Compact();
  // Schedules Compact() on the shared serving pool (chart quanta take
  // precedence) and returns a completion ticket.
  MutableGraph::CompactTicket CompactAsync();

  // Epoch/overlay gauges ("epoch.*" in the metrics dump).
  MutableGraph::Stats graph_stats() const { return mutable_graph_.stats(); }
  const MutableGraph& mutable_graph() const { return mutable_graph_; }

  // Fresh session starting at owl:Thing (or the given root class). The
  // session pins the current version for its vocabulary lookups.
  ExplorationSession NewSession(TermId root_class = kInvalidTerm) const {
    return ExplorationSession(mutable_graph_.snapshot(), root_class);
  }

  // Exact grouped evaluation (Cached Trie Join).
  GroupedResult Evaluate(const ChainQuery& query) const;

  // Exact chart: one bar per group, sorted by count descending.
  Chart EvaluateChart(const ChainQuery& query, BarKind kind) const;

  // Approximate chart via Audit Join within `seconds` of wall-clock time.
  // Bars carry 0.95 confidence-interval half-widths.
  Chart ApproximateChart(const ChainQuery& query, double seconds,
                         BarKind kind,
                         AuditJoin::Options options = AuditJoin::Options())
      const;

  // Approximate chart served by the shared serving core: SubmitChart
  // followed by Await, converted to bars, with the engine counters
  // exported. Deadline mode (options.deadline_seconds) unless
  // options.walk_budget is set. The pool is sized by ConfigureServing —
  // no threads are constructed per call.
  Chart ApproximateChartParallel(
      const ChainQuery& query, BarKind kind,
      ChartJobOptions options = ChartJobOptions()) const;

  // Async serving: enqueue a chart job on the shared worker pool and
  // return immediately. The handle exposes Snapshot() / Cancel() /
  // Await(); convert a result with ChartFromEstimates. Audit-distinct
  // jobs are automatically wired to this explorer's warm reach caches, so
  // concurrent and repeated jobs on the same (query, walk order) share
  // audits. Thread-compatible with other const serving calls on this
  // explorer from the same thread; the returned handle itself is usable
  // from any thread.
  ChartHandle SubmitChart(const ChainQuery& query,
                          ChartJobOptions options = ChartJobOptions()) const;

  // Replaces the serving pool (cancelling any live jobs) so the next
  // serve runs with `options`. Cheap when no pool exists yet.
  void ConfigureServing(ServingCore::Options options) const;

  // Cumulative scheduler statistics of the shared pool (zeros before the
  // first serve).
  ServeStats serve_stats() const;

  // Bars (estimate, 0.95 CI half-width) from merged estimates, positive
  // groups only, sorted by estimate descending.
  static Chart ChartFromEstimates(const GroupedEstimates& estimates,
                                  BarKind kind);

  // Cumulative engine counters over every approximate chart served by
  // this explorer ("aj.walks", "aj.tipped_walks", "explorer.charts", ...).
  const MetricsRegistry& metrics() const { return metrics_; }
  void ClearMetrics() { metrics_.Clear(); }

 private:
  // Publishes the session-wide reach-cache state ("explorer.reach.*")
  // into metrics_ after a chart is served.
  void ExportReachMetrics() const;

  // Post-publish bookkeeping shared by Apply/Compact: drops reach caches
  // built for superseded epochs and republishes the epoch.* gauges.
  void AfterPublish();

  // The shared serving pool, spawned on first use with serving_options_.
  ServingCore& Core() const;

  // The versioned graph: every serving call pins one of its snapshots.
  MutableGraph mutable_graph_;
  // Serving statistics; mutated by the const serving calls.
  mutable MetricsRegistry metrics_;
  // Warm reach-probability caches reused across every approximate chart
  // this explorer serves on the same (epoch, query, walk order) — see
  // src/explore/cache.h. Mutated by the const serving calls.
  mutable ReachCacheRegistry reach_caches_;
  // One long-lived worker pool for every chart this explorer serves
  // (sync or async); created lazily so explorers used purely for exact
  // evaluation never spawn threads.
  mutable ServingCore::Options serving_options_;
  mutable std::unique_ptr<ServingCore> serving_core_;
};

}  // namespace kgoa

#endif  // KGOA_CORE_EXPLORER_H_
