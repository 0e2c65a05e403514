// Exploration sessions: the state machine of section III.
//
// A session tracks the user's current selection (a bar: kind + category)
// and the chain of triple patterns whose tail variable denotes the bar's
// contents. Each expansion produces a chain query of the Figure 4 template
// (alpha = the next chart's categories, beta = its focus set); selecting a
// bar of the resulting chart advances the state.
//
// Two translation details keep every query inside the Figure 4 contract
// (each variable in at most two patterns):
//  * refining a class bar by subclass *replaces* the trailing rdf:type
//    pattern (sound because the subclass closure is materialized);
//  * a property expansion on a focus variable that is already saturated
//    fuses the trailing class restriction into the new pattern's extent as
//    an existence filter (src/join/filter.h) — this is what makes walks
//    like Example III.1 ("out-properties of Persons who influenced
//    philosophers") expressible.
#ifndef KGOA_EXPLORE_SESSION_H_
#define KGOA_EXPLORE_SESSION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/explore/chart.h"
#include "src/index/snapshot.h"
#include "src/ola/parallel.h"
#include "src/query/chain_query.h"
#include "src/rdf/graph.h"

namespace kgoa {

class ExplorationSession {
 public:
  // Starts at `root_class` (the graph's owl:Thing if kInvalidTerm). The
  // snapshot must carry a Graph; the session pins it so the vocabulary
  // terms it translates against (rdf:type, subclass-of, the dictionary)
  // stay valid across compactions. Sessions only read vocabulary — charts
  // served for the session may pin NEWER versions, which is sound because
  // TermIds are stable across epochs (the dictionary is shared).
  explicit ExplorationSession(GraphSnapshot snapshot,
                              TermId root_class = kInvalidTerm);
  // Legacy adapter: wraps an externally owned graph (which must outlive
  // the session) in an epoch-0 snapshot.
  explicit ExplorationSession(const Graph& graph,
                              TermId root_class = kInvalidTerm);

  // The pinned graph version this session translates against.
  uint64_t epoch() const { return snapshot_.epoch(); }
  const GraphSnapshot& snapshot() const { return snapshot_; }

  BarKind current_kind() const { return kind_; }
  TermId current_category() const { return category_; }

  // Expansions legal from the current selection (Figure 3).
  std::vector<ExpansionKind> LegalExpansions() const;
  bool IsLegal(ExpansionKind expansion) const;

  // Chain query (with DISTINCT) whose grouped result is the chart for
  // `expansion`. `expansion` must be legal.
  ChainQuery BuildQuery(ExpansionKind expansion) const;

  // Applies `expansion` and selects the bar whose category is `category`
  // in the resulting chart. The caller obtains categories by evaluating
  // BuildQuery(expansion). `expansion` must be legal.
  void ExpandAndSelect(ExpansionKind expansion, TermId category);

  // Number of expansions applied so far.
  int depth() const { return depth_; }

  // Back navigation: undoes the most recent ExpandAndSelect (the UI's
  // breadcrumb trail). Returns false at the root.
  bool CanGoBack() const { return !history_.empty(); }
  bool GoBack();

  // The chain defining the current selection's contents (diagnostics).
  const std::vector<TriplePattern>& patterns() const { return patterns_; }
  std::string Describe() const;

  // Monotonic interaction counters (exported into the serving metrics by
  // the REPL; never reset by GoBack).
  uint64_t queries_built() const { return queries_built_; }
  uint64_t expansions_applied() const { return expansions_applied_; }
  uint64_t back_navigations() const { return back_navigations_; }
  uint64_t jobs_auto_cancelled() const { return jobs_auto_cancelled_; }

  // Async serving integration: register a chart job serving the CURRENT
  // selection (Explorer::SubmitChart). Navigating away — ExpandAndSelect
  // or GoBack — supersedes every tracked job and auto-cancels the
  // unfinished ones, so the pool never keeps converging charts the user
  // has already left behind.
  void TrackJob(ChartHandle handle);
  const std::vector<ChartHandle>& tracked_jobs() const { return jobs_; }

  // Cancels all tracked unfinished jobs and clears the tracked set;
  // returns how many were still running.
  int CancelLiveJobs();

 private:
  struct QueryParts {
    std::vector<TriplePattern> patterns;
    std::vector<std::vector<TypeFilter>> filters;
    VarId alpha = kNoVar;
    VarId beta = kNoVar;
  };

  // Builds the patterns of the chart query for `expansion` (shared by
  // BuildQuery and ExpandAndSelect).
  QueryParts BuildParts(ExpansionKind expansion) const;

  VarId FreshVar() const { return next_var_; }

  const Graph& graph() const { return snapshot_.graph(); }

  // Pinned for the session's lifetime (see ctor comment).
  GraphSnapshot snapshot_;

  std::vector<TriplePattern> patterns_;
  std::vector<std::vector<TypeFilter>> filters_;
  VarId focus_ = 0;       // tail variable: contents of the current bar
  VarId next_var_ = 1;    // next fresh variable id
  BarKind kind_ = BarKind::kClass;
  TermId category_ = kInvalidTerm;
  // Index of the trailing (focus rdf:type category) pattern, -1 if the
  // class restriction lives in a filter (or the bar is a property bar).
  int tail_type_pattern_ = -1;
  int depth_ = 0;

  // Interaction counters; queries_built_ is mutated by const BuildQuery.
  mutable uint64_t queries_built_ = 0;
  uint64_t expansions_applied_ = 0;
  uint64_t back_navigations_ = 0;
  uint64_t jobs_auto_cancelled_ = 0;

  // Jobs serving the current selection; superseded on navigation.
  std::vector<ChartHandle> jobs_;

  // Saved states for GoBack (everything except the pinned snapshot).
  struct Snapshot {
    std::vector<TriplePattern> patterns;
    std::vector<std::vector<TypeFilter>> filters;
    VarId focus;
    VarId next_var;
    BarKind kind;
    TermId category;
    int tail_type_pattern;
    int depth;
  };
  std::vector<Snapshot> history_;
};

}  // namespace kgoa

#endif  // KGOA_EXPLORE_SESSION_H_
