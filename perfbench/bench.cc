// The kgoa layered benchmark: serves generated exploration charts through
// the public Explorer API in walk-budget mode, checks every result, and
// prints end-to-end metrics (untraced run) or per-layer metrics (traced
// run). See perfbench/README.md for the metrics, the workloads and why
// each was chosen.
//
// Usage:
//   kgoa_perfbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//                  [--trace_out=<file>]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/audit.h"
#include "src/core/explorer.h"
#include "src/core/reach.h"
#include "src/eval/metrics.h"
#include "src/eval/runner.h"
#include "src/gen/kg_gen.h"
#include "src/gen/workload.h"
#include "src/join/baseline.h"
#include "src/join/ctj.h"
#include "src/ola/walk_plan.h"
#include "src/util/flags.h"
#include "src/util/rng.h"
#include "src/util/simd.h"
#include "trace.h"

namespace kgoa::perfbench {
namespace {

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct WorkloadConfig {
  const char* name;
  bool lgd;              // LGD-like preset (else DBpedia-like)
  double scale;
  StorageTier tier;
  bool distinct;         // DISTINCT charts (else non-distinct)
  int users;             // closed-loop users, one generator thread
  uint64_t walk_budget;  // walks per chart
  int paths;             // exploration paths given to GenerateWorkload
  double abandon_share;  // share of charts the user clicks away from
  bool writes;           // a write batch lands every kChartsPerBatch charts
};

constexpr WorkloadConfig kWorkloads[] = {
    {"explore-distinct", false, 0.1, StorageTier::kRaw, true, 3, 100'000, 50,
     0.10, false},
    {"explore-nondistinct-block", true, 0.25, StorageTier::kBlock, false, 1,
     100'000, 12, 0.0, false},
    {"explore-writes", false, 0.1, StorageTier::kRaw, true, 1, 25'000, 25,
     0.0, true},
};

// Serving pool size: pool threads plus the one generator thread stay
// within the 4 cores of the host the sizes were chosen on.
constexpr int kPoolThreads = 3;
// Logical slots every chart's walk budget is split over (part of the
// budget-run identity, like the seed).
constexpr int kWorkers = 3;

// Write stream: one batch after every kChartsPerBatch charts, two thirds
// inserts recombined from base terms and one third deletes of base
// triples.
constexpr uint64_t kBatchTriples = 256;
constexpr std::size_t kChartsPerBatch = 4;
// CompactAsync is scheduled when the overlay exceeds this share of the
// base triples.
constexpr double kCompactShare = 0.01;
// An abandoned chart is cancelled this long after its submit.
constexpr double kAbandonAfterMs = 2.0;
// Explorer constructions measured per run (the setup_s median); each pass
// builds one, and the run adds more if it had fewer passes.
constexpr int kMinSetups = 15;
// Sample sizes of the checks that re-run work outside the timed passes.
constexpr int kBaselineChecks = 3;
constexpr int kSoloChecks = 4;
// Generator poll period while charts are in flight.
constexpr auto kPoll = std::chrono::microseconds(50);

const WorkloadConfig* FindWorkload(const std::string& name) {
  for (const WorkloadConfig& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t state = seed * 0x9e3779b97f4a7c15ULL + salt;
  return SplitMix64(state);
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }
double Millis(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

// Median by nearest rank (0 for an empty sample), for small samples such
// as the per-pass figures and the set-up repeats.
double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  return values[(values.size() - 1) / 2];
}

// Regularized incomplete beta function I_x(a, b), by its continued
// fraction (modified Lentz), for a, b > 0 and 0 <= x <= 1.
double IncompleteBeta(double a, double b, double x) {
  if (x <= 0) return 0;
  if (x >= 1) return 1;
  if (x > (a + 1) / (a + b + 2)) return 1 - IncompleteBeta(b, a, 1 - x);
  const double front = std::exp(std::lgamma(a + b) - std::lgamma(a) -
                                std::lgamma(b) + a * std::log(x) +
                                b * std::log1p(-x)) /
                       a;
  constexpr double kTiny = 1e-300;
  double f = 1;
  double c = 1;
  double d = 1 - (a + b) * x / (a + 1);
  d = 1 / (std::fabs(d) < kTiny ? kTiny : d);
  f = d;
  for (int m = 1; m < 10000; ++m) {
    for (int parity = 0; parity < 2; ++parity) {
      const double num =
          parity == 0 ? m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
                      : -(a + m) * (a + b + m) * x /
                            ((a + 2 * m) * (a + 2 * m + 1));
      d = 1 + num * d;
      d = 1 / (std::fabs(d) < kTiny ? kTiny : d);
      c = 1 + num / c;
      if (std::fabs(c) < kTiny) c = kTiny;
      f *= c * d;
      if (parity == 1 && std::fabs(c * d - 1) < 1e-12) return front * f;
    }
  }
  return front * f;
}

// Harrell-Davis estimate of the q-quantile (0 for an empty sample): a
// weighted mean of every order statistic, with weights from the
// Beta(q (n + 1), (1 - q)(n + 1)) distribution. Chart latencies and MAEs
// cluster by query; the nearest-rank quantile of such a sample jumps
// between neighbouring clusters from run to run, while this estimate
// moves smoothly.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  const double a = q * (n + 1);
  const double b = (1 - q) * (n + 1);
  double estimate = 0;
  double below = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double upto =
        IncompleteBeta(a, b, static_cast<double>(i + 1) / n);
    estimate += (upto - below) * values[i];
    below = upto;
  }
  return estimate;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Peak resident set (VmHWM) in MiB.
double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::stoull(line.substr(6))) / 1024.0;
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Prepared inputs (benchmark prep, untimed)
// ---------------------------------------------------------------------------

struct WriteBatch {
  std::vector<Triple> inserts;
  std::vector<Triple> deletes;
  uint64_t expected_changes = 0;  // live-set flips, from the prep replay
};

// One chart of the per-pass stream.
struct ChartSpec {
  int query = 0;         // index into Prepared::queries
  uint64_t seed = 0;
  bool abandon = false;
  int truth = 0;         // index into Prepared::truths
};

struct Prepared {
  KgSpec spec;
  Graph graph;
  std::vector<ChainQuery> queries;        // served form (distinct or not)
  std::vector<std::vector<int>> sessions;  // chart indices, stream order
  std::vector<ChartSpec> charts;
  std::vector<GroupedResult> truths;
  std::vector<WriteBatch> batches;        // writes: kChartsPerBatch charts each
  int baseline_checked = 0;
  int baseline_failed = 0;
  double prep_s = 0;
};

// Sessions are root-to-query exploration chains: query i's parent is the
// query whose trail is the longest prefix of i's trail (GenerateWorkload
// extends a trail by " -> <expansion>" and then "(<selected bar>)").
// Shallow charts therefore recur across sessions, as popular charts do.
std::vector<std::vector<int>> BuildSessions(
    const std::vector<ExplorationQuery>& workload) {
  std::vector<int> parent(workload.size(), -1);
  for (std::size_t i = 0; i < workload.size(); ++i) {
    std::size_t best_len = 0;
    for (std::size_t j = 0; j < workload.size(); ++j) {
      const std::string& d = workload[j].description;
      if (j == i || d.size() <= best_len) continue;
      const std::string& mine = workload[i].description;
      if (mine.size() > d.size() && mine.compare(0, d.size(), d) == 0 &&
          mine[d.size()] == '(') {
        parent[i] = static_cast<int>(j);
        best_len = d.size();
      }
    }
  }
  std::vector<std::vector<int>> sessions;
  for (std::size_t i = 0; i < workload.size(); ++i) {
    std::vector<int> chain;
    for (int q = static_cast<int>(i); q >= 0; q = parent[q]) {
      chain.push_back(q);
    }
    std::reverse(chain.begin(), chain.end());
    sessions.push_back(std::move(chain));
  }
  return sessions;
}

std::vector<WriteBatch> MakeWriteStream(const std::vector<Triple>& base,
                                        std::size_t batches, uint64_t seed) {
  Rng rng(seed);
  std::vector<WriteBatch> out(batches);
  for (WriteBatch& batch : out) {
    for (uint64_t i = 0; i < kBatchTriples; ++i) {
      if (i % 3 == 2) {
        batch.deletes.push_back(base[rng.Below(base.size())]);
      } else {
        batch.inserts.push_back(Triple{base[rng.Below(base.size())].s,
                                       base[rng.Below(base.size())].p,
                                       base[rng.Below(base.size())].o});
      }
    }
  }
  return out;
}

Graph CopyGraph(const Graph& graph) {
  return Graph::Rebase(graph, graph.triples());
}

// CTJ against BaselineEngine on one query; returns false on a
// disagreement, nullopt when the baseline's materialization cap was hit.
std::optional<bool> BaselineAgrees(const IndexSet& indexes,
                                   const ChainQuery& query,
                                   const GroupedResult& ctj) {
  BaselineEngine::Options options;
  options.max_rows = 1'000'000;
  const BaselineEngine::Outcome outcome =
      BaselineEngine(indexes, options).Evaluate(query);
  if (outcome.truncated) return std::nullopt;
  return outcome.result == ctj;
}

Prepared Prepare(const WorkloadConfig& w, uint64_t seed) {
  const int64_t start = NowNs();
  Prepared p;
  p.spec = w.lgd ? LgdLikeSpec(w.scale) : DbpediaLikeSpec(w.scale);
  p.graph = GenerateKg(p.spec);

  // Raw-tier indexes for workload generation and ground truth: every
  // result is identical across tiers, and the raw tier evaluates faster.
  MutableGraph prep(CopyGraph(p.graph));
  WorkloadOptions wl;
  wl.num_paths = w.paths;
  const std::vector<ExplorationQuery> workload =
      GenerateWorkload(p.graph, prep.snapshot().indexes(), wl);
  for (const ExplorationQuery& eq : workload) {
    p.queries.push_back(eq.query.WithDistinct(w.distinct));
  }

  p.sessions = BuildSessions(workload);
  Rng rng(Mix(seed, 3));
  std::shuffle(p.sessions.begin(), p.sessions.end(), rng);
  for (std::vector<int>& session : p.sessions) {
    for (int& q : session) {
      ChartSpec chart;
      chart.query = q;
      chart.seed = rng.Next();
      chart.abandon = rng.NextDouble() < w.abandon_share;
      p.charts.push_back(chart);
      q = static_cast<int>(p.charts.size() - 1);
    }
  }

  if (!w.writes) {
    CtjEngine ctj(prep.snapshot().indexes());
    for (std::size_t q = 0; q < workload.size(); ++q) {
      p.truths.push_back(w.distinct ? workload[q].exact
                                    : ctj.Evaluate(p.queries[q]));
    }
    for (ChartSpec& chart : p.charts) chart.truth = chart.query;
  } else {
    // Replay the write stream: chart i reads base + batches
    // [0, i / kChartsPerBatch), so its truth is evaluated on that live
    // set. Compaction never changes the live set, so the truths hold
    // wherever the served background compactions land. The replay
    // compacts after every batch because CTJ runs much faster on a clean
    // base than through an overlay view.
    p.batches = MakeWriteStream(p.graph.triples(),
                                p.charts.size() / kChartsPerBatch,
                                Mix(seed, 4));
    for (std::size_t i = 0; i < p.charts.size(); ++i) {
      const GraphSnapshot snap = prep.snapshot();
      p.truths.push_back(
          CtjEngine(snap.indexes()).Evaluate(p.queries[p.charts[i].query]));
      p.charts[i].truth = static_cast<int>(i);
      if (i % kChartsPerBatch == kChartsPerBatch - 1 &&
          i / kChartsPerBatch < p.batches.size()) {
        WriteBatch& batch = p.batches[i / kChartsPerBatch];
        batch.expected_changes = prep.Apply(batch.inserts, batch.deletes);
        prep.Compact();
      }
    }
  }

  // CTJ against the materializing baseline on a seeded sample of the
  // queries. On the write workload the replay left a clean base, so one
  // more batch lands first and the check reads through an overlay view,
  // as the served charts do.
  if (w.writes) {
    const WriteBatch extra =
        MakeWriteStream(p.graph.triples(), 1, Mix(seed, 8)).front();
    prep.Apply(extra.inserts, extra.deletes);
  }
  const GraphSnapshot snap = prep.snapshot();
  const CtjEngine ctj(snap.indexes());
  Rng pick(Mix(seed, 5));
  for (int tries = 0; tries < 8 * kBaselineChecks &&
                      p.baseline_checked < kBaselineChecks;
       ++tries) {
    const ChainQuery& query = p.queries[pick.Below(p.queries.size())];
    const std::optional<bool> agrees =
        BaselineAgrees(snap.indexes(), query, ctj.Evaluate(query));
    if (!agrees.has_value()) continue;
    ++p.baseline_checked;
    if (!*agrees) ++p.baseline_failed;
  }
  p.prep_s = Seconds(NowNs() - start);
  return p;
}

// ---------------------------------------------------------------------------
// Serving passes
// ---------------------------------------------------------------------------

// Bit-level fingerprint of a chart's estimates (group, estimate and CI
// bits, in group order).
uint64_t Fingerprint(const GroupedEstimates& estimates) {
  std::vector<std::pair<TermId, double>> items;
  for (const auto& [group, value] : estimates.Estimates()) {
    items.emplace_back(group, value);
  }
  std::sort(items.begin(), items.end());
  uint64_t h = estimates.walks() ^ (estimates.rejected_walks() << 32);
  for (const auto& [group, value] : items) {
    const double ci = estimates.CiHalfWidth(group);
    uint64_t vb = 0;
    uint64_t cb = 0;
    std::memcpy(&vb, &value, sizeof vb);
    std::memcpy(&cb, &ci, sizeof cb);
    h = Mix(h, group);
    h = Mix(h, vb);
    h = Mix(h, cb);
  }
  return h;
}

// Budget-mode job options of one chart: its estimate is a pure function
// of these, the query and the pinned live triple set.
ChartJobOptions BudgetJob(const WorkloadConfig& w, const ChartSpec& chart,
                          GraphSnapshot snapshot) {
  ChartJobOptions job;
  job.walk_budget = w.walk_budget;
  job.workers = kWorkers;
  job.seed = chart.seed;
  job.snapshot = std::move(snapshot);
  return job;
}

// Everything a served chart left behind, checked after its pass.
struct Served {
  int chart = 0;
  ChartHandle handle;  // released once the chart finished
  ParallelOlaResult result;
  std::vector<GroupedEstimates> slot_partials;  // traced passes only
  ChartJobState state = ChartJobState::kQueued;
  GraphSnapshot pinned;    // kept only for the solo-check sample
  int64_t submit_ns = 0;
  int64_t end_ns = 0;
  int64_t first_run_ns = -1;  // traced passes: left the queue
  int64_t cancel_ns = -1;
  double overlay_triples = 0;
  int32_t span = -1;
};

// Accumulated over the passes of one kind (traced or untraced).
struct PassStats {
  int passes = 0;
  double wall_s = 0;
  uint64_t walks = 0;
  std::vector<double> chart_ms;
  std::vector<double> mae;
  std::vector<double> apply_ms;
  std::vector<double> compact_s;
  std::vector<double> overlay_triples;
  std::vector<double> queue_ms;
  std::vector<double> cancel_ms;
  std::vector<double> merge_us;
  // Per-pass throughput; walks_per_s is its median over the timed passes.
  std::vector<double> pass_walks_per_s;
  uint64_t charts = 0;     // completed charts checked
  uint64_t abandoned = 0;
  uint64_t writes = 0;
  uint64_t failed = 0;
  uint64_t compactions = 0;
  OlaCounters counters;    // completed charts
  uint64_t rejected = 0;
  uint64_t quanta = 0;
  uint64_t preemptions = 0;
  uint64_t plan_hits = 0;
  uint64_t plan_misses = 0;
};

class Bench {
 public:
  Bench(const WorkloadConfig& w, uint64_t seed, bool trace)
      : w_(w), seed_(seed), tracer_(trace) {}

  int Run(double seconds, const std::string& trace_out);

 private:
  // Replaces explorer_ with a fresh one and records its set-up time.
  void NewExplorer();
  void RunPass(bool traced, PassStats* stats);
  void CheckChart(Served& s, bool traced, PassStats* stats);
  void SoloChecks();
  void Probes(std::map<std::string, double>* m);

  const WorkloadConfig& w_;
  const uint64_t seed_;
  Tracer tracer_;
  Prepared prep_;
  std::vector<double> setup_s_;
  std::vector<double> index_build_s_;
  double index_mib_ = 0;
  std::unique_ptr<Explorer> explorer_;
  // First-pass fingerprint per chart (0 = not yet served to completion).
  std::vector<uint64_t> fingerprints_;
  std::vector<Served> solo_samples_;
  std::vector<bool> solo_pick_;
  bool pin_samples_ = false;  // pin snapshots of the solo-check sample
  // The version the probes read: the served clean base, or on the write
  // workload the pinned version with the largest overlay (traced passes).
  GraphSnapshot probe_snapshot_;
  uint64_t probe_overlay_ = 0;
  uint64_t check_attempted_ = 0;
  uint64_t check_failed_ = 0;
};

void Bench::NewExplorer() {
  explorer_.reset();
  Graph copy = CopyGraph(prep_.graph);
  const int64_t start = NowNs();
  MutableGraph::Options options;
  options.index_options.tier = w_.tier;
  auto explorer = std::make_unique<Explorer>(std::move(copy), options);
  ServingCore::Options serving;
  serving.threads = kPoolThreads;
  explorer->ConfigureServing(serving);
  setup_s_.push_back(Seconds(NowNs() - start));
  const IndexSet& indexes = explorer->snapshot().indexes();
  index_build_s_.push_back(indexes.build_stats().total_ms * 1e-3);
  index_mib_ = static_cast<double>(indexes.ApproxMemoryBytes()) /
               (1024.0 * 1024.0);
  explorer_ = std::move(explorer);
}

// Serves the whole chart stream once on a fresh explorer: each user works
// through sessions in a closed loop (submit, wait, submit the next chart).
void Bench::RunPass(bool traced, PassStats* stats) {
  NewExplorer();
  Explorer& ex = *explorer_;
  const bool tracing = traced && tracer_.enabled();
  if (tracing && !w_.writes) probe_snapshot_ = ex.snapshot();

  struct User {
    int session = -1;
    std::size_t pos = 0;
    std::optional<Served> live;
  };
  std::vector<User> users(static_cast<std::size_t>(w_.users));
  std::size_t next_session = 0;
  std::vector<Served> done;
  done.reserve(prep_.charts.size());
  MutableGraph::CompactTicket ticket;
  int64_t ticket_ns = 0;
  int32_t ticket_span = -1;

  auto submit = [&](User& user) {
    while (user.session < 0 ||
           user.pos >= prep_.sessions[static_cast<std::size_t>(user.session)]
                           .size()) {
      if (next_session >= prep_.sessions.size()) {
        user.session = -1;
        return;
      }
      user.session = static_cast<int>(next_session++);
      user.pos = 0;
    }
    const int chart_index =
        prep_.sessions[static_cast<std::size_t>(user.session)][user.pos++];
    const ChartSpec& chart =
        prep_.charts[static_cast<std::size_t>(chart_index)];
    Served s;
    s.chart = chart_index;
    ChartJobOptions job = BudgetJob(w_, chart, ex.snapshot());
    if (w_.writes) {
      const MutableGraph::Stats g = ex.graph_stats();
      s.overlay_triples = static_cast<double>(g.overlay_adds + g.overlay_dels);
      if (tracing && g.overlay_adds + g.overlay_dels > probe_overlay_) {
        probe_overlay_ = g.overlay_adds + g.overlay_dels;
        probe_snapshot_ = job.snapshot;
      }
    }
    if (pin_samples_ && solo_pick_[static_cast<std::size_t>(chart_index)]) {
      s.pinned = job.snapshot;
    }
    s.span = tracer_.Begin("chart", -1, chart_index);
    s.submit_ns = NowNs();
    {
      ScopedSpan span(tracer_, "explore.submit_chart", s.span, chart_index);
      s.handle = ex.SubmitChart(prep_.queries[static_cast<std::size_t>(
                                    chart.query)],
                                std::move(job));
    }
    user.live = std::move(s);
  };

  auto apply_batch = [&](int batch_index) {
    const WriteBatch& batch =
        prep_.batches[static_cast<std::size_t>(batch_index)];
    const int64_t t0 = NowNs();
    uint64_t changes = 0;
    {
      ScopedSpan span(tracer_, "core.apply");
      changes = ex.Apply(batch.inserts, batch.deletes);
    }
    stats->apply_ms.push_back(Millis(NowNs() - t0));
    ++stats->writes;
    if (changes != batch.expected_changes) ++stats->failed;
    const MutableGraph::Stats g = ex.graph_stats();
    if (!ticket.valid() &&
        static_cast<double>(g.overlay_adds + g.overlay_dels) >
            kCompactShare * static_cast<double>(g.base_triples)) {
      ticket_span = tracer_.Begin("core.compact");
      ticket_ns = NowNs();
      ticket = ex.CompactAsync();
    }
  };

  const int64_t pass_start = NowNs();
  for (User& user : users) submit(user);
  for (;;) {
    bool live = false;
    bool progressed = false;
    for (User& user : users) {
      if (!user.live.has_value()) continue;
      live = true;
      Served& s = *user.live;
      const ChartSpec& chart = prep_.charts[static_cast<std::size_t>(s.chart)];
      if (tracing && s.first_run_ns < 0 &&
          s.handle.state() != ChartJobState::kQueued) {
        s.first_run_ns = NowNs();
      }
      if (chart.abandon && s.cancel_ns < 0 &&
          Millis(NowNs() - s.submit_ns) >= kAbandonAfterMs) {
        ScopedSpan span(tracer_, "ola.cancel", s.span, s.chart);
        s.cancel_ns = NowNs();
        s.handle.Cancel();
      }
      if (!s.handle.finished()) continue;
      {
        ScopedSpan span(tracer_, "ola.await", s.span, s.chart);
        s.result = s.handle.Await();
      }
      s.end_ns = NowNs();
      s.state = s.handle.state();
      tracer_.End(s.span);
      if (tracing) s.slot_partials = s.handle.SlotPartials();
      // Drop the job (and the version it pinned) as a client would.
      s.handle = ChartHandle();
      const int chart_index = s.chart;
      done.push_back(std::move(s));
      user.live.reset();
      if (w_.writes &&
          static_cast<std::size_t>(chart_index) % kChartsPerBatch ==
              kChartsPerBatch - 1 &&
          static_cast<std::size_t>(chart_index) / kChartsPerBatch <
              prep_.batches.size()) {
        apply_batch(chart_index / static_cast<int>(kChartsPerBatch));
      }
      submit(user);
      progressed = true;
    }
    if (ticket.valid() && ticket.done()) {
      stats->compact_s.push_back(Seconds(NowNs() - ticket_ns));
      tracer_.End(ticket_span);
      ++stats->compactions;
      ticket = MutableGraph::CompactTicket();
    }
    if (!live) break;
    if (!progressed) std::this_thread::sleep_for(kPoll);
  }
  const double pass_s = Seconds(NowNs() - pass_start);
  stats->wall_s += pass_s;
  ++stats->passes;

  // Untimed from here on: finish background work, collect, check.
  if (ticket.valid()) {
    ticket.Await();
    stats->compact_s.push_back(Seconds(NowNs() - ticket_ns));
    tracer_.End(ticket_span);
    ++stats->compactions;
  }
  const ServeStats serve = ex.serve_stats();
  stats->quanta += serve.quanta;
  stats->preemptions += serve.preemptions;
  // A one-triple delete publishes an epoch, which exports the explorer's
  // cumulative reach-plan counters without acquiring another plan.
  const Triple flush = prep_.graph.triples().front();
  if (ex.Delete({flush}) == 0) ex.Insert({flush});
  stats->plan_hits += ex.metrics().Counter("explorer.reach.plan_hits");
  stats->plan_misses += ex.metrics().Counter("explorer.reach.plan_misses");

  const std::size_t first = stats->chart_ms.size();
  const uint64_t walks_before = stats->walks;
  for (Served& s : done) CheckChart(s, traced, stats);
  const std::vector<double> pass_ms(stats->chart_ms.begin() +
                                        static_cast<std::ptrdiff_t>(first),
                                    stats->chart_ms.end());
  const double rate =
      static_cast<double>(stats->walks - walks_before) / pass_s;
  stats->pass_walks_per_s.push_back(rate);
  std::printf("pass traced=%d charts %zu wall_s %.4f walks_per_s %.6g "
              "chart_ms_p50 %.4f chart_ms_p95 %.4f\n",
              traced ? 1 : 0, done.size(), pass_s, rate,
              Quantile(pass_ms, 0.5), Quantile(pass_ms, 0.95));
}

void Bench::CheckChart(Served& s, bool traced, PassStats* stats) {
  const ChartSpec& chart = prep_.charts[static_cast<std::size_t>(s.chart)];
  stats->walks += s.result.estimates.walks();
  if (chart.abandon) {
    ++stats->abandoned;
    if (s.cancel_ns >= 0) {
      stats->cancel_ms.push_back(Millis(s.end_ns - s.cancel_ns));
    }
    return;
  }
  ++stats->charts;
  stats->chart_ms.push_back(Millis(s.end_ns - s.submit_ns));
  stats->overlay_triples.push_back(s.overlay_triples);
  if (s.first_run_ns >= 0) {
    stats->queue_ms.push_back(Millis(s.first_run_ns - s.submit_ns));
  }
  stats->counters.Merge(s.result.counters);
  stats->rejected += s.result.estimates.rejected_walks();

  const GroupedResult& exact =
      prep_.truths[static_cast<std::size_t>(chart.truth)];
  const GroupedEstimates& est = s.result.estimates;
  bool ok = s.state == ChartJobState::kDone && est.walks() == w_.walk_budget;
  for (const auto& [group, value] : est.Estimates()) {
    const double ci = est.CiHalfWidth(group);
    if (!std::isfinite(value) || value < 0 || !std::isfinite(ci) || ci < 0) {
      ok = false;
    }
    if (value > 0 && exact.counts.find(group) == exact.counts.end()) {
      ok = false;
    }
  }
  const uint64_t fp = Fingerprint(est);
  uint64_t& first = fingerprints_[static_cast<std::size_t>(s.chart)];
  if (first == 0) {
    first = fp;
  } else if (first != fp) {
    ok = false;  // budget-mode estimates must repeat bit for bit
  }
  if (traced && tracer_.enabled()) {
    // Re-fold the per-slot finals in slot order: must reproduce the
    // served estimates bit for bit.
    GroupedEstimates merged;
    const int64_t t0 = NowNs();
    {
      ScopedSpan span(tracer_, "ola.estimator.merge", -1, s.chart);
      for (const GroupedEstimates& slot : s.slot_partials) merged.Merge(slot);
    }
    stats->merge_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
    if (Fingerprint(merged) != fp) ok = false;
  }
  stats->mae.push_back(MeanAbsoluteError(exact, est));
  if (!ok) ++stats->failed;
  if (s.pinned.valid()) solo_samples_.push_back(std::move(s));
}

// Re-serves the sampled charts alone, each on the snapshot its concurrent
// (or overlay) serving pinned, and requires bit-identical estimates.
void Bench::SoloChecks() {
  for (Served& s : solo_samples_) {
    const ChartSpec& chart = prep_.charts[static_cast<std::size_t>(s.chart)];
    ChartJobOptions job = BudgetJob(w_, chart, s.pinned);
    // Private reach caches: the explorer's registry is keyed by epoch and
    // the pinned version may come from an earlier pass's explorer.
    job.share_reach = false;
    const ParallelOlaResult solo =
        explorer_
            ->SubmitChart(prep_.queries[static_cast<std::size_t>(chart.query)],
                          std::move(job))
            .Await();
    ++check_attempted_;
    if (Fingerprint(solo.estimates) != Fingerprint(s.result.estimates)) {
      ++check_failed_;
    }
  }
}

// ---------------------------------------------------------------------------
// Per-layer probes (traced run)
// ---------------------------------------------------------------------------

// Runs `op(i)` over i = 0, 1, ... (wrapping at `n`) until at least
// `min_ms` elapsed and 64 calls ran; returns ns per call.
template <typename Op>
double TimePerCall(Tracer& tracer, const char* name, std::size_t n,
                   double min_ms, uint64_t* calls, Op op) {
  ScopedSpan span(tracer, name);
  const int64_t start = NowNs();
  uint64_t sink = 0;
  std::size_t i = 0;
  for (;; ++i) {
    sink += op(i % n);
    if (i >= 63 && (i & 15) == 15 && Millis(NowNs() - start) >= min_ms) {
      break;
    }
  }
  const int64_t elapsed = NowNs() - start;
  // Keep the results observable so the calls cannot be elided.
  if (sink == 0x5eed) std::fputs("", stderr);
  *calls += i + 1;
  return static_cast<double>(elapsed) / static_cast<double>(i + 1);
}

void Bench::Probes(std::map<std::string, double>* m) {
  const IndexSet& indexes = probe_snapshot_.indexes();
  Rng rng(Mix(seed_, 6));
  constexpr double kMinMs = 40;
  uint64_t calls = 0;

  // Keys: triples sampled from the constant ranges of every pattern of
  // the workload's queries — the ranges the walks start from and probe.
  std::vector<Triple> keys;
  for (const ChainQuery& q : prep_.queries) {
    for (const TriplePattern& pattern : q.patterns()) {
      IndexOrder order{};
      int depth = 0;
      const Range range = indexes.ConstantRange(pattern, &order, &depth);
      if (range.empty()) continue;
      const TrieIndex& index = indexes.Index(order);
      for (int k = 0; k < 16; ++k) {
        keys.push_back(index.TripleAt(range.begin +
                                      static_cast<uint32_t>(
                                          rng.Below(range.size()))));
      }
    }
  }
  // A time-capped probe may not reach every key: visit them in random
  // order so every query contributes.
  std::shuffle(keys.begin(), keys.end(), rng);
  const std::size_t nk = keys.size() * kNumIndexOrders;
  auto key_order = [&](std::size_t i) {
    return kAllIndexOrders[i % kNumIndexOrders];
  };
  auto key_at = [&](std::size_t i, int level) {
    const IndexOrder o = key_order(i);
    return keys[i / kNumIndexOrders][OrderComponent(o, level)];
  };
  (*m)["index.depth1_ns"] = TimePerCall(
      tracer_, "index.depth1", nk, kMinMs, &calls, [&](std::size_t i) {
        return indexes.Depth1(key_order(i), key_at(i, 0)).size();
      });
  (*m)["index.depth2_ns"] = TimePerCall(
      tracer_, "index.depth2", nk, kMinMs, &calls, [&](std::size_t i) {
        return indexes.Depth2(key_order(i), key_at(i, 0), key_at(i, 1))
            .size();
      });
  (*m)["index.ndv2_ns"] = TimePerCall(
      tracer_, "index.ndv2", nk, kMinMs, &calls, [&](std::size_t i) {
        return indexes.Ndv2(key_order(i), key_at(i, 0));
      });
  // Narrow twice then SeekGE: three calls per key.
  (*m)["index.seek_ns"] =
      TimePerCall(tracer_, "index.seek", nk, kMinMs, &calls,
                  [&](std::size_t i) {
                    const TrieIndex& index = indexes.Index(key_order(i));
                    const Range r1 =
                        index.Narrow(index.Root(), 0, key_at(i, 0));
                    const Range r2 = index.Narrow(r1, 1, key_at(i, 1));
                    return static_cast<uint64_t>(
                        index.SeekGE(r2, 2, key_at(i, 2), r2.begin));
                  }) /
      3.0;
  std::vector<uint32_t> positions(4096);
  for (uint32_t& pos : positions) {
    pos = static_cast<uint32_t>(rng.Below(indexes.NumTriples()));
  }
  // TripleAt then KeyAt at a random level: two calls per position.
  (*m)["index.key_at_ns"] =
      TimePerCall(tracer_, "index.key_at", positions.size() * kNumIndexOrders,
                  kMinMs, &calls,
                  [&](std::size_t i) {
                    const TrieIndex& index = indexes.Index(key_order(i));
                    const uint32_t pos = positions[i / kNumIndexOrders];
                    return static_cast<uint64_t>(index.TripleAt(pos).s) +
                           index.KeyAt(pos, static_cast<int>(i % 3));
                  }) /
      2.0;
  (*m)["index.probe_calls"] = static_cast<double>(calls);

  // Single-threaded Audit Join per distinct chart query: construction
  // (plan compile, tipping statistics) and walks.
  constexpr uint64_t kProbeWalks = 20'000;
  double construct_ms = 0;
  double walk_ns = 0;
  uint64_t probe_walks = 0;
  for (std::size_t q = 0; q < prep_.queries.size(); ++q) {
    const ChainQuery& query = prep_.queries[q];
    AuditJoin::Options options;
    options.seed = Mix(seed_, 100 + q);
    options.walk_order = DefaultAuditOrder(query);
    int64_t t0 = NowNs();
    std::optional<AuditJoin> audit;
    {
      ScopedSpan span(tracer_, "core.audit.construct", -1,
                      static_cast<int64_t>(q));
      audit.emplace(indexes, query, options);
    }
    construct_ms += Millis(NowNs() - t0);
    t0 = NowNs();
    {
      ScopedSpan span(tracer_, "core.audit.run_walks", -1,
                      static_cast<int64_t>(q));
      audit->RunWalks(kProbeWalks);
    }
    walk_ns += static_cast<double>(NowNs() - t0);
    probe_walks += kProbeWalks;
  }
  const auto nq = static_cast<double>(prep_.queries.size());
  (*m)["core.audit.construct_ms"] = construct_ms / nq;
  (*m)["core.audit.walk_ns"] = walk_ns / static_cast<double>(probe_walks);
  (*m)["core.audit.probe_walks"] = static_cast<double>(probe_walks);

  // Reach probabilities Pr(a, b) on a fresh cache per query (cold), then
  // the same pairs again (warm). Pairs come from the triples matching the
  // pattern that binds both the group and the counted variable.
  double cold_ns = 0;
  double warm_ns = 0;
  uint64_t lookups = 0;
  for (const ChainQuery& served : prep_.queries) {
    const ChainQuery query = served.WithDistinct(true);
    const TriplePattern& ab =
        query.patterns()[static_cast<std::size_t>(query.alpha_beta_pattern())];
    IndexOrder order{};
    int depth = 0;
    const Range range = indexes.ConstantRange(ab, &order, &depth);
    if (range.empty()) continue;
    const int ca = ab.ComponentOf(query.alpha());
    const int cb = ab.ComponentOf(query.beta());
    std::vector<std::pair<TermId, TermId>> pairs;
    for (int k = 0; k < 64; ++k) {
      const Triple t = indexes.Index(order).TripleAt(
          range.begin + static_cast<uint32_t>(rng.Below(range.size())));
      pairs.emplace_back(t[ca], t[cb]);
    }
    std::sort(pairs.begin(), pairs.end());
    pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
    const WalkPlan plan = WalkPlan::Compile(query, DefaultAuditOrder(query));
    ReachProbability reach(indexes, plan);
    // PrAB fills the cache as it goes, so the calls cannot be elided.
    for (double* total : {&cold_ns, &warm_ns}) {
      ScopedSpan span(tracer_, total == &cold_ns ? "core.reach.prab_cold"
                                                 : "core.reach.prab_warm");
      const int64_t t0 = NowNs();
      for (const auto& [a, b] : pairs) reach.PrAB(a, b);
      *total += static_cast<double>(NowNs() - t0);
    }
    lookups += pairs.size();
  }
  const auto n_lookups = static_cast<double>(lookups);
  (*m)["core.reach.prab_cold_ns"] = Ratio(cold_ns, n_lookups);
  (*m)["core.reach.prab_warm_ns"] = Ratio(warm_ns, n_lookups);
  (*m)["core.reach.probe_lookups"] = static_cast<double>(lookups);
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Bench::Run(double seconds, const std::string& trace_out) {
  prep_ = Prepare(w_, seed_);
  fingerprints_.assign(prep_.charts.size(), 0);
  solo_pick_.assign(prep_.charts.size(), false);
  {
    Rng pick(Mix(seed_, 7));
    for (int k = 0; k < kSoloChecks; ++k) {
      const std::size_t c = pick.Below(prep_.charts.size());
      if (!prep_.charts[c].abandon) solo_pick_[c] = true;
    }
  }

  // One warm-up pass (checked, not reported) fills the allocator and the
  // CPU caches. Then the untraced run times untraced passes only; the
  // traced run alternates untraced and traced passes so the overhead
  // compares like with like.
  PassStats warm;
  PassStats plain;
  PassStats traced;
  const bool trace = tracer_.enabled();
  pin_samples_ = true;
  RunPass(false, &warm);
  pin_samples_ = false;
  for (int pass = 0;
       plain.wall_s + traced.wall_s < seconds || (trace && traced.passes == 0);
       ++pass) {
    const bool traced_pass = trace && pass % 2 == 1;
    RunPass(traced_pass, traced_pass ? &traced : &plain);
  }
  while (static_cast<int>(setup_s_.size()) < kMinSetups) NewExplorer();
  SoloChecks();

  std::printf(
      "identity {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"preset\": \"%s\", \"scale\": %g, \"tier\": \"%s\", "
      "\"triples\": %zu, \"queries\": %zu, \"charts_per_pass\": %zu, "
      "\"walk_budget\": %" PRIu64 ", \"users\": %d, \"pool_threads\": %d, "
      "\"index_mib\": %.3f, \"nproc\": %u, \"simd\": \"%s\", "
      "\"prep_s\": %.3f}\n",
      w_.name, seed_, prep_.spec.name.c_str(), w_.scale,
      StorageTierName(w_.tier), prep_.graph.NumTriples(),
      prep_.queries.size(), prep_.charts.size(), w_.walk_budget, w_.users,
      kPoolThreads, index_mib_, std::thread::hardware_concurrency(),
      SimdLevelName(CurrentSimdLevel()), prep_.prep_s);
  std::fflush(stdout);

  std::vector<Metric> metrics;
  const PassStats& served = trace ? traced : plain;
  if (!trace) {
    metrics = {
        {"setup_s", Median(setup_s_), "s"},
        {"chart_ms_p50", Quantile(plain.chart_ms, 0.5), "ms"},
        {"chart_ms_p95", Quantile(plain.chart_ms, 0.95), "ms"},
        {"walks_per_s", Median(plain.pass_walks_per_s), "walks/s"},
        // Every pass serves the same charts with the same estimates, so
        // the warm-up pass alone gives the MAE distribution; its size
        // does not depend on how many passes fit in the run.
        {"mae_p50", Quantile(warm.mae, 0.5), "ratio"},
        {"mae_p90", Quantile(warm.mae, 0.9), "ratio"},
        {"peak_rss_mib", PeakRssMib(), "MiB"},
    };
  } else {
    std::map<std::string, double> probe;
    Probes(&probe);
    const OlaCounters& c = served.counters;
    const double walks = static_cast<double>(c.tipped_walks + c.full_walks +
                                             served.rejected);
    const auto charts = static_cast<double>(served.charts + served.abandoned);
    metrics = {
        {"index.build_s", Median(index_build_s_), "s"},
        {"index.mib", index_mib_, "MiB"},
        {"index.depth1_ns", probe["index.depth1_ns"], "ns"},
        {"index.depth2_ns", probe["index.depth2_ns"], "ns"},
        {"index.ndv2_ns", probe["index.ndv2_ns"], "ns"},
        {"index.seek_ns", probe["index.seek_ns"], "ns"},
        {"index.key_at_ns", probe["index.key_at_ns"], "ns"},
        {"index.probe_calls", probe["index.probe_calls"], "count"},
        {"core.audit.walk_ns", probe["core.audit.walk_ns"], "ns"},
        {"core.audit.construct_ms", probe["core.audit.construct_ms"], "ms"},
        {"core.audit.probe_walks", probe["core.audit.probe_walks"], "count"},
        {"core.audit.served_walks", static_cast<double>(served.walks),
         "count"},
        {"core.audit.tipped_frac",
         Ratio(static_cast<double>(c.tipped_walks), walks), "ratio"},
        {"core.audit.reject_frac",
         Ratio(static_cast<double>(served.rejected), walks), "ratio"},
        {"core.audit.ctj_hit_rate",
         Ratio(static_cast<double>(c.ctj_cache_hits), walks), "ratio"},
        {"core.reach.prab_cold_ns", probe["core.reach.prab_cold_ns"], "ns"},
        {"core.reach.prab_warm_ns", probe["core.reach.prab_warm_ns"], "ns"},
        {"core.reach.probe_lookups", probe["core.reach.probe_lookups"],
         "count"},
        {"core.reach.hit_rate",
         Ratio(static_cast<double>(c.reach_hits),
               static_cast<double>(c.reach_hits + c.reach_misses)),
         "ratio"},
        {"core.reach.lookups",
         static_cast<double>(c.reach_hits + c.reach_misses), "count"},
        {"core.mutable.compact_s", Mean(served.compact_s), "s"},
        {"core.mutable.compactions", static_cast<double>(served.compactions),
         "count"},
        {"core.mutable.overlay_triples", Mean(served.overlay_triples),
         "count"},
        {"core.mutable.apply_ms_p50", Quantile(served.apply_ms, 0.5), "ms"},
        {"core.mutable.apply_ms_p95", Quantile(served.apply_ms, 0.95), "ms"},
        {"core.mutable.writes", static_cast<double>(served.writes), "count"},
        {"ola.serve.charts", charts, "count"},
        {"ola.serve.queue_ms", Quantile(served.queue_ms, 0.5), "ms"},
        {"ola.serve.quanta_per_chart",
         Ratio(static_cast<double>(served.quanta), charts), "count"},
        {"ola.serve.preemptions_per_chart",
         Ratio(static_cast<double>(served.preemptions), charts), "count"},
        {"ola.serve.cancel_ms", Quantile(served.cancel_ms, 0.5), "ms"},
        {"ola.serve.cancels", static_cast<double>(served.cancel_ms.size()),
         "count"},
        {"ola.estimator.merge_us", Mean(served.merge_us), "us"},
        {"explore.reach_plan_hit_rate",
         Ratio(static_cast<double>(served.plan_hits),
               static_cast<double>(served.plan_hits + served.plan_misses)),
         "ratio"},
        {"explore.reach_plans",
         static_cast<double>(served.plan_hits + served.plan_misses), "count"},
        {"util.simd_level", static_cast<double>(CurrentSimdLevel()), "count"},
        {"trace.overhead_ratio",
         Ratio(Quantile(traced.chart_ms, 0.5), Quantile(plain.chart_ms, 0.5)),
         "ratio"},
        {"trace.spans", static_cast<double>(tracer_.size()), "count"},
    };
    for (const auto& [name, t] : tracer_.Totals()) {
      std::printf("span %-28s count %8" PRIu64
                  "  total %10.3f ms  self %10.3f ms\n",
                  name.c_str(), t.count, t.total_ms, t.self_ms);
    }
    if (!trace_out.empty() && !tracer_.WriteJsonLines(trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
      return 1;
    }
  }

  uint64_t attempted = check_attempted_ + static_cast<uint64_t>(
                                              prep_.baseline_checked);
  uint64_t failed =
      check_failed_ + static_cast<uint64_t>(prep_.baseline_failed);
  for (const PassStats* s : {&warm, &plain, &traced}) {
    attempted += s->charts + s->writes;
    failed += s->failed;
  }
  std::printf(
      "summary passes %d+%d, charts %" PRIu64 " (+%" PRIu64
      " abandoned), writes %" PRIu64 ", wall %.3f s, baseline checks %d, "
      "solo checks %zu, failed_frac %.6g\n",
      plain.passes, traced.passes, plain.charts + traced.charts,
      plain.abandoned + traced.abandoned, plain.writes + traced.writes,
      plain.wall_s + traced.wall_s, prep_.baseline_checked,
      solo_samples_.size(), Ratio(static_cast<double>(failed),
                                  static_cast<double>(attempted)));
  PrintResult(failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace kgoa::perfbench

int main(int argc, char** argv) {
  kgoa::Flags flags(argc, argv);
  flags.RestrictTo("workload,seed,seconds,trace,trace_out");
  const std::string name = flags.GetString("workload", "");
  const kgoa::perfbench::WorkloadConfig* w =
      kgoa::perfbench::FindWorkload(name);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown --workload '%s'\n", name.c_str());
    return 2;
  }
  const int64_t seed = flags.GetInt("seed", 1);
  const double seconds = flags.GetDouble("seconds", 10);
  if (seed < 0 || !(seconds > 0)) {
    std::fprintf(stderr, "--seed must be >= 0 and --seconds > 0\n");
    return 2;
  }
  kgoa::perfbench::Bench bench(*w, static_cast<uint64_t>(seed),
                               flags.GetInt("trace", 0) != 0);
  return bench.Run(seconds, flags.GetString("trace_out", ""));
}
