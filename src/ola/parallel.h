// Persistent serving core for parallel online aggregation.
//
// The OLA literature the paper surveys (section II) includes parallel and
// distributed variants (PF-OLA, online aggregation for MapReduce). Both
// Wander Join and Audit Join parallelize embarrassingly: walks are i.i.d.,
// the indexes are immutable, and every engine-local cache (CTJ suffix
// counts, reach probabilities) is private to its worker — so independent
// workers with distinct seeds can simply merge their accumulators
// (GroupedEstimates::Merge) and the combined estimator is the same as one
// sequential run with the union of the walks.
//
// Interactive exploration adds a second dimension: a user clicks a bar,
// watches the chart converge, and clicks again — often before the previous
// chart finishes. Spawning a fresh thread pool per chart (the pre-serving
// design) cannot express that; this layer can:
//
//  * ServingCore — one long-lived worker pool (the only place in the repo
//    allowed to construct std::thread; lint-enforced). Workers time-slice
//    across all live jobs in fixed walk quanta, so k concurrent charts all
//    make visible progress instead of running head-of-line.
//
//  * ChartJob / ChartHandle — a submitted chart query. Each job carries a
//    cancellation token (observed between quanta, so Cancel() returns the
//    pool to other jobs within one quantum, never joining or respawning
//    threads), a priority, a deadline or walk budget, and an optional
//    snapshot-subscription callback. Handles expose Snapshot() (live
//    merged partials), Cancel() and Await().
//
// A synchronous chart is `core.Submit(query, options).Await()`: every
// approximate chart, sync or async, is one ChartJobOptions on one core.
//
// Scheduling never touches estimator semantics. A job in walk-budget mode
// splits its budget over `workers` logical slots (slot w runs exactly its
// share with seed seed + w, engines are slot-private, shared reach-cache
// entries are value-pure), and the final merge folds slot estimates in
// slot order — so a budgeted job's estimate is a pure function of
// (query, seed, budget, workers): bit-identical across pool sizes AND
// across running solo vs. alongside any number of competing jobs.
//
// Deadline mode (walk_budget == 0) runs every slot until a wall-clock
// deadline fixed at submit time; walk counts — and therefore estimates —
// vary run to run. This is the interactive serving mode.
#ifndef KGOA_OLA_PARALLEL_H_
#define KGOA_OLA_PARALLEL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "src/index/index_set.h"
#include "src/index/snapshot.h"
#include "src/ola/engine.h"
#include "src/ola/estimator.h"
#include "src/ola/topk.h"
#include "src/query/chain_query.h"

namespace kgoa {

class ReachProbability;

// A live view of the merged run state, valid only during the callback.
struct OlaSnapshot {
  double elapsed_seconds = 0;
  uint64_t walks = 0;
  uint64_t rejected_walks = 0;
  double walks_per_second = 0;
  double rejection_rate = 0;
  OlaCounters counters;
  // Merged partial estimates: per-group Estimate() / CiHalfWidth().
  // Owned by the caller of the callback; do not retain past the callback.
  const GroupedEstimates* estimates = nullptr;
  // Top-K serving (jobs with top_k.k > 0): the displayed chart — the K
  // largest groups — is settled and converged (src/ola/topk.h). Stays
  // false when top-K serving is off.
  bool displayed_converged = false;
  // True for the one snapshot emitted after the job finished.
  bool final_snapshot = false;
};

// Snapshot callbacks are invoked from pool worker threads, but never
// concurrently for the same job (serialized per job).
using OlaSnapshotCallback = std::function<void(const OlaSnapshot&)>;

struct ParallelOlaResult {
  GroupedEstimates estimates;
  OlaCounters counters;
  double elapsed_seconds = 0;
  int workers = 0;  // logical workers that ran
  // Top-K serving: displayed chart settled and converged at the end of
  // the run (false when top-K serving is off).
  bool displayed_converged = false;
};

// ---------------------------------------------------------------------------
// Async serving API
// ---------------------------------------------------------------------------

enum class ChartJobState : int { kQueued, kRunning, kDone, kCancelled };

const char* ChartJobStateName(ChartJobState state);

struct ChartJobOptions {
  // > 0: deterministic walk-budget mode — exactly this many walks, split
  // across `workers` logical slots, merged in slot order.
  uint64_t walk_budget = 0;
  // Budget == 0: deadline mode — every slot walks until this many seconds
  // after submission.
  double deadline_seconds = 0.1;

  // Higher-priority jobs are always scheduled first; ties share the pool
  // round-robin, one quantum at a time.
  int priority = 0;

  // Budget mode: logical workers the budget is split across. Part of the
  // deterministic run identity — changing it changes the estimate (like
  // changing the seed), whereas the pool size never does. Jobs whose
  // engine is not mergeable (Ripple) are clamped to 1.
  int workers = 4;
  // Max slots of this job running concurrently; 0 = no per-job cap (the
  // pool size is the cap).
  int max_concurrency = 0;

  uint64_t seed = 1;
  OlaEngineKind engine = OlaEngineKind::kAudit;
  std::vector<int> walk_order;  // empty = engine default
  double tipping_threshold = 64.0;
  // Walks per structure-of-arrays batch (0 = kDefaultWalkBatch,
  // 1 = unbatched); bit-identical estimates for every width.
  uint32_t batch_walks = 0;

  // Audit Join distinct mode: share ONE reach-probability cache across
  // the job's slots, so each distinct (a, b) pair is audited once per job
  // instead of once per slot. Sharing preserves budget-mode bit-identity
  // (memo values are pure functions of the plan, so insert races are
  // benign — src/core/reach.h); only the cache counters become
  // scheduling-dependent. `shared_reach` (e.g. from the session's
  // ReachCacheRegistry) is an externally owned cache that takes
  // precedence: it lets concurrent and successive jobs on the same
  // (query, walk order) share one warm cache. It must match the job's
  // (query, walk order) and outlive the job (pair it with
  // `reach_keepalive` when the cache's owner may evict it mid-flight).
  bool share_reach = true;
  ReachProbability* shared_reach = nullptr;
  // Pins whatever owns `shared_reach` (a registry cache entry) for the
  // job's lifetime, so eviction of a stale-epoch entry cannot free a
  // cache a running slot still audits through.
  std::shared_ptr<const void> reach_keepalive;

  // The graph version this job reads. Pinned for the job's whole
  // lifetime: walks keep running against exactly this version even while
  // writers land batches and compaction publishes newer epochs. Invalid
  // (default) = the core's default snapshot from construction time.
  GraphSnapshot snapshot;

  // Live snapshot subscription: called from pool threads at
  // `snapshot_period` cadence (serialized per job), plus one final
  // snapshot when the job retires — delivered before any Await() on the
  // job returns, so an Await-er may tear down state the callback uses.
  // The closure itself is released right after the final snapshot, so a
  // callback may safely capture the job's own ChartHandle (e.g. to
  // Cancel() from inside a snapshot) without keeping the job alive.
  OlaSnapshotCallback on_snapshot;
  double snapshot_period = 0.05;

  // Top-K chart serving (src/ola/topk.h): top_k.k > 0 tracks the K-th
  // displayed group's lower bound and (deadline mode, top_k.prune) skips
  // walks whose group can no longer enter the display. Budget-mode jobs
  // force prune off — pruning changes which walks complete, and a
  // budgeted estimate must stay a pure function of (query, seed, budget,
  // workers).
  TopKOptions top_k;
  // Deadline mode only: retire the job (as completed, with its partials)
  // as soon as the displayed chart converged, instead of walking to the
  // deadline. Requires top_k.k > 0.
  bool finish_on_displayed_convergence = false;
};

class ChartJob;  // internal to the serving core

// Shared-ownership view of a submitted job; copyable, outlives the core.
class ChartHandle {
 public:
  ChartHandle() = default;

  bool valid() const { return job_ != nullptr; }
  uint64_t id() const;
  ChartJobState state() const;
  bool finished() const;  // kDone or kCancelled

  // Merged live partials (published at quantum boundaries). Callable from
  // any thread, any number of times, also after the job finished.
  ParallelOlaResult Snapshot() const;

  // Requests cancellation. Running slots observe the token within one
  // walk quantum; the pool moves on to other jobs without joining or
  // respawning any thread. Idempotent; no-op on finished jobs.
  void Cancel() const;

  // Requests a graceful finish: stop walking within one quantum (same
  // pool mechanics as Cancel) but retire the job as COMPLETED with the
  // partials accumulated so far. The natural way to end a deadline-mode
  // chart whose display has converged — the user got their answer; the
  // job did not fail. Idempotent; no-op on finished jobs.
  void Finish() const;

  // Blocks until the job is done or cancelled; returns the final merged
  // result (partial up to the cancellation point for cancelled jobs).
  // Returned by value so `core.Submit(...).Await()` stays safe when the
  // temporary handle is the job's last owner.
  ParallelOlaResult Await() const;

  // Final per-slot estimates in slot order, retained at retirement.
  // Folding them with GroupedEstimates::Merge in slot order reproduces
  // Await()'s estimates bit for bit (perfbench's traced passes re-fold
  // them to time the merge); any other order re-associates the
  // floating-point summation. Slots that never ran (zero budget share)
  // yield empty estimates, so the fold skips them exactly. Only callable
  // once finished().
  std::vector<GroupedEstimates> SlotPartials() const;

 private:
  friend class ServingCore;
  explicit ChartHandle(std::shared_ptr<ChartJob> job);
  std::shared_ptr<ChartJob> job_;
};

// Point-in-time serving statistics (cumulative since core construction).
struct ServeStats {
  uint64_t threads = 0;          // pool size; fixed for the core's lifetime
  uint64_t jobs_submitted = 0;
  uint64_t jobs_completed = 0;
  uint64_t jobs_cancelled = 0;
  uint64_t quanta = 0;           // time slices executed
  uint64_t preemptions = 0;      // quanta where a worker switched jobs
  uint64_t walks = 0;            // walk-quanta executed across all jobs
  uint64_t live_jobs = 0;        // queued + running right now
  uint64_t max_live_jobs = 0;
  uint64_t tasks_run = 0;        // background tasks executed (SubmitTask)
  // Cancel() -> job-retired latency of the most recent cancellation.
  double last_cancel_latency_seconds = 0;
};

// The long-lived worker pool. Threads are spawned once in the constructor
// and joined once in the destructor; every chart served in between is a
// job on the shared queue.
class ServingCore {
 public:
  struct Options {
    int threads = 2;
    // Walk-quanta per time slice: the preemption and cancellation
    // granularity. Smaller = fairer + faster cancel, larger = less
    // scheduling overhead.
    uint64_t quantum_walks = 256;
  };

  // Serves `snapshot`'s version by default; jobs may pin a different
  // version via ChartJobOptions::snapshot.
  ServingCore(GraphSnapshot snapshot, Options options);
  // Legacy adapters: wrap externally owned indexes (which must outlive
  // the core AND every outstanding job) in an epoch-0 unowned snapshot.
  explicit ServingCore(const IndexSet& indexes);
  ServingCore(const IndexSet& indexes, Options options);
  // Cancels all live jobs (waking their Await-ers), joins the pool, then
  // runs any still-queued background tasks inline (a submitted task —
  // e.g. a pending compaction — always executes).
  ~ServingCore();

  ServingCore(const ServingCore&) = delete;
  ServingCore& operator=(const ServingCore&) = delete;

  // Enqueues a job; the query is copied. Thread-safe.
  ChartHandle Submit(const ChainQuery& query, ChartJobOptions options);

  // Enqueues a background task (e.g. MutableGraph compaction) on the
  // pool. Chart quanta take precedence: a worker only picks a task up
  // when no chart work is runnable. Thread-safe; tasks submitted before
  // destruction are guaranteed to run (inline in the destructor if the
  // pool never got to them).
  void SubmitTask(std::function<void()> task);

  ServeStats stats() const;
  const Options& options() const { return options_; }
  const GraphSnapshot& default_snapshot() const { return default_snapshot_; }

  struct State;  // opaque scheduler state, defined in parallel.cc

 private:
  void WorkerMain();

  GraphSnapshot default_snapshot_;
  Options options_;
  // Scheduler state shared with jobs (kept alive by outstanding handles,
  // so a handle may outlive the core).
  std::shared_ptr<State> state_;
  // kgoa-lint: allow(raw-thread) the serving pool itself
  std::vector<std::thread> pool_;
};

}  // namespace kgoa

#endif  // KGOA_OLA_PARALLEL_H_
