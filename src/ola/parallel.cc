#include "src/ola/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <thread>
#include <utility>

#include "src/core/reach.h"
#include "src/ola/walk_plan.h"
#include "src/util/contract.h"
#include "src/util/stopwatch.h"
#include "src/util/sync.h"

namespace kgoa {

using SteadyClock = std::chrono::steady_clock;

namespace {

SteadyClock::duration SecondsToDuration(double seconds) {
  return std::chrono::duration_cast<SteadyClock::duration>(
      std::chrono::duration<double>(seconds));
}

double DurationSeconds(SteadyClock::duration d) {
  return std::chrono::duration<double>(d).count();
}

void FillRates(double elapsed_seconds, OlaSnapshot& snapshot) {
  snapshot.elapsed_seconds = elapsed_seconds;
  snapshot.walks_per_second =
      elapsed_seconds > 0
          ? static_cast<double>(snapshot.walks) / elapsed_seconds
          : 0.0;
}

OlaSnapshot FinalSnapshot(const ParallelOlaResult& result) {
  OlaSnapshot snapshot;
  snapshot.walks = result.estimates.walks();
  snapshot.rejected_walks = result.estimates.rejected_walks();
  snapshot.rejection_rate = result.estimates.RejectionRate();
  snapshot.counters = result.counters;
  snapshot.estimates = &result.estimates;
  snapshot.displayed_converged = result.displayed_converged;
  snapshot.final_snapshot = true;
  FillRates(result.elapsed_seconds, snapshot);
  return snapshot;
}

// Seconds between top-K tracker refreshes. The refresh is a slot-order
// merge (same cost as a snapshot); pacing it faster than the display
// cadence lets pruning kick in early without re-merging every quantum.
constexpr double kTopKRefreshPeriod = 0.01;

TopKOptions EffectiveTopK(const ChartJobOptions& options) {
  TopKOptions topk = options.top_k;
  // Pruning changes which walks complete; a budget-mode estimate must
  // stay a pure function of (query, seed, budget, workers), so the
  // tracker runs observe-only there (bounds and convergence signal, no
  // filter).
  if (options.walk_budget > 0) topk.prune = false;
  return topk;
}

}  // namespace

const char* ChartJobStateName(ChartJobState state) {
  switch (state) {
    case ChartJobState::kQueued:
      return "queued";
    case ChartJobState::kRunning:
      return "running";
    case ChartJobState::kDone:
      return "done";
    case ChartJobState::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Scheduler state (shared between the core, its workers, and every job, so
// a ChartHandle stays functional even after the core is destroyed).
// ---------------------------------------------------------------------------

// Capability model (see DESIGN.md §11): `mutex` is the scheduler lock. It
// guards every field below AND the cross-object scheduling fields of every
// live ChartJob (queue membership, slot checkout bits, the retire claim).
// It is only ever held for O(live jobs) bookkeeping — never across a walk
// quantum, a final merge, or a user callback.
struct ServingCore::State {
  explicit State(Options opts) : options(opts) {}

  const Options options;

  Mutex mutex;
  CondVar cv;  // signalled on new work and on shutdown
  bool stopping KGOA_GUARDED_BY(mutex) = false;
  // Jobs with at least one slot a worker could pick up right now. A job is
  // re-pushed to the back after every quantum, so equal-priority jobs
  // share the pool round-robin.
  std::deque<std::shared_ptr<ChartJob>> queue KGOA_GUARDED_BY(mutex);
  // Every unretired job (queued, running, or fully checked out).
  std::vector<std::shared_ptr<ChartJob>> live KGOA_GUARDED_BY(mutex);
  // Background tasks (compaction folds). Chart quanta take precedence: a
  // worker only pops a task when PickWork finds nothing runnable.
  std::deque<std::function<void()>> tasks KGOA_GUARDED_BY(mutex);
  uint64_t tasks_run KGOA_GUARDED_BY(mutex) = 0;

  uint64_t next_job_id KGOA_GUARDED_BY(mutex) = 1;
  uint64_t submitted KGOA_GUARDED_BY(mutex) = 0;
  uint64_t completed KGOA_GUARDED_BY(mutex) = 0;
  uint64_t cancelled KGOA_GUARDED_BY(mutex) = 0;
  uint64_t quanta KGOA_GUARDED_BY(mutex) = 0;
  uint64_t preemptions KGOA_GUARDED_BY(mutex) = 0;
  uint64_t walks KGOA_GUARDED_BY(mutex) = 0;
  uint64_t max_live KGOA_GUARDED_BY(mutex) = 0;
  double last_cancel_latency KGOA_GUARDED_BY(mutex) = 0;
};

// ---------------------------------------------------------------------------
// ChartJob
// ---------------------------------------------------------------------------

// Locking map. A job is touched by four mutexes, never nested:
//
//   core->mutex      all scheduling fields: slots' checked_out/exhausted/
//                    done/share, checked_out, active_slots, in_queue,
//                    retire_claimed, cancel_time. These are cross-object
//                    (the guarding mutex lives in the core's State), which
//                    clang TSA cannot express as a field annotation
//                    without aliasing false positives — so the discipline
//                    is enforced one level up: every helper that touches
//                    them carries KGOA_REQUIRES(state.mutex) and takes the
//                    State explicitly.
//   slot.publish_mutex   that slot's published partial/counters.
//   topk_mutex       top-K refresh pacing (tracker internals have their
//                    own lock — src/ola/topk.h).
//   done_mutex       result/final_partials publication + done_cv.
//   callback_mutex   snapshot-callback serialization + pacing tick.
//
// Engines are only touched by the single worker that checked the slot
// out, and by the one finalizing thread after every slot is exhausted and
// returned.
class ChartJob {
 public:
  // This run's view of a shared reach cache: counters are reported as the
  // delta over the cache's totals at submit, so a session-owned cache that
  // stays warm across jobs does not leak earlier jobs' activity into this
  // job's counters.
  struct ReachWindow {
    const ReachProbability* cache = nullptr;
    ShardedTableStats baseline;

    void Open(const ReachProbability* c) {
      cache = c;
      if (cache != nullptr) baseline = cache->stats();
    }

    void AddDelta(OlaCounters& counters) const {
      if (cache == nullptr) return;
      const ShardedTableStats now = cache->stats();
      counters.reach_hits += now.hits - baseline.hits;
      counters.reach_misses += now.misses - baseline.misses;
      counters.reach_contention +=
          now.insert_contention - baseline.insert_contention;
      counters.reach_entries = now.entries;
    }
  };

  // One logical worker: private engine, deterministic walk share.
  struct Slot {
    // Scheduling fields, guarded by the core State mutex (see class
    // comment for why that cannot be a guarded_by annotation).
    uint64_t share = 0;  // budget mode: walks this slot must run
    uint64_t done = 0;
    bool checked_out = false;
    bool exhausted = false;
    std::unique_ptr<OlaEngine> engine;  // built on first quantum
    // Published partials for live snapshots, refreshed every quantum.
    Mutex publish_mutex;
    GroupedEstimates partial KGOA_GUARDED_BY(publish_mutex);
    OlaCounters counters KGOA_GUARDED_BY(publish_mutex);
  };

  // options.snapshot must be valid (Submit resolves the core default
  // before constructing the job); the job pins it until destruction.
  ChartJob(std::shared_ptr<ServingCore::State> core_state,
           const ChainQuery& chart_query, ChartJobOptions job_options)
      : core(std::move(core_state)),
        query(chart_query),
        options(std::move(job_options)),
        budget_mode(options.walk_budget > 0),
        quantum(std::max<uint64_t>(1, core->options.quantum_walks)),
        topk(EffectiveTopK(options)) {
    KGOA_CHECK(options.snapshot.valid());

    // Non-mergeable engines (Ripple) run on exactly one logical worker:
    // their partials cannot be folded across independently seeded
    // instances (src/ola/engine.h).
    const bool mergeable = OlaEngineKindMergeable(options.engine);
    int workers = std::max(1, options.workers);
    if (!mergeable) workers = 1;

    // Only the audit engine's distinct estimator audits reach
    // probabilities; everything else runs cache-less.
    if (options.engine == OlaEngineKind::kAudit && query.distinct()) {
      if (options.shared_reach != nullptr) {
        shared_reach = options.shared_reach;
      } else if (options.share_reach) {
        owned_plan = std::make_unique<WalkPlan>(
            WalkPlan::Compile(query, options.walk_order));
        owned_reach = std::make_unique<ReachProbability>(
            options.snapshot.indexes(), *owned_plan);
        shared_reach = owned_reach.get();
      }
    }
    reach_window.Open(shared_reach);

    slots.resize(static_cast<std::size_t>(workers));
    if (budget_mode) {
      const uint64_t base = options.walk_budget /
                            static_cast<uint64_t>(workers);
      const uint64_t remainder = options.walk_budget %
                                 static_cast<uint64_t>(workers);
      for (int w = 0; w < workers; ++w) {
        Slot& slot = slots[static_cast<std::size_t>(w)];
        slot.share =
            base + (static_cast<uint64_t>(w) < remainder ? 1 : 0);
        if (slot.share == 0) slot.exhausted = true;  // never scheduled
      }
    }
    for (const Slot& slot : slots) {
      if (!slot.exhausted) ++active_slots;
    }
    KGOA_CHECK(active_slots > 0);
    deadline = SteadyClock::now() +
               SecondsToDuration(std::max(options.deadline_seconds, 0.0));
    next_tick = SteadyClock::now() +
                SecondsToDuration(std::max(options.snapshot_period, 1e-4));
    next_topk_tick = SteadyClock::now() +
                     SecondsToDuration(kTopKRefreshPeriod);
  }

  int ConcurrencyCap() const {
    const int n = static_cast<int>(slots.size());
    return options.max_concurrency > 0
               ? std::min(options.max_concurrency, n)
               : n;
  }

  std::shared_ptr<ServingCore::State> core;
  const ChainQuery query;
  // Fixed at submit, except on_snapshot: FinalizeJob clears the closure
  // after its last invocation (under callback_mutex) so captured state
  // (often the job's own handle) is released with the retirement.
  // options.snapshot pins this job's graph version (and
  // options.reach_keepalive its cache entry) until the job — and every
  // handle on it — is gone: engines, the owned reach cache and the final
  // merge all read through it, so a compaction publishing epoch N+1
  // mid-run never invalidates anything this job touches.
  ChartJobOptions options;
  const bool budget_mode;
  const uint64_t quantum;

  uint64_t id = 0;  // assigned under the core mutex at submit
  SteadyClock::time_point deadline{};
  Stopwatch clock;  // started at submit (construction)

  // Effective shared reach cache (may be null); owned when built per-job.
  std::unique_ptr<WalkPlan> owned_plan;
  std::unique_ptr<ReachProbability> owned_reach;
  ReachProbability* shared_reach = nullptr;
  ReachWindow reach_window;

  // Slots are fixed at construction; deque keeps Slot's mutex immovable.
  std::deque<Slot> slots;
  // Scheduling fields, guarded by the core State mutex (class comment).
  int active_slots = 0;  // slots not yet exhausted
  int checked_out = 0;
  bool in_queue = false;
  bool retire_claimed = false;
  SteadyClock::time_point cancel_time{};

  // The cancellation token: set once by Cancel(), observed by workers at
  // quantum boundaries without any lock.
  std::atomic<bool> cancel_requested{false};

  // The graceful-finish token: same stopping mechanics as the cancel
  // token, but the job retires as completed (with its partials) and the
  // budget walk-count contract is waived. Set by ChartHandle::Finish()
  // or, with finish_on_displayed_convergence, by the top-K refresh.
  std::atomic<bool> finish_requested{false};

  // Top-K serving state. The tracker is updated from merged partials
  // under topk_mutex (try-lock paced, like the snapshot callback);
  // engines pull immutable filter snapshots at quantum boundaries.
  TopKTracker topk;
  Mutex topk_mutex;
  SteadyClock::time_point next_topk_tick KGOA_GUARDED_BY(topk_mutex){};

  // Completion signalling; `result` and `final_partials` are written once
  // under done_mutex before `state` advances to kDone/kCancelled.
  mutable Mutex done_mutex;
  mutable CondVar done_cv;
  std::atomic<int> state{static_cast<int>(ChartJobState::kQueued)};
  ParallelOlaResult result KGOA_GUARDED_BY(done_mutex);
  // Per-slot final estimates in slot order (empty estimates for slots
  // that never built an engine), kept for slot-order re-folds
  // (ChartHandle::SlotPartials).
  std::vector<GroupedEstimates> final_partials KGOA_GUARDED_BY(done_mutex);

  // Snapshot-subscription pacing; callbacks are serialized per job.
  Mutex callback_mutex;
  SteadyClock::time_point next_tick KGOA_GUARDED_BY(callback_mutex){};
};

namespace {

ChartJobState JobState(const ChartJob& job) {
  return static_cast<ChartJobState>(
      job.state.load(std::memory_order_acquire));
}

bool JobFinished(const ChartJob& job) {
  const ChartJobState s = JobState(job);
  return s == ChartJobState::kDone || s == ChartJobState::kCancelled;
}

// Core-mutex-guarded: is there a slot a worker could pick up? The mutex
// lives in `state`, which must be `*job.core` (the REQUIRES annotation
// names the caller's State so TSA can match the held capability).
bool HasAvailableSlot(const ServingCore::State& state, const ChartJob& job)
    KGOA_REQUIRES(state.mutex) {
  (void)state;
  if (job.cancel_requested.load(std::memory_order_relaxed)) return false;
  if (job.finish_requested.load(std::memory_order_relaxed)) return false;
  if (job.checked_out >= job.ConcurrencyCap()) return false;
  for (const ChartJob::Slot& slot : job.slots) {
    if (!slot.exhausted && !slot.checked_out) return true;
  }
  return false;
}

int FirstAvailableSlot(const ServingCore::State& state, const ChartJob& job)
    KGOA_REQUIRES(state.mutex) {
  (void)state;
  for (std::size_t i = 0; i < job.slots.size(); ++i) {
    if (!job.slots[i].exhausted && !job.slots[i].checked_out) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

// Merges the published slot partials (slot order, so repeated snapshots of
// a quiescent job are bit-stable) and describes them.
OlaSnapshot MergeJobSnapshot(ChartJob& job, GroupedEstimates* merged) {
  OlaSnapshot snapshot;
  *merged = GroupedEstimates();
  for (ChartJob::Slot& slot : job.slots) {
    MutexLock lock(slot.publish_mutex);
    merged->Merge(slot.partial);
    snapshot.counters.Merge(slot.counters);
  }
  job.reach_window.AddDelta(snapshot.counters);
  snapshot.walks = merged->walks();
  snapshot.rejected_walks = merged->rejected_walks();
  snapshot.rejection_rate = merged->RejectionRate();
  snapshot.estimates = merged;
  snapshot.displayed_converged = job.topk.displayed_converged();
  FillRates(job.clock.ElapsedSeconds(), snapshot);
  return snapshot;
}

// Refreshes the top-K tracker from a fresh slot-order merge, paced like
// the snapshot callback (try-lock + tick: a sampled view, not a log).
// With finish_on_displayed_convergence the job self-finishes the moment
// the displayed chart settles — deadline mode only; a budget-mode job
// always runs its exact budget.
void MaybeRefreshTopK(ChartJob& job) {
  if (!job.topk.enabled()) return;
  if (!job.topk_mutex.TryLock()) return;
  MutexLock lock(job.topk_mutex, kAdoptLock);
  if (SteadyClock::now() < job.next_topk_tick) return;
  GroupedEstimates merged;
  MergeJobSnapshot(job, &merged);
  job.topk.Update(merged);
  job.next_topk_tick =
      SteadyClock::now() + SecondsToDuration(kTopKRefreshPeriod);
  if (!job.budget_mode && job.options.finish_on_displayed_convergence &&
      job.topk.displayed_converged()) {
    job.finish_requested.store(true, std::memory_order_release);
  }
}

// Delivers a paced live snapshot if the job subscribed and the period
// elapsed. Try-lock: if another worker is mid-callback, skip rather than
// queue up — snapshots are a sampled view, not a log. (The unlocked
// on_snapshot pre-check cannot race the closure release in FinalizeJob:
// this runs only from a checked-out slot's quantum, and FinalizeJob only
// after every slot was returned.)
void MaybeSnapshotCallback(ChartJob& job) {
  if (!job.options.on_snapshot) return;
  if (!job.callback_mutex.TryLock()) return;
  MutexLock lock(job.callback_mutex, kAdoptLock);
  if (SteadyClock::now() < job.next_tick) return;
  GroupedEstimates merged;
  const OlaSnapshot snapshot = MergeJobSnapshot(job, &merged);
  job.options.on_snapshot(snapshot);
  job.next_tick = SteadyClock::now() +
                  SecondsToDuration(std::max(job.options.snapshot_period,
                                             1e-4));
}

// Runs one time slice of `slot`: builds the engine on first touch, walks
// one quantum (clipped to the slot's remaining budget share), publishes
// the partial. Returns the walks run; 0 means the slot produced no work
// (cancelled, or the deadline passed) and should be exhausted. Runs with
// NO lock held — the slot is exclusively checked out to this worker.
uint64_t RunQuantum(ChartJob& job, int slot_index) {
  ChartJob::Slot& slot = job.slots[static_cast<std::size_t>(slot_index)];
  if (job.cancel_requested.load(std::memory_order_acquire)) return 0;
  if (job.finish_requested.load(std::memory_order_acquire)) return 0;
  if (!job.budget_mode && SteadyClock::now() >= job.deadline) return 0;

  if (slot.engine == nullptr) {
    OlaEngineOptions engine_options;
    engine_options.kind = job.options.engine;
    engine_options.seed =
        job.options.seed + static_cast<uint64_t>(slot_index);
    engine_options.walk_order = job.options.walk_order;
    engine_options.tipping_threshold = job.options.tipping_threshold;
    engine_options.shared_reach = job.shared_reach;
    engine_options.batch_walks = job.options.batch_walks;
    slot.engine =
        MakeOlaEngine(job.options.snapshot.indexes(), job.query,
                      engine_options);
  }

  uint64_t walks = job.quantum;
  if (job.budget_mode) {
    KGOA_DCHECK(slot.done < slot.share);
    walks = std::min(walks, slot.share - slot.done);
  }
  if (job.topk.enabled()) {
    // Install the current prune set for this quantum. The snapshot is
    // immutable and slot-private for the quantum's duration; in budget
    // mode (or before anything is pruned) it is null, clearing any
    // previous filter.
    slot.engine->SetGroupFilter(job.topk.FilterSnapshot());
  }
  slot.engine->RunWalks(walks);

  // The copy reads only slot-private engine state; only the handoff into
  // the publish slot needs the lock.
  GroupedEstimates partial = slot.engine->estimates();
  OlaCounters counters;
  slot.engine->FillCounters(&counters);
  {
    MutexLock lock(slot.publish_mutex);
    slot.partial = std::move(partial);
    slot.counters = counters;
  }
  MaybeRefreshTopK(job);
  MaybeSnapshotCallback(job);
  return walks;
}

// Builds the final result (slot-order merge — the determinism contract),
// frees the engines, publishes the result, and wakes Await-ers. MUST run
// with the core mutex released (the merge is O(groups × slots) and the
// snapshot callback is user code): the caller first claims the retire
// under the core mutex (RetireJobLocked), then calls this outside it.
void FinalizeJob(ChartJob& job, bool cancelled)
    KGOA_EXCLUDES(job.core->mutex) {
  ParallelOlaResult result;
  result.workers = static_cast<int>(job.slots.size());
  bool mergeable = true;
  // Ordered merge over logical slots: the double summation happens in the
  // same order no matter how quanta were interleaved with other jobs or
  // scheduled onto threads, so the result is bit-identical across pool
  // sizes and across solo vs. concurrent serving. The per-slot finals are
  // retained (empty for never-run slots, keeping slot alignment) so a
  // caller can redo this fold in slot order (ChartHandle::SlotPartials).
  std::vector<GroupedEstimates> final_partials(job.slots.size());
  for (std::size_t s = 0; s < job.slots.size(); ++s) {
    ChartJob::Slot& slot = job.slots[s];
    if (slot.engine == nullptr) continue;
    final_partials[s] = slot.engine->estimates();
    result.estimates.Merge(final_partials[s]);
    slot.engine->FillCounters(&result.counters);
    mergeable = mergeable && slot.engine->mergeable();
  }
  job.reach_window.AddDelta(result.counters);
  result.elapsed_seconds = job.clock.ElapsedSeconds();
  result.displayed_converged = job.topk.displayed_converged();
  if (job.budget_mode && !cancelled && mergeable &&
      !job.finish_requested.load(std::memory_order_acquire)) {
    // Walk-budget determinism: every slot ran exactly its share, so the
    // merged walk count must equal the requested budget regardless of how
    // the quanta were scheduled. (A graceful Finish() waives the
    // contract: the job completes with the walks it got to.)
    KGOA_DCHECK_EQ(result.estimates.walks(), job.options.walk_budget);
  }
  // Release the heavy engine state (estimator arenas, CTJ memos, private
  // reach caches) eagerly: a cancelled job must not keep partial engines
  // alive for as long as some handle holds the job.
  for (ChartJob::Slot& slot : job.slots) slot.engine.reset();

  // The final snapshot is delivered BEFORE the result is published and
  // Await-ers are woken: Await() returning guarantees the callback will
  // not fire again, so callers may tear down captured state right after.
  if (job.options.on_snapshot) {
    MutexLock lock(job.callback_mutex);
    job.options.on_snapshot(FinalSnapshot(result));
    // Drop the subscription once it can never fire again. Callbacks
    // routinely capture the job's own handle (e.g. to Cancel() from inside
    // a snapshot); keeping the closure alive would cycle
    // job -> callback -> handle -> job and leak the retired job.
    job.options.on_snapshot = nullptr;
  }
  {
    MutexLock lock(job.done_mutex);
    job.result = std::move(result);
    job.final_partials = std::move(final_partials);
    job.state.store(static_cast<int>(cancelled ? ChartJobState::kCancelled
                                               : ChartJobState::kDone),
                    std::memory_order_release);
  }
  job.done_cv.NotifyAll();
}

// Removes the job from the live set and settles the retirement stats. The
// caller has set job->retire_claimed and MUST call FinalizeJob(job,
// <return value>) after releasing the core mutex — the lock is never
// dropped here, so TSA can verify every caller's locking end to end.
// Returns whether the job retires as cancelled.
bool RetireJobLocked(ServingCore::State& state,
                     const std::shared_ptr<ChartJob>& job)
    KGOA_REQUIRES(state.mutex) {
  KGOA_DCHECK(job->retire_claimed);
  KGOA_DCHECK_EQ(job->checked_out, 0);
  state.live.erase(std::remove(state.live.begin(), state.live.end(), job),
                   state.live.end());
  const bool cancelled =
      job->cancel_requested.load(std::memory_order_acquire);
  // Stats are settled BEFORE the finalize wakes Await-ers, so a stats()
  // call racing an Await() return sees the job counted. The cancellation
  // latency is request -> pool freed (this claim), the quantity the
  // serving story cares about; the off-mutex final merge is excluded.
  if (cancelled) {
    ++state.cancelled;
    state.last_cancel_latency =
        DurationSeconds(SteadyClock::now() - job->cancel_time);
  } else {
    ++state.completed;
  }
  return cancelled;
}

// Picks the next (job, slot) to run: highest priority first, round-robin
// among equals (jobs are re-pushed to the back after each pick). Returns
// false when no work is available.
bool PickWork(ServingCore::State& state, std::shared_ptr<ChartJob>* out_job,
              int* out_slot) KGOA_REQUIRES(state.mutex) {
  std::size_t best = state.queue.size();
  for (std::size_t i = 0; i < state.queue.size();) {
    ChartJob& job = *state.queue[i];
    if (!HasAvailableSlot(state, job)) {
      // Stale entry (fully checked out, exhausted, or cancelled since it
      // was queued): drop it — workers returning slots re-queue jobs that
      // regain available work.
      job.in_queue = false;
      state.queue.erase(state.queue.begin() +
                        static_cast<std::ptrdiff_t>(i));
      continue;
    }
    if (best == state.queue.size() ||
        job.options.priority > state.queue[best]->options.priority) {
      best = i;
    }
    ++i;
  }
  if (best == state.queue.size()) return false;

  std::shared_ptr<ChartJob> job = state.queue[best];
  const int slot = FirstAvailableSlot(state, *job);
  KGOA_DCHECK(slot >= 0);
  job->slots[static_cast<std::size_t>(slot)].checked_out = true;
  ++job->checked_out;
  job->state.store(static_cast<int>(ChartJobState::kRunning),
                   std::memory_order_release);
  // Rotate: whatever happens to this job, it goes to the back (or out) of
  // the queue, so its peers get the next slices.
  state.queue.erase(state.queue.begin() +
                    static_cast<std::ptrdiff_t>(best));
  if (HasAvailableSlot(state, *job)) {
    state.queue.push_back(job);
  } else {
    job->in_queue = false;
  }
  *out_job = std::move(job);
  *out_slot = slot;
  return true;
}

// Returns a slot after a quantum: updates progress, exhausts finished
// slots, and either claims the retirement or re-queues the job. When the
// return value's `finalize` is set, the caller must release the core
// mutex and run FinalizeJob(job, .cancelled).
struct RetireAction {
  bool finalize = false;
  bool cancelled = false;
};

RetireAction ReturnSlot(ServingCore::State& state,
                        const std::shared_ptr<ChartJob>& job, int slot_index,
                        uint64_t ran) KGOA_REQUIRES(state.mutex) {
  ChartJob::Slot& slot = job->slots[static_cast<std::size_t>(slot_index)];
  slot.checked_out = false;
  --job->checked_out;
  slot.done += ran;

  auto exhaust = [&](ChartJob::Slot& s) {
    if (!s.exhausted) {
      s.exhausted = true;
      --job->active_slots;
    }
  };
  if (job->cancel_requested.load(std::memory_order_relaxed) ||
      job->finish_requested.load(std::memory_order_relaxed)) {
    // A stop token was observed: everything not currently running stops
    // now; running slots stop as their quanta return. (RetireJobLocked
    // decides completed-vs-cancelled from the cancel token alone, so a
    // finish retires as completed.)
    for (ChartJob::Slot& s : job->slots) {
      if (!s.checked_out) exhaust(s);
    }
  } else if (job->budget_mode) {
    if (slot.done >= slot.share) exhaust(slot);
  } else if (ran == 0) {
    // Deadline passed: this slot is done; its siblings notice on their own
    // next quantum.
    exhaust(slot);
  }

  RetireAction action;
  if (job->active_slots == 0 && job->checked_out == 0) {
    if (!job->retire_claimed) {
      job->retire_claimed = true;
      action.finalize = true;
      action.cancelled = RetireJobLocked(state, job);
    }
  } else if (!job->in_queue && HasAvailableSlot(state, *job)) {
    job->in_queue = true;
    state.queue.push_back(job);
    state.cv.NotifyAll();
  }
  return action;
}

}  // namespace

// ---------------------------------------------------------------------------
// ChartHandle
// ---------------------------------------------------------------------------

ChartHandle::ChartHandle(std::shared_ptr<ChartJob> job)
    : job_(std::move(job)) {}

uint64_t ChartHandle::id() const { return job_ == nullptr ? 0 : job_->id; }

ChartJobState ChartHandle::state() const {
  KGOA_CHECK(job_ != nullptr);
  return JobState(*job_);
}

bool ChartHandle::finished() const {
  return job_ != nullptr && JobFinished(*job_);
}

ParallelOlaResult ChartHandle::Snapshot() const {
  KGOA_CHECK(job_ != nullptr);
  if (JobFinished(*job_)) {
    MutexLock lock(job_->done_mutex);
    return job_->result;
  }
  ParallelOlaResult live;
  live.workers = static_cast<int>(job_->slots.size());
  GroupedEstimates merged;
  const OlaSnapshot snapshot = MergeJobSnapshot(*job_, &merged);
  live.estimates = std::move(merged);
  live.counters = snapshot.counters;
  live.elapsed_seconds = snapshot.elapsed_seconds;
  live.displayed_converged = snapshot.displayed_converged;
  return live;
}

void ChartHandle::Cancel() const {
  KGOA_CHECK(job_ != nullptr);
  const std::shared_ptr<ServingCore::State> shared_state = job_->core;
  ServingCore::State& state = *shared_state;
  bool finalize = false;
  bool cancelled = false;
  {
    MutexLock lock(state.mutex);
    if (JobFinished(*job_) || job_->retire_claimed) return;
    if (!job_->cancel_requested.exchange(true,
                                         std::memory_order_acq_rel)) {
      job_->cancel_time = SteadyClock::now();
    }
    if (job_->in_queue) {
      job_->in_queue = false;
      state.queue.erase(std::remove(state.queue.begin(), state.queue.end(),
                                    job_),
                        state.queue.end());
    }
    for (ChartJob::Slot& slot : job_->slots) {
      if (!slot.checked_out && !slot.exhausted) {
        slot.exhausted = true;
        --job_->active_slots;
      }
    }
    if (job_->checked_out == 0) {
      // Nothing of this job is running: retire it inline; the pool never
      // even has to wake up. Otherwise the workers holding its slots
      // observe the token within one quantum and the last one to return
      // retires it.
      job_->retire_claimed = true;
      finalize = true;
      cancelled = RetireJobLocked(state, job_);
    }
  }
  if (finalize) FinalizeJob(*job_, cancelled);
}

void ChartHandle::Finish() const {
  KGOA_CHECK(job_ != nullptr);
  const std::shared_ptr<ServingCore::State> shared_state = job_->core;
  ServingCore::State& state = *shared_state;
  bool finalize = false;
  bool cancelled = false;
  {
    MutexLock lock(state.mutex);
    if (JobFinished(*job_) || job_->retire_claimed) return;
    // Same stopping mechanics as Cancel(), without the cancel token:
    // RetireJobLocked classifies by cancel_requested, so the job counts
    // as completed and keeps its partials as the final result.
    job_->finish_requested.store(true, std::memory_order_release);
    if (job_->in_queue) {
      job_->in_queue = false;
      state.queue.erase(std::remove(state.queue.begin(), state.queue.end(),
                                    job_),
                        state.queue.end());
    }
    for (ChartJob::Slot& slot : job_->slots) {
      if (!slot.checked_out && !slot.exhausted) {
        slot.exhausted = true;
        --job_->active_slots;
      }
    }
    if (job_->checked_out == 0) {
      job_->retire_claimed = true;
      finalize = true;
      cancelled = RetireJobLocked(state, job_);
    }
  }
  if (finalize) FinalizeJob(*job_, cancelled);
}

ParallelOlaResult ChartHandle::Await() const {
  KGOA_CHECK(job_ != nullptr);
  MutexLock lock(job_->done_mutex);
  // The predicate reads only the job's atomic state — no guarded fields.
  job_->done_cv.Wait(job_->done_mutex, [&] { return JobFinished(*job_); });
  return job_->result;
}

std::vector<GroupedEstimates> ChartHandle::SlotPartials() const {
  KGOA_CHECK(job_ != nullptr);
  KGOA_CHECK_MSG(JobFinished(*job_),
                 "SlotPartials is only valid once the job finished");
  MutexLock lock(job_->done_mutex);
  return job_->final_partials;
}

// ---------------------------------------------------------------------------
// ServingCore
// ---------------------------------------------------------------------------

ServingCore::ServingCore(const IndexSet& indexes)
    : ServingCore(GraphSnapshot::Unowned(indexes), Options()) {}

ServingCore::ServingCore(const IndexSet& indexes, Options options)
    : ServingCore(GraphSnapshot::Unowned(indexes), options) {}

ServingCore::ServingCore(GraphSnapshot snapshot, Options options)
    : default_snapshot_(std::move(snapshot)), options_(options) {
  KGOA_CHECK(default_snapshot_.valid());
  KGOA_CHECK(options_.threads >= 1);
  KGOA_CHECK(options_.quantum_walks >= 1);
  state_ = std::make_shared<State>(options_);
  // The one place in the repo that constructs OS threads (lint rule
  // raw-thread): the pool outlives every chart served through it.
  pool_.reserve(static_cast<std::size_t>(options_.threads));
  for (int t = 0; t < options_.threads; ++t) {
    pool_.emplace_back([this] { WorkerMain(); });
  }
}

ServingCore::~ServingCore() {
  State& state = *state_;
  {
    MutexLock lock(state.mutex);
    state.stopping = true;
  }
  state.cv.NotifyAll();
  for (std::thread& thread : pool_) thread.join();
  // The workers are gone, so nothing is checked out: flush every live job
  // as cancelled so Await-ers (possibly on other threads, holding handles
  // that outlive this core) wake with a well-formed partial result. The
  // bookkeeping happens under the mutex; the final merges after it (the
  // lock-order rule: never finalize — user callbacks! — under the
  // scheduler lock).
  std::vector<std::shared_ptr<ChartJob>> to_finalize;
  {
    MutexLock lock(state.mutex);
    while (!state.live.empty()) {
      std::shared_ptr<ChartJob> job = state.live.back();
      if (!job->cancel_requested.exchange(true,
                                          std::memory_order_acq_rel)) {
        job->cancel_time = SteadyClock::now();
      }
      job->in_queue = false;
      for (ChartJob::Slot& slot : job->slots) {
        if (!slot.exhausted) {
          slot.exhausted = true;
          --job->active_slots;
        }
      }
      KGOA_CHECK(!job->retire_claimed);
      job->retire_claimed = true;
      RetireJobLocked(state, job);
      to_finalize.push_back(std::move(job));
    }
    state.queue.clear();
  }
  for (const std::shared_ptr<ChartJob>& job : to_finalize) {
    FinalizeJob(*job, /*cancelled=*/true);
  }
  // A submitted task always runs: drain whatever the pool never got to,
  // inline, after the workers are gone (a compaction scheduled right
  // before teardown must still fold and publish).
  std::deque<std::function<void()>> leftover;
  {
    MutexLock lock(state.mutex);
    leftover.swap(state.tasks);
    state.tasks_run += leftover.size();
  }
  for (const std::function<void()>& task : leftover) task();
}

ChartHandle ServingCore::Submit(const ChainQuery& query,
                                ChartJobOptions options) {
  if (!options.snapshot.valid()) options.snapshot = default_snapshot_;
  auto job = std::make_shared<ChartJob>(state_, query, std::move(options));
  State& state = *state_;
  MutexLock lock(state.mutex);
  KGOA_CHECK_MSG(!state.stopping, "Submit on a stopping ServingCore");
  job->id = state.next_job_id++;
  ++state.submitted;
  state.live.push_back(job);
  job->in_queue = true;
  state.queue.push_back(job);
  state.max_live = std::max<uint64_t>(state.max_live, state.live.size());
  state.cv.NotifyAll();
  return ChartHandle(std::move(job));
}

void ServingCore::SubmitTask(std::function<void()> task) {
  KGOA_CHECK(task != nullptr);
  State& state = *state_;
  {
    MutexLock lock(state.mutex);
    KGOA_CHECK_MSG(!state.stopping, "SubmitTask on a stopping ServingCore");
    state.tasks.push_back(std::move(task));
  }
  state.cv.NotifyAll();
}

ServeStats ServingCore::stats() const {
  ServeStats stats;
  State& state = *state_;
  MutexLock lock(state.mutex);
  stats.threads = pool_.size();
  stats.jobs_submitted = state.submitted;
  stats.jobs_completed = state.completed;
  stats.jobs_cancelled = state.cancelled;
  stats.quanta = state.quanta;
  stats.preemptions = state.preemptions;
  stats.walks = state.walks;
  stats.live_jobs = state.live.size();
  stats.max_live_jobs = state.max_live;
  stats.tasks_run = state.tasks_run;
  stats.last_cancel_latency_seconds = state.last_cancel_latency;
  return stats;
}

void ServingCore::WorkerMain() {
  const std::shared_ptr<State> shared_state = state_;
  State& state = *shared_state;
  uint64_t last_job_id = 0;
  MutexLock lock(state.mutex);
  for (;;) {
    if (state.stopping) return;
    std::shared_ptr<ChartJob> job;
    int slot = -1;
    if (!PickWork(state, &job, &slot)) {
      // No chart work runnable: background tasks get the idle cycles.
      if (!state.tasks.empty()) {
        std::function<void()> task = std::move(state.tasks.front());
        state.tasks.pop_front();
        ++state.tasks_run;
        lock.Unlock();
        task();
        lock.Lock();
        continue;
      }
      // The predicate runs with state.mutex held (CondVar::Wait contract)
      // but in a lambda TSA analyzes as a fresh context — hence the
      // explicit opt-out.
      state.cv.Wait(state.mutex, [&state]() KGOA_NO_THREAD_SAFETY_ANALYSIS {
        return state.stopping || !state.queue.empty() ||
               !state.tasks.empty();
      });
      continue;
    }
    ++state.quanta;
    if (last_job_id != 0 && last_job_id != job->id) ++state.preemptions;
    last_job_id = job->id;
    lock.Unlock();
    const uint64_t ran = RunQuantum(*job, slot);
    lock.Lock();
    state.walks += ran;
    const RetireAction action = ReturnSlot(state, job, slot, ran);
    if (action.finalize) {
      lock.Unlock();
      FinalizeJob(*job, action.cancelled);
      lock.Lock();
    }
  }
}

}  // namespace kgoa
