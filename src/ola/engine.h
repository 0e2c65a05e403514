// Engine-agnostic online-aggregation interface.
//
// The serving core (src/ola/parallel.h) time-slices many concurrent chart
// jobs over one worker pool. Doing that per engine type would wire every
// engine's quirks into the scheduler, so the core instead talks to
// this minimal interface — construct, RunWalks(n), read the partial
// estimates, read the work counters — and each of the repo's three OLA
// engines implements it:
//
//  * Audit Join (src/core/audit.h)  — the paper's estimator; walk = one
//    random walk, possibly tipped into an exact partial computation.
//  * Wander Join (src/ola/wander.h) — walk = one random walk.
//  * Ripple Join (src/ola/ripple.h) — walk-quantum = one sampling round
//    (kRippleBatch tuples added to every pattern's extent sample).
//
// The `mergeable()` capability is what keeps the scheduler honest about
// semantics rather than special-casing engines: Audit and Wander walks are
// i.i.d., so independently seeded engines merge exactly via
// GroupedEstimates::Merge (the basis of the parallel walk-budget
// determinism contract). Ripple's without-replacement extent samples do
// not merge across engines, so a Ripple job runs on one logical worker and
// still benefits from the pool's time-slicing and cancellation.
#ifndef KGOA_OLA_ENGINE_H_
#define KGOA_OLA_ENGINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/index/index_set.h"
#include "src/ola/estimator.h"
#include "src/query/chain_query.h"

namespace kgoa {

class GroupFilter;
class ReachProbability;

// Per-engine work counters, merged across workers. Counters an engine does
// not track stay zero (e.g. tipping counters under Wander Join).
//
// The reach_* counters describe the reach-probability cache of the
// distinct estimator. With a shared cache they are filled once per run by
// the serving core (as this run's delta over the cache's atomic shard
// counters) rather than per worker; they are exact totals but
// scheduling-dependent — see src/core/reach.h — so they are excluded from
// the walk-budget determinism contract.
struct OlaCounters {
  uint64_t tipped_walks = 0;     // Audit Join: walks finished by tipping
  uint64_t full_walks = 0;       // walks sampled to completion
  uint64_t tip_aborts = 0;       // Audit Join: enumeration-cap aborts
  uint64_t ctj_cache_hits = 0;   // Audit Join: suffix-count memo hits
  uint64_t duplicate_walks = 0;  // Wander Join distinct mode
  uint64_t pruned_walks = 0;     // walks cut short by the top-K filter
  uint64_t batched_walks = 0;    // walks run through the SoA batched path
  uint64_t reach_hits = 0;       // reach cache: memoized lookups served
  uint64_t reach_misses = 0;     // reach cache: entries computed
  uint64_t reach_contention = 0;  // reach cache: contended shard inserts
  uint64_t reach_entries = 0;     // reach cache: resident entries (gauge)

  void Merge(const OlaCounters& other) {
    tipped_walks += other.tipped_walks;
    full_walks += other.full_walks;
    tip_aborts += other.tip_aborts;
    ctj_cache_hits += other.ctj_cache_hits;
    duplicate_walks += other.duplicate_walks;
    pruned_walks += other.pruned_walks;
    batched_walks += other.batched_walks;
    reach_hits += other.reach_hits;
    reach_misses += other.reach_misses;
    reach_contention += other.reach_contention;
    // A gauge, not a rate: max keeps the merged value meaningful whether
    // the workers shared one cache or owned private ones.
    reach_entries = reach_entries > other.reach_entries
                        ? reach_entries
                        : other.reach_entries;
  }
};

enum class OlaEngineKind { kAudit, kWander, kRipple };

const char* OlaEngineName(OlaEngineKind kind);

// Whether engines of this kind merge across independently seeded
// instances (see OlaEngine::mergeable). Lets the scheduler clamp a job's
// logical workers before paying for engine construction.
bool OlaEngineKindMergeable(OlaEngineKind kind);

struct OlaEngineOptions {
  OlaEngineKind kind = OlaEngineKind::kAudit;
  uint64_t seed = 1;
  // Walk order over pattern indices; empty = engine default.
  std::vector<int> walk_order;
  double tipping_threshold = 64.0;   // Audit Join only
  // Audit Join distinct mode: audit against this externally owned
  // reach-probability cache instead of a private one. Must match the
  // engine's (query, walk order) and outlive it — see src/core/reach.h.
  ReachProbability* shared_reach = nullptr;
  // Walk-sampling engines: walks advanced per structure-of-arrays batch
  // (0 = kDefaultWalkBatch, 1 = unbatched). Estimates are bit-identical
  // for every width (per-walk counter-derived RNG); ignored by Ripple.
  uint32_t batch_walks = 0;
};

// One worker's engine. Implementations are not thread-safe: the serving
// core guarantees at most one thread drives an engine at a time (a job
// slot is checked out for the duration of a quantum).
class OlaEngine {
 public:
  virtual ~OlaEngine();

  // Runs `count` walk-quanta. For the walk-sampling engines a quantum is
  // one random walk; for Ripple it is one sampling round.
  virtual void RunWalks(uint64_t count) = 0;

  // Current partial estimates. The reference stays valid until the next
  // RunWalks call; partials from equally configured engines with distinct
  // seeds merge exactly iff mergeable().
  virtual const GroupedEstimates& estimates() const = 0;

  // Adds this engine's work counters into `out`.
  virtual void FillCounters(OlaCounters* out) const = 0;

  // Whether independently seeded instances of this engine produce i.i.d.
  // partials that GroupedEstimates::Merge combines exactly. False for
  // Ripple (without-replacement samples): such engines run on exactly one
  // logical worker per job.
  virtual bool mergeable() const = 0;

  virtual OlaEngineKind kind() const = 0;

  // Installs (or clears, with nullptr) a top-K group filter: walks whose
  // group-by value is already bound to a pruned group end early with a
  // zero contribution (counted in OlaCounters::pruned_walks). Default is
  // a no-op for engines without a prune hook (Ripple). Called between
  // quanta by the slot's driving thread, never concurrently with
  // RunWalks.
  virtual void SetGroupFilter(std::shared_ptr<const GroupFilter> filter) {
    (void)filter;
  }
};

// Builds the engine for `options.kind`. The indexes must outlive the
// engine; the query is copied by the underlying engine.
std::unique_ptr<OlaEngine> MakeOlaEngine(const IndexSet& indexes,
                                         const ChainQuery& query,
                                         const OlaEngineOptions& options);

}  // namespace kgoa

#endif  // KGOA_OLA_ENGINE_H_
