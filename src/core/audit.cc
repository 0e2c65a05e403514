#include "src/core/audit.h"

#include <algorithm>

#include "src/index/kernels.h"
#include "src/util/contract.h"

namespace kgoa {
namespace {

// Pending contributions are flushed once this many accumulate (and at the
// end of every public entry point). The value only affects when the
// prefetch pass runs, never the accumulation order, so it is not part of
// the determinism contract.
constexpr std::size_t kReachFlushBatch = 128;

}  // namespace

AuditJoin::AuditJoin(const IndexSet& indexes, const ChainQuery& query,
                     Options options)
    : indexes_(indexes),
      query_(query),
      options_(options),
      plan_(WalkPlan::Compile(query_, options_.walk_order)),
      tipping_(indexes_, plan_),
      rng_(options_.seed),
      state_(plan_.num_slots(), kInvalidTerm) {
  if (options_.shared_reach != nullptr) {
    // A shared cache memoizes pure functions of its walk plan; serving a
    // different plan would silently corrupt the distinct estimator.
    KGOA_CHECK_MSG(options_.shared_reach->CompatibleWith(plan_),
                   "shared reach cache built for a different walk plan");
    reach_ = options_.shared_reach;
  } else {
    owned_reach_ = std::make_unique<ReachProbability>(indexes_, plan_);
    reach_ = owned_reach_.get();
  }
  const int n = plan_.NumSteps();
  next_in_component_.assign(n, -1);
  count_memo_.resize(n);
  abort_memo_.resize(n);
  for (int q = 0; q + 1 < n; ++q) {
    if (plan_.ParentStepOf(q + 1) != q) continue;
    const TriplePattern& pattern =
        query_.patterns()[plan_.steps()[q].pattern_index];
    next_in_component_[q] = pattern.ComponentOf(plan_.steps()[q + 1].in_var);
    KGOA_DCHECK(next_in_component_[q] >= 0);
  }
  alpha_record_step_ = plan_.RecordStepOfSlot(plan_.alpha_slot());
  const WalkStep& alpha_step = plan_.steps()[alpha_record_step_];
  for (const WalkStep::Record& record : alpha_step.records) {
    if (record.slot != plan_.alpha_slot()) continue;
    const int level = alpha_step.access.depth();
    if (level < 3 &&
        OrderComponent(alpha_step.access.order(), level) == record.component) {
      // The group value is the first free trie level of this step's
      // access path: equal-group positions form contiguous runs in the
      // resolved range, so pruned groups can be skipped run-at-a-time.
      alpha_enum_level_ = level;
    }
  }
  pending_.reserve(kReachFlushBatch);
}

uint64_t AuditJoin::CountFrom(int q, TermId value) {
  KGOA_DCHECK(q < plan_.NumSteps());
  if (const uint64_t* found = count_memo_[q].Find(value)) {
    ++count_cache_hits_;
    return *found;
  }
  const WalkStep& step = plan_.steps()[q];
  const Range range = step.access.Resolve(indexes_, value);
  uint64_t count = 0;
  if (q + 1 == plan_.NumSteps() && step.filter.empty()) {
    count = range.size();
  } else {
    const TrieIndex& index = indexes_.Index(step.access.order());
    for (uint32_t pos = range.begin; pos < range.end; ++pos) {
      const Triple& t = index.TripleAt(pos);
      if (!step.filter.empty() && !step.filter.Pass(indexes_, t)) continue;
      count += q + 1 == plan_.NumSteps()
                   ? 1
                   : CountFrom(q + 1, t[next_in_component_[q]]);
    }
  }
  // Compute-then-insert: the memo only ever holds finished counts, so an
  // abort mid-computation cannot leave a poisoned zero behind. The
  // recursion above only touches deeper steps, so this (step, value) slot
  // is still vacant.
  KGOA_DCHECK(!count_memo_[q].Contains(value));
  count_memo_[q].FindOrAdd(value) = count;
  return count;
}

bool AuditJoin::EnumerateRemaining(int q, std::span<TermId> state,
                                   double mass, uint64_t* budget,
                                   FlatAccumulator<uint64_t, double>* acc) {
  if (q == plan_.NumSteps()) {
    if (query_.distinct()) {
      acc->FindOrAdd(PackPair(state[plan_.alpha_slot()],
                              state[plan_.beta_slot()])) += mass;
    } else {
      acc->FindOrAdd(state[plan_.alpha_slot()]) += 1.0;
    }
    return true;
  }
  const WalkStep& step = plan_.steps()[q];
  const TermId bound = step.in_slot >= 0 ? state[step.in_slot] : kInvalidTerm;
  const Range range = step.access.Resolve(indexes_, bound);
  if (range.empty()) return true;  // dead branch, zero completions
  const double d = static_cast<double>(range.size());
  const TrieIndex& index = indexes_.Index(step.access.order());
  for (uint32_t pos = range.begin; pos < range.end; ++pos) {
    if (*budget == 0) return false;
    --*budget;
    const Triple t = index.TripleAt(pos);
    if (!step.filter.empty() && !step.filter.Pass(indexes_, t)) continue;
    for (const WalkStep::Record& record : step.records) {
      state[record.slot] = t[record.component];
    }
    if (q == alpha_record_step_ && group_filter_ != nullptr &&
        group_filter_->Pruned(state[plan_.alpha_slot()])) {
      // Pruned group: none of its completions can enter the displayed
      // chart. When the group value is the first free trie level, hop
      // over the whole equal-group run (one galloping BlockEnd);
      // otherwise just drop this position's subtree.
      if (alpha_enum_level_ >= 0) {
        pos = index.BlockEnd(range, alpha_enum_level_, pos) - 1;
      }
      continue;
    }
    if (!EnumerateRemaining(q + 1, state, mass / d, budget, acc)) return false;
  }
  return true;
}

bool AuditJoin::TippedContributions(int q0, std::span<TermId> state,
                                    double weight, ContributionMap* out) {
  // Fast path: memoized pure counting (the CTJ cache) applies when the
  // group is already fixed by the prefix and the remaining steps chain
  // linearly.
  if (!query_.distinct() && plan_.SingleSegmentFrom(q0) &&
      plan_.RecordStepOfSlot(plan_.alpha_slot()) < q0) {
    const int in_slot = plan_.steps()[q0].in_slot;
    const TermId in_value = in_slot >= 0 ? state[in_slot] : kInvalidTerm;
    const uint64_t count = CountFrom(q0, in_value);
    if (count > 0) {
      (*out)[state[plan_.alpha_slot()]] =
          weight * static_cast<double>(count);
    }
    return true;
  }

  const int in_slot = plan_.steps()[q0].in_slot;
  const TermId in_value = in_slot >= 0 ? state[in_slot] : kInvalidTerm;
  if (abort_memo_[q0].Contains(in_value)) return false;

  tip_acc_.Clear();
  uint64_t budget = options_.max_tip_enumeration;
  if (!EnumerateRemaining(q0, state, 1.0, &budget, &tip_acc_)) {
    abort_memo_[q0].FindOrAdd(in_value) = 1;
    return false;
  }

  // The arena iterates in insertion (enumeration) order, so the per-group
  // summation below is deterministic.
  if (query_.distinct()) {
    for (const auto& item : tip_acc_.items()) {
      const TermId a = static_cast<TermId>(item.key >> 32);
      const TermId b = static_cast<TermId>(item.key & 0xffffffffu);
      const double pr = reach_->PrAB(a, b);
      KGOA_DCHECK_PROB_POS(pr);
      (*out)[a] += item.value / pr;
    }
  } else {
    for (const auto& item : tip_acc_.items()) {
      (*out)[static_cast<TermId>(item.key)] += weight * item.value;
    }
  }
  return true;
}

void AuditJoin::FlushContributions() {
  // Prefetch-pipelined drain: the Pr memo slot of each pending pair is
  // hinted a window ahead of the in-order probe that consumes it
  // (kernels::PrefetchPipeline — the windowed form of the old two-pass
  // flush). Consumption stays strictly in pending (= walk) order, which
  // is what the determinism contract needs.
  kernels::PrefetchPipeline(
      pending_.size(),
      [&](std::size_t i) {
        const PendingContribution& p = pending_[i];
        if (p.needs_pr) {
          reach_->PrefetchPrAB(static_cast<TermId>(p.pair_key >> 32),
                               static_cast<TermId>(p.pair_key & 0xffffffffu));
        }
      },
      [&](std::size_t i) {
        const PendingContribution& p = pending_[i];
        double value = p.value;
        if (p.needs_pr) {
          const double pr =
              reach_->PrAB(static_cast<TermId>(p.pair_key >> 32),
                           static_cast<TermId>(p.pair_key));
          KGOA_DCHECK_PROB_POS(pr);
          value = 1.0 / pr;
        }
        estimates_.AddContribution(p.group, value);
      });
  pending_.clear();
}

void AuditJoin::RunOneWalkInternal() {
  rng_.Seed(WalkSeed(options_.seed, walk_counter_++));
  double weight = 1.0;  // 1 / Pr(delta) for the sampled prefix
  for (int q = 0; q < plan_.NumSteps(); ++q) {
    const WalkStep& step = plan_.steps()[q];
    const TermId bound =
        step.in_slot >= 0 ? state_[step.in_slot] : kInvalidTerm;

    // Top-K prune: the group-by value was bound by the previous step, and
    // the tracker has ruled its group out of the displayed chart — finish
    // the walk with a zero contribution before any tip or index work.
    // (Counted as a pruned, not rejected, walk: the denominator grows
    // either way, which is what decays pruned groups' estimates.)
    if (group_filter_ != nullptr && q == alpha_record_step_ + 1 &&
        group_filter_->Pruned(state_[plan_.alpha_slot()])) {
      ++pruned_;
      estimates_.EndWalk(/*rejected=*/false);
      return;
    }

    // Static tipping decision: the remaining suffix looks cheap, so
    // switch to exact computation before even resolving this step (a
    // tipped walk never dead-ends; it yields an exact count, possibly 0).
    if (options_.enable_tipping && !options_.adaptive_tipping &&
        tipping_.StaticSuffixEstimate(q) <= options_.tipping_threshold) {
      ContributionMap contributions;
      if (TippedContributions(q, state_, weight, &contributions)) {
        for (const auto& [group, value] : contributions) {
          if (value > 0) {
            pending_.push_back({group, value, 0, /*needs_pr=*/false});
          }
        }
        ++tipped_;
        estimates_.EndWalk(/*rejected=*/false);
        return;
      }
      ++tip_aborts_;
    }

    const Range range = step.access.Resolve(indexes_, bound);

    // Adaptive variant: seed the estimate with the actual fan-out.
    if (options_.enable_tipping && options_.adaptive_tipping &&
        tipping_.Estimate(range.size(), q) <= options_.tipping_threshold) {
      ContributionMap contributions;
      if (TippedContributions(q, state_, weight, &contributions)) {
        for (const auto& [group, value] : contributions) {
          if (value > 0) {
            pending_.push_back({group, value, 0, /*needs_pr=*/false});
          }
        }
        ++tipped_;
        estimates_.EndWalk(/*rejected=*/false);
        return;
      }
      ++tip_aborts_;
    }

    if (range.empty()) {
      estimates_.EndWalk(/*rejected=*/true);
      return;
    }
    weight *= static_cast<double>(range.size());
    const uint32_t pos =
        range.begin + static_cast<uint32_t>(rng_.Below(range.size()));
    const Triple& t = indexes_.Index(step.access.order()).TripleAt(pos);
    if (!step.filter.empty() && !step.filter.Pass(indexes_, t)) {
      estimates_.EndWalk(/*rejected=*/true);
      return;
    }
    for (const WalkStep::Record& record : step.records) {
      state_[record.slot] = t[record.component];
    }
  }

  const TermId a = state_[plan_.alpha_slot()];
  // Group bound only by the final step: the in-loop prune check above
  // never saw it, so filter here before paying for the contribution (the
  // distinct path's Pr(a, b) probe is the expensive part).
  if (group_filter_ != nullptr &&
      alpha_record_step_ + 1 == plan_.NumSteps() &&
      group_filter_->Pruned(a)) {
    ++pruned_;
    estimates_.EndWalk(/*rejected=*/false);
    return;
  }
  if (query_.distinct()) {
    // The Pr(a, b) division is deferred to the flush's batched probe
    // loop; the walk itself only records the audited pair.
    pending_.push_back(
        {a, 0.0, PackPair(a, state_[plan_.beta_slot()]), /*needs_pr=*/true});
  } else {
    pending_.push_back({a, weight, 0, /*needs_pr=*/false});
  }
  ++full_;
  estimates_.EndWalk(/*rejected=*/false);
}

void AuditJoin::RunOneWalk() {
  RunOneWalkInternal();
  FlushContributions();
}

void AuditJoin::RunWalks(uint64_t count) {
  const uint32_t batch =
      options_.batch_walks == 0 ? kDefaultWalkBatch : options_.batch_walks;
  if (batch <= 1) {
    for (uint64_t i = 0; i < count; ++i) {
      RunOneWalkInternal();
      if (pending_.size() >= kReachFlushBatch) FlushContributions();
    }
    FlushContributions();
    return;
  }
  uint64_t remaining = count;
  while (remaining > 0) {
    const uint32_t b = static_cast<uint32_t>(
        std::min<uint64_t>(batch, remaining));
    RunWalkBatch(b);
    remaining -= b;
    if (pending_.size() >= kReachFlushBatch) FlushContributions();
  }
  FlushContributions();
}

// Level-synchronous batch execution. The walks of a batch advance one
// walk level per round; within a level the work splits into phases so the
// index probes and triple fetches pipeline across walks:
//
//   1. scalar prolog, walk order: top-K prune + static tipping (the only
//      phase-1 writer of shared state is the tip path's abort_memo_[q]);
//   2. batched range resolve: hash-probe prefetch pipelined across walks;
//   3. scalar adaptive tipping, walk order (mutually exclusive with the
//      static check in phase 1);
//   4. dead-end rejection + per-walk RNG position draw, walk order;
//   5. batched triple fetch: sampled positions prefetched across walks,
//      then filter + record per walk.
//
// Bit-identity with batch = 1 holds by induction over (level, walk) in
// lexicographic order: each walk's draws come from its own counter-derived
// stream (WalkSeed), and the only cross-walk data flow is through
// abort_memo_[q] — read and written exclusively during level-q processing,
// in walk order within every phase that touches it, so each read sees
// exactly the writes of lower-numbered walks' level-q processing, the same
// set as in sequential execution. count_memo_ values are pure functions of
// (step, value) and the reach cache's values are pure functions of the
// plan, so their population order affects hit counters only, never bits.
// Contributions are buffered per lane and appended to pending_ in walk
// order at batch end, so AddContribution order — the one FP-order-
// sensitive sequence — matches the unbatched path exactly.
void AuditJoin::RunWalkBatch(uint32_t batch) {
  const int num_slots = plan_.num_slots();
  batch_rng_.resize(batch);
  batch_state_.assign(static_cast<std::size_t>(batch) * num_slots,
                      kInvalidTerm);
  batch_weight_.assign(batch, 1.0);
  batch_bound_.assign(batch, kInvalidTerm);
  batch_range_.assign(batch, Range{});
  batch_pos_.assign(batch, 0);
  batch_done_.assign(batch, kLaneAlive);
  batch_contrib_.resize(batch);
  for (uint32_t b = 0; b < batch; ++b) {
    batch_rng_[b].Seed(WalkSeed(options_.seed, walk_counter_ + b));
    batch_contrib_[b].clear();
  }
  walk_counter_ += batch;
  batched_walks_ += batch;

  const auto lane_state = [&](uint32_t b) {
    return std::span<TermId>(batch_state_.data() +
                                 static_cast<std::size_t>(b) * num_slots,
                             static_cast<std::size_t>(num_slots));
  };
  const auto tip_lane = [&](uint32_t b, int q) {
    ContributionMap contributions;
    if (TippedContributions(q, lane_state(b), batch_weight_[b],
                            &contributions)) {
      for (const auto& [group, value] : contributions) {
        if (value > 0) {
          batch_contrib_[b].push_back({group, value, 0, /*needs_pr=*/false});
        }
      }
      ++tipped_;
      batch_done_[b] = kLaneDone;
      return true;
    }
    ++tip_aborts_;
    return false;
  };

  uint32_t alive = batch;
  for (int q = 0; q < plan_.NumSteps() && alive > 0; ++q) {
    const WalkStep& step = plan_.steps()[q];

    // Phase 1: prune + static tip, in walk order.
    for (uint32_t b = 0; b < batch; ++b) {
      if (batch_done_[b] != kLaneAlive) continue;
      const std::span<TermId> state = lane_state(b);
      if (group_filter_ != nullptr && q == alpha_record_step_ + 1 &&
          group_filter_->Pruned(state[plan_.alpha_slot()])) {
        ++pruned_;
        batch_done_[b] = kLaneDone;
        --alive;
        continue;
      }
      if (options_.enable_tipping && !options_.adaptive_tipping &&
          tipping_.StaticSuffixEstimate(q) <= options_.tipping_threshold &&
          tip_lane(b, q)) {
        --alive;
        continue;
      }
      batch_bound_[b] = step.in_slot >= 0 ? state[step.in_slot] : kInvalidTerm;
    }
    if (alive == 0) break;

    // Phase 2: batched resolve, hash probes prefetch-pipelined across the
    // surviving walks.
    batch_live_.clear();
    for (uint32_t b = 0; b < batch; ++b) {
      if (batch_done_[b] == kLaneAlive) batch_live_.push_back(b);
    }
    kernels::PrefetchPipeline(
        batch_live_.size(),
        [&](std::size_t i) {
          step.access.Prefetch(indexes_, batch_bound_[batch_live_[i]]);
        },
        [&](std::size_t i) {
          const uint32_t b = batch_live_[i];
          batch_range_[b] = step.access.Resolve(indexes_, batch_bound_[b]);
        });

    // Phase 3: adaptive tip (seeded with the resolved fan-out), walk order.
    if (options_.enable_tipping && options_.adaptive_tipping) {
      for (const uint32_t b : batch_live_) {
        if (tipping_.Estimate(batch_range_[b].size(), q) <=
                options_.tipping_threshold &&
            tip_lane(b, q)) {
          --alive;
        }
      }
    }

    // Phase 4: rejection + per-walk position draw, walk order.
    for (const uint32_t b : batch_live_) {
      if (batch_done_[b] != kLaneAlive) continue;  // adaptively tipped
      const Range range = batch_range_[b];
      if (range.empty()) {
        batch_done_[b] = kLaneRejected;
        --alive;
        continue;
      }
      batch_weight_[b] *= static_cast<double>(range.size());
      batch_pos_[b] =
          range.begin + static_cast<uint32_t>(batch_rng_[b].Below(range.size()));
    }
    if (alive == 0) break;

    // Phase 5: batched triple fetch + filter + record.
    batch_live_.clear();
    for (uint32_t b = 0; b < batch; ++b) {
      if (batch_done_[b] == kLaneAlive) batch_live_.push_back(b);
    }
    const TrieIndex& index = indexes_.Index(step.access.order());
    kernels::PrefetchPipeline(
        batch_live_.size(),
        [&](std::size_t i) { index.PrefetchTriple(batch_pos_[batch_live_[i]]); },
        [&](std::size_t i) {
          const uint32_t b = batch_live_[i];
          const Triple t = index.TripleAt(batch_pos_[b]);
          if (!step.filter.empty() && !step.filter.Pass(indexes_, t)) {
            batch_done_[b] = kLaneRejected;
            --alive;
            return;
          }
          const std::span<TermId> state = lane_state(b);
          for (const WalkStep::Record& record : step.records) {
            state[record.slot] = t[record.component];
          }
        });
  }

  // Completion bookkeeping for walks that sampled every step, walk order.
  for (uint32_t b = 0; b < batch; ++b) {
    if (batch_done_[b] != kLaneAlive) continue;
    const std::span<TermId> state = lane_state(b);
    const TermId a = state[plan_.alpha_slot()];
    batch_done_[b] = kLaneDone;
    if (group_filter_ != nullptr &&
        alpha_record_step_ + 1 == plan_.NumSteps() &&
        group_filter_->Pruned(a)) {
      ++pruned_;
      continue;
    }
    if (query_.distinct()) {
      batch_contrib_[b].push_back(
          {a, 0.0, PackPair(a, state[plan_.beta_slot()]), /*needs_pr=*/true});
    } else {
      batch_contrib_[b].push_back({a, batch_weight_[b], 0, /*needs_pr=*/false});
    }
    ++full_;
  }

  // Append to pending_ and close the walks, in walk order: pending_ order
  // (hence AddContribution order) matches the unbatched path.
  for (uint32_t b = 0; b < batch; ++b) {
    pending_.insert(pending_.end(), batch_contrib_[b].begin(),
                    batch_contrib_[b].end());
    estimates_.EndWalk(/*rejected=*/batch_done_[b] == kLaneRejected);
  }
}

void AuditJoin::EnumerateAllWalks(
    const std::function<void(double, const ContributionMap&)>& callback) {
  std::vector<TermId> state(plan_.num_slots(), kInvalidTerm);
  const ContributionMap kEmpty;

  auto walk = [&](auto&& self, int q, double probability,
                  double weight) -> void {
    if (q == plan_.NumSteps()) {
      ContributionMap contributions;
      const TermId a = state[plan_.alpha_slot()];
      if (query_.distinct()) {
        contributions[a] = 1.0 / reach_->PrAB(a, state[plan_.beta_slot()]);
      } else {
        contributions[a] = weight;
      }
      callback(probability, contributions);
      return;
    }
    const WalkStep& step = plan_.steps()[q];
    const TermId bound =
        step.in_slot >= 0 ? state[step.in_slot] : kInvalidTerm;

    if (options_.enable_tipping && !options_.adaptive_tipping &&
        tipping_.StaticSuffixEstimate(q) <= options_.tipping_threshold) {
      ContributionMap contributions;
      if (TippedContributions(q, state, weight, &contributions)) {
        callback(probability, contributions);
        return;
      }
    }

    const Range range = step.access.Resolve(indexes_, bound);
    if (options_.enable_tipping && options_.adaptive_tipping &&
        tipping_.Estimate(range.size(), q) <= options_.tipping_threshold) {
      ContributionMap contributions;
      if (TippedContributions(q, state, weight, &contributions)) {
        callback(probability, contributions);
        return;
      }
    }
    if (range.empty()) {
      callback(probability, kEmpty);
      return;
    }
    const double d = static_cast<double>(range.size());
    const TrieIndex& index = indexes_.Index(step.access.order());
    for (uint32_t pos = range.begin; pos < range.end; ++pos) {
      const Triple& t = index.TripleAt(pos);
      if (!step.filter.empty() && !step.filter.Pass(indexes_, t)) {
        callback(probability / d, kEmpty);  // rejected branch
        continue;
      }
      for (const WalkStep::Record& record : step.records) {
        state[record.slot] = t[record.component];
      }
      self(self, q + 1, probability / d, weight * d);
    }
  };
  walk(walk, 0, 1.0, 1.0);
}

}  // namespace kgoa
