#include "src/eval/registry.h"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <vector>

#include "src/core/audit.h"
#include "src/core/mutable_graph.h"
#include "src/index/index_set.h"
#include "src/index/kernels.h"
#include "src/ola/wander.h"
#include "src/util/simd.h"

namespace kgoa {

namespace {

std::string FmtDouble(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

std::string FmtCounter(uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%" PRIu64, value);
  return buffer;
}

}  // namespace

void MetricsRegistry::Add(std::string_view name, uint64_t delta) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

void MetricsRegistry::SetCounter(std::string_view name, uint64_t value) {
  counters_.insert_or_assign(std::string(name), value);
}

uint64_t MetricsRegistry::Counter(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

void MetricsRegistry::SetGauge(std::string_view name, double value) {
  gauges_.insert_or_assign(std::string(name), value);
}

double MetricsRegistry::Gauge(std::string_view name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

void MetricsRegistry::Clear() {
  counters_.clear();
  gauges_.clear();
}

std::string MetricsRegistry::ToText() const {
  std::string out;
  for (const auto& [name, value] : counters_) {
    out += name;
    out += ' ';
    out += FmtCounter(value);
    out += '\n';
  }
  for (const auto& [name, value] : gauges_) {
    out += name;
    out += ' ';
    out += FmtDouble(value);
    out += '\n';
  }
  return out;
}

std::string MetricsRegistry::ToJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += name;
    out += "\":";
    out += FmtCounter(value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : gauges_) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += name;
    out += "\":";
    out += FmtDouble(value);
  }
  out += "}}";
  return out;
}

void ExportMetrics(const AuditJoin& engine, std::string_view prefix,
                   MetricsRegistry* registry) {
  const std::string p(prefix);
  registry->Add(p + "walks", engine.estimates().walks());
  registry->Add(p + "rejected_walks", engine.estimates().rejected_walks());
  registry->Add(p + "tipped_walks", engine.tipped_walks());
  registry->Add(p + "full_walks", engine.full_walks());
  registry->Add(p + "tip_aborts", engine.tip_aborts());
  registry->Add(p + "ctj_cache_hits", engine.suffix_cache_hits());
  registry->Add(p + "batched_walks", engine.batched_walks());
  if (engine.owns_reach()) {
    // A shared cache is exported once by its owner (chart job or
    // session registry), not per engine.
    const ShardedTableStats reach = engine.reach().stats();
    registry->Add(p + "reach_hits", reach.hits);
    registry->Add(p + "reach_misses", reach.misses);
    registry->Add(p + "reach_contention", reach.insert_contention);
    registry->SetCounter(p + "reach_entries", reach.entries);
  }
}

void ExportMetrics(const WanderJoin& engine, std::string_view prefix,
                   MetricsRegistry* registry) {
  const std::string p(prefix);
  registry->Add(p + "walks", engine.estimates().walks());
  registry->Add(p + "rejected_walks", engine.estimates().rejected_walks());
  registry->Add(p + "full_walks", engine.estimates().walks() -
                                      engine.estimates().rejected_walks());
  registry->Add(p + "duplicate_walks", engine.duplicate_walks());
  registry->Add(p + "batched_walks", engine.batched_walks());
}

void ExportMetrics(const OlaCounters& counters, std::string_view prefix,
                   MetricsRegistry* registry) {
  const std::string p(prefix);
  registry->Add(p + "tipped_walks", counters.tipped_walks);
  registry->Add(p + "full_walks", counters.full_walks);
  registry->Add(p + "tip_aborts", counters.tip_aborts);
  registry->Add(p + "ctj_cache_hits", counters.ctj_cache_hits);
  registry->Add(p + "duplicate_walks", counters.duplicate_walks);
  registry->Add(p + "reach_hits", counters.reach_hits);
  registry->Add(p + "reach_misses", counters.reach_misses);
  registry->Add(p + "reach_contention", counters.reach_contention);
  registry->Add(p + "pruned_walks", counters.pruned_walks);
  registry->Add(p + "batched_walks", counters.batched_walks);
  registry->SetCounter(p + "reach_entries", counters.reach_entries);
}

void ExportMetrics(const ServeStats& stats, std::string_view prefix,
                   MetricsRegistry* registry) {
  const std::string p(prefix);
  registry->SetCounter(p + "threads", stats.threads);
  registry->SetCounter(p + "jobs_submitted", stats.jobs_submitted);
  registry->SetCounter(p + "jobs_completed", stats.jobs_completed);
  registry->SetCounter(p + "jobs_cancelled", stats.jobs_cancelled);
  registry->SetCounter(p + "quanta", stats.quanta);
  registry->SetCounter(p + "preemptions", stats.preemptions);
  registry->SetCounter(p + "walks", stats.walks);
  registry->SetCounter(p + "live_jobs", stats.live_jobs);
  registry->SetCounter(p + "max_live_jobs", stats.max_live_jobs);
  registry->SetGauge(p + "last_cancel_latency_seconds",
                     stats.last_cancel_latency_seconds);
}

void ExportMetrics(const IndexSet& indexes, std::string_view prefix,
                   MetricsRegistry* registry) {
  const std::string p(prefix);
  const IndexBuildStats& stats = indexes.build_stats();
  registry->SetCounter(p + "triples", indexes.NumTriples());
  registry->SetCounter(p + "memory_bytes", indexes.ApproxMemoryBytes());
  // Per-tier resident bytes (exactly one is nonzero — the four orders
  // share a storage tier). The raw/block split is what the memory-ratio
  // bench reads back.
  registry->SetCounter(p + "memory_bytes.raw", indexes.RawStorageBytes());
  registry->SetCounter(p + "memory_bytes.block", indexes.BlockStorageBytes());
  registry->SetGauge(p + "build_ms", stats.total_ms);
  registry->SetGauge(p + "compress_ms", stats.compress_ms);
  uint64_t depth1_entries = 0;
  uint64_t depth2_entries = 0;
  for (IndexOrder order : kAllIndexOrders) {
    const int o = static_cast<int>(order);
    std::string name(OrderName(order));
    for (char& c : name) c = static_cast<char>(std::tolower(c));
    registry->SetGauge(p + "sort_ms." + name, stats.sort_ms[o]);
    registry->SetGauge(p + "hash_ms." + name, stats.hash_ms[o]);
    // An overlay view probes its base's tables (src/index/index_set.h).
    // kgoa-lint: allow(hash-bypass) entry counts only, no range lookups
    const HashRangeIndex& hash = indexes.Hash(order);
    depth1_entries += hash.Depth1Entries();
    depth2_entries += hash.Depth2Entries();
  }
  registry->SetCounter(p + "depth1_entries", depth1_entries);
  registry->SetCounter(p + "depth2_entries", depth2_entries);
}

void ExportMetrics(const MutableGraph& mutable_graph, std::string_view prefix,
                   MetricsRegistry* registry) {
  const std::string p(prefix);
  const MutableGraph::Stats stats = mutable_graph.stats();
  registry->SetCounter(p + "current", stats.epoch);
  registry->SetCounter(p + "base_triples", stats.base_triples);
  registry->SetCounter(p + "live_triples", stats.live_triples);
  registry->SetCounter(p + "overlay_adds", stats.overlay_adds);
  registry->SetCounter(p + "overlay_dels", stats.overlay_dels);
  registry->SetCounter(p + "batches_applied", stats.batches_applied);
  registry->SetCounter(p + "compactions", stats.compactions);
  registry->SetCounter(p + "snapshots_pinned", stats.snapshots_pinned);
}

void ExportIndexProbeCounters(std::string_view prefix,
                              MetricsRegistry* registry) {
  const std::string p(prefix);
  const IndexProbeCounters& probes = t_index_probes;
  registry->SetCounter(p + "depth1_probes", probes.depth1_probes);
  registry->SetCounter(p + "depth2_probes", probes.depth2_probes);
  registry->SetCounter(p + "ndv_probes", probes.ndv_probes);
}

void ExportSimdMetrics(std::string_view prefix, MetricsRegistry* registry) {
  const std::string p(prefix);
  const SimdLevel level = CurrentSimdLevel();
  registry->SetCounter(p + "level", static_cast<uint64_t>(level));
  registry->SetCounter(p + "level." + SimdLevelName(level), 1);
  registry->SetCounter(p + "probe_prefetch_depth",
                       kernels::kProbePrefetchDepth);
}

std::string SnapshotJson(const OlaSnapshot& snapshot) {
  std::string out = "{";
  out += "\"elapsed_seconds\":" + FmtDouble(snapshot.elapsed_seconds);
  out += ",\"final\":" + std::string(snapshot.final_snapshot ? "true"
                                                             : "false");
  out += ",\"walks\":" + FmtCounter(snapshot.walks);
  out += ",\"rejected_walks\":" + FmtCounter(snapshot.rejected_walks);
  out += ",\"walks_per_second\":" + FmtDouble(snapshot.walks_per_second);
  out += ",\"rejection_rate\":" + FmtDouble(snapshot.rejection_rate);
  out += ",\"tipped_walks\":" + FmtCounter(snapshot.counters.tipped_walks);
  out += ",\"full_walks\":" + FmtCounter(snapshot.counters.full_walks);
  out += ",\"tip_aborts\":" + FmtCounter(snapshot.counters.tip_aborts);
  out +=
      ",\"ctj_cache_hits\":" + FmtCounter(snapshot.counters.ctj_cache_hits);
  out += ",\"duplicate_walks\":" +
         FmtCounter(snapshot.counters.duplicate_walks);
  out += ",\"reach_hits\":" + FmtCounter(snapshot.counters.reach_hits);
  out += ",\"reach_misses\":" + FmtCounter(snapshot.counters.reach_misses);
  out += ",\"reach_contention\":" +
         FmtCounter(snapshot.counters.reach_contention);
  out += ",\"reach_entries\":" + FmtCounter(snapshot.counters.reach_entries);
  out += ",\"pruned_walks\":" + FmtCounter(snapshot.counters.pruned_walks);
  out += ",\"batched_walks\":" +
         FmtCounter(snapshot.counters.batched_walks);
  out += ",\"displayed_converged\":" +
         std::string(snapshot.displayed_converged ? "true" : "false");
  out += ",\"groups\":{";
  if (snapshot.estimates != nullptr) {
    std::vector<std::pair<TermId, double>> groups;
    for (const auto& [group, estimate] : snapshot.estimates->Estimates()) {
      groups.emplace_back(group, estimate);
    }
    std::sort(groups.begin(), groups.end());
    bool first = true;
    for (const auto& [group, estimate] : groups) {
      if (!first) out += ',';
      first = false;
      out += '"';
      out += FmtCounter(group);
      out += "\":{\"estimate\":";
      out += FmtDouble(estimate);
      out += ",\"ci\":";
      out += FmtDouble(snapshot.estimates->CiHalfWidth(group));
      out += '}';
    }
  }
  out += "}}";
  return out;
}

}  // namespace kgoa
