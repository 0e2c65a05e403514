// Kernel ablation: scalar vs SIMD vs SIMD+batched across the hot path.
//
// Part 1 — microbenchmarks of the kernel families behind the dispatch
// layer (src/index/kernels.h), each at the forced-scalar level and at the
// highest level the host CPU supports:
//
//   decode   BlockedColumn::DecodeBlock (frame-of-reference bit-unpack)
//            over a column whose blocks span a range of bit widths, MB/s
//            of decoded values.
//   probe    FlatTable::Find over an LLC-sized table, serial loop vs
//            kernels::ProbeBatch (software-prefetch pipeline), probes/s.
//
// Part 2 — end-to-end: a fixed walk-budget Audit Join run on the
// DBpedia-like graph's block tier, timed under (a) scalar + unbatched,
// (b) SIMD + unbatched, (c) SIMD + batched walks. Because estimates are
// bit-identical across all three configurations (the PR's determinism
// contract), the walk budget needed to reach any CI target is identical
// too — so the elapsed-time ratio IS the time-to-CI ratio.
//
// The machine-readable result is one `kernel_trace {json}` line (scraped
// by scripts/bench_json.sh into BENCH_kernels.json). Set
// KGOA_BENCH_QUICK=1 for a smoke-sized run.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/eval/registry.h"
#include "src/explore/session.h"
#include "src/index/block_codec.h"
#include "src/index/flat_table.h"
#include "src/index/kernels.h"
#include "src/ola/parallel.h"
#include "src/ola/walk_plan.h"
#include "src/util/flags.h"
#include "src/util/rng.h"
#include "src/util/simd.h"
#include "src/util/stopwatch.h"

namespace kgoa {
namespace {

// Single-threaded startup read, before any pool exists.
bool BenchQuick() {
  return std::getenv("KGOA_BENCH_QUICK") != nullptr;  // NOLINT(concurrency-mt-unsafe)
}

// Narrow-band values with occasional outliers, so the blocks span a
// range of bit widths (12-bit frames, and 29-bit ones where an outlier
// lands).
std::vector<uint32_t> PackedColumn(uint32_t n) {
  Rng rng(99);
  std::vector<uint32_t> values(n);
  for (uint32_t i = 0; i < n; ++i) {
    values[i] = rng.Below(64) == 0
                    ? (1u << 28) + static_cast<uint32_t>(rng.Below(9))
                    : static_cast<uint32_t>(rng.Below(1u << 12));
  }
  return values;
}

double DecodeMbps(const BlockedColumn& col, int rounds) {
  alignas(32) uint32_t vals[kCodecBlockSize];
  uint64_t sink = 0;
  Stopwatch clock;
  for (int r = 0; r < rounds; ++r) {
    for (uint32_t b = 0; b < col.num_blocks(); ++b) {
      const uint32_t count = col.DecodeBlock(b, vals);
      sink += vals[count - 1];
    }
  }
  const double seconds = clock.ElapsedSeconds();
  if (sink == 0xdeadbeef) std::printf("(unreachable)\n");  // keep the sink
  const double bytes = static_cast<double>(col.size()) * 4.0 * rounds;
  return bytes / seconds / 1e6;
}

// Fixed-budget end-to-end run; returns elapsed seconds. Workers/threads
// are held at 1 so the measurement is a pure single-lane hot-path time.
double EndToEndSeconds(const IndexSet& indexes, const ChainQuery& query,
                       uint64_t budget, uint32_t batch_walks) {
  ServingCore::Options core_options;
  core_options.threads = 1;
  ServingCore core(indexes, core_options);
  ChartJobOptions job;
  job.walk_budget = budget;
  job.workers = 1;
  job.tipping_threshold = 2.0;
  job.batch_walks = batch_walks;
  Stopwatch clock;
  const ParallelOlaResult run = core.Submit(query, job).Await();
  const double seconds = clock.ElapsedSeconds();
  if (run.estimates.walks() != budget) std::printf("(budget mismatch)\n");
  return seconds;
}

}  // namespace
}  // namespace kgoa

int main(int argc, char** argv) {
  kgoa::Flags flags(argc, argv);
  flags.RestrictTo("scale,budget");
  const bool quick = kgoa::BenchQuick();
  const double scale = flags.GetDouble("scale", quick ? 0.05 : 0.2);
  const auto budget = static_cast<uint64_t>(
      flags.GetInt("budget", quick ? 20000 : 200000));

  const kgoa::SimdLevel best = kgoa::MaxSupportedSimdLevel();
  std::printf("=== Kernel throughput: scalar vs %s vs %s+batched ===\n",
              kgoa::SimdLevelName(best), kgoa::SimdLevelName(best));
  kgoa::MetricsRegistry registry;
  registry.SetCounter("kernels.simd_level", static_cast<uint64_t>(best));
  registry.SetCounter("kernels.probe_prefetch_depth",
                      kgoa::kernels::kProbePrefetchDepth);
  registry.SetCounter("kernels.default_batch_walks",
                      kgoa::kDefaultWalkBatch);

  // --- decode ---
  const uint32_t column_n = quick ? (1u << 18) : (1u << 20);
  const int decode_rounds = quick ? 20 : 100;
  const std::vector<uint32_t> values = kgoa::PackedColumn(column_n);
  const kgoa::BlockedColumn column(values.data(), column_n);
  kgoa::SetSimdLevel(kgoa::SimdLevel::kScalar);
  const double decode_scalar = kgoa::DecodeMbps(column, decode_rounds);
  kgoa::SetSimdLevel(best);
  const double decode_simd = kgoa::DecodeMbps(column, decode_rounds);
  const double decode_speedup =
      decode_scalar > 0 ? decode_simd / decode_scalar : 0.0;
  std::printf("decode: scalar %8.0f MB/s, %s %8.0f MB/s  (%.2fx)\n",
              decode_scalar, kgoa::SimdLevelName(best), decode_simd,
              decode_speedup);
  registry.SetGauge("kernels.decode_mbps.scalar", decode_scalar);
  registry.SetGauge("kernels.decode_mbps.simd", decode_simd);
  registry.SetGauge("kernels.decode_speedup", decode_speedup);

  // --- batched probes ---
  const std::size_t table_entries = quick ? (1u << 20) : (1u << 22);
  kgoa::FlatTable<uint64_t, uint32_t> table(~0ull);
  table.Reset(table_entries);
  for (std::size_t i = 0; i < table_entries; ++i) {
    table.InsertUnique(i * 2 + 1) = static_cast<uint32_t>(i);
  }
  const std::size_t probe_n = quick ? 2'000'000 : 8'000'000;
  kgoa::Rng rng(7);
  std::vector<uint64_t> keys(probe_n);
  for (uint64_t& k : keys) k = rng.Below(2 * table_entries);
  uint64_t sink = 0;
  kgoa::Stopwatch clock;
  for (const uint64_t k : keys) {
    const uint32_t* v = table.Find(k);
    sink += v != nullptr ? *v : 0;
  }
  const double serial_seconds = clock.ElapsedSeconds();
  clock.Restart();
  kgoa::kernels::ProbeBatch(table, keys.data(), keys.size(),
                            [&](std::size_t, const uint32_t* v) {
                              sink += v != nullptr ? *v : 0;
                            });
  const double batched_seconds = clock.ElapsedSeconds();
  if (sink == 0xdeadbeef) std::printf("(unreachable)\n");
  const double probes_serial = static_cast<double>(probe_n) / serial_seconds;
  const double probes_batched =
      static_cast<double>(probe_n) / batched_seconds;
  const double probe_speedup =
      probes_serial > 0 ? probes_batched / probes_serial : 0.0;
  std::printf("hash probe: serial %8.0f/s, batched %8.0f/s  (%.2fx)\n",
              probes_serial, probes_batched, probe_speedup);
  registry.SetGauge("kernels.probes_per_sec.serial", probes_serial);
  registry.SetGauge("kernels.probes_per_sec.batched", probes_batched);
  registry.SetGauge("kernels.probe_speedup", probe_speedup);

  // --- end-to-end ---
  kgoa::Graph graph = kgoa::GenerateKg(kgoa::DbpediaLikeSpec(scale));
  const kgoa::IndexSet block(
      graph, kgoa::IndexSetOptions{kgoa::StorageTier::kBlock});
  kgoa::ExplorationSession session(graph);
  const kgoa::ChainQuery query =
      session.BuildQuery(kgoa::ExpansionKind::kOutProperty);

  kgoa::SetSimdLevel(kgoa::SimdLevel::kScalar);
  kgoa::EndToEndSeconds(block, query, budget / 10, 1);  // warm-up
  const double e2e_scalar = kgoa::EndToEndSeconds(block, query, budget, 1);
  kgoa::SetSimdLevel(best);
  const double e2e_simd = kgoa::EndToEndSeconds(block, query, budget, 1);
  const double e2e_batched = kgoa::EndToEndSeconds(
      block, query, budget, kgoa::kDefaultWalkBatch);
  const double e2e_speedup = e2e_batched > 0 ? e2e_scalar / e2e_batched : 0.0;
  std::printf(
      "end-to-end (%llu walks, block tier): scalar %.3fs, %s %.3fs, "
      "%s+batched %.3fs  (%.2fx time-to-CI)\n",
      static_cast<unsigned long long>(budget), e2e_scalar,
      kgoa::SimdLevelName(best), e2e_simd, kgoa::SimdLevelName(best),
      e2e_batched, e2e_speedup);
  registry.SetGauge("kernels.e2e_seconds.scalar", e2e_scalar);
  registry.SetGauge("kernels.e2e_seconds.simd", e2e_simd);
  registry.SetGauge("kernels.e2e_seconds.simd_batched", e2e_batched);
  registry.SetGauge("kernels.e2e_walks_per_sec.simd_batched",
                    e2e_batched > 0 ? static_cast<double>(budget) /
                                          e2e_batched
                                    : 0.0);
  registry.SetGauge("kernels.e2e_speedup", e2e_speedup);

  std::printf("kernel_trace %s\n", registry.ToJson().c_str());
  return 0;
}
