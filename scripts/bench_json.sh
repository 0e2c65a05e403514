#!/usr/bin/env bash
# Runs the machine-readable benches and captures their trace lines as
# versioned JSON artifacts:
#
#   BENCH_reach.json  `reach_trace` from micro_sample_time — the
#                     reach-probability cache ablation.
#   BENCH_serve.json  `serve_trace` from serve_concurrency — serving-core
#                     time-to-CI under concurrency and cancellation
#                     latency.
#   BENCH_index.json  `index_trace` from index_memory — raw vs block
#                     storage-tier bytes and top-K time-to-displayed-chart.
#   BENCH_kernels.json `kernel_trace` from kernel_throughput — the SIMD
#                     kernel ablation: decode MB/s and hash probes/s
#                     scalar vs vectorized, plus end-to-end time-to-CI
#                     scalar vs SIMD vs SIMD+batched walks.
#   BENCH_update.json `update_trace` from update_load — time-to-CI and
#                     MAE on a pinned snapshot while a writer applies
#                     0% / 1% / 10% write mixes, plus compaction cost.
#
# Usage: scripts/bench_json.sh [--quick] [reach_out.json] [serve_out.json]
#                              [index_out.json] [kernels_out.json]
#                              [update_out.json]
#
#   --quick    Smoke-sized runs (KGOA_BENCH_QUICK=1) — what tier1.sh runs.
#   outputs    Default to BENCH_reach.json / BENCH_serve.json /
#              BENCH_index.json / BENCH_kernels.json / BENCH_update.json
#              in the repo root (the tracked copies).
#
# The build directory defaults to ./build; override with KGOA_BENCH_BUILD.
# Each emitted JSON has the stable key set checked at the bottom of this
# script — downstream tooling (EXPERIMENTS.md tables, regression diffs)
# may rely on those keys existing.
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
OUTS=()
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK=1 ;;
    *) OUTS+=("$arg") ;;
  esac
done
REACH_OUT="${OUTS[0]:-BENCH_reach.json}"
SERVE_OUT="${OUTS[1]:-BENCH_serve.json}"
INDEX_OUT="${OUTS[2]:-BENCH_index.json}"
KERNELS_OUT="${OUTS[3]:-BENCH_kernels.json}"
UPDATE_OUT="${OUTS[4]:-BENCH_update.json}"

BUILD="${KGOA_BENCH_BUILD:-build}"
for bin in micro_sample_time serve_concurrency index_memory \
           kernel_throughput update_load; do
  if [[ ! -x "$BUILD/bench/$bin" ]]; then
    cmake --build "$BUILD" --target "$bin" -j "$(nproc)"
  fi
done

if [[ "$QUICK" == "1" ]]; then
  # Filter that matches nothing: skip the google-benchmark loops and run
  # only the hand-timed EmitReachTrace ablation.
  RAW=$(KGOA_BENCH_QUICK=1 "$BUILD/bench/micro_sample_time" \
        --benchmark_filter='^$' 2>/dev/null)
  SERVE_RAW=$(KGOA_BENCH_QUICK=1 "$BUILD/bench/serve_concurrency" \
              2>/dev/null)
  INDEX_RAW=$(KGOA_BENCH_QUICK=1 "$BUILD/bench/index_memory" 2>/dev/null)
  KERNELS_RAW=$(KGOA_BENCH_QUICK=1 "$BUILD/bench/kernel_throughput" \
                2>/dev/null)
  UPDATE_RAW=$(KGOA_BENCH_QUICK=1 "$BUILD/bench/update_load" 2>/dev/null)
else
  RAW=$("$BUILD/bench/micro_sample_time" --benchmark_filter='^BM_Reach' \
        2>/dev/null)
  SERVE_RAW=$("$BUILD/bench/serve_concurrency" 2>/dev/null)
  INDEX_RAW=$("$BUILD/bench/index_memory" 2>/dev/null)
  KERNELS_RAW=$("$BUILD/bench/kernel_throughput" 2>/dev/null)
  UPDATE_RAW=$("$BUILD/bench/update_load" 2>/dev/null)
fi

echo "$RAW" | grep '^reach_trace ' | sed 's/^reach_trace //' > "$REACH_OUT"
echo "$SERVE_RAW" | grep '^serve_trace ' | sed 's/^serve_trace //' \
    > "$SERVE_OUT"
echo "$INDEX_RAW" | grep '^index_trace ' | sed 's/^index_trace //' \
    > "$INDEX_OUT"
echo "$KERNELS_RAW" | grep '^kernel_trace ' | sed 's/^kernel_trace //' \
    > "$KERNELS_OUT"
echo "$UPDATE_RAW" | grep '^update_trace ' | sed 's/^update_trace //' \
    > "$UPDATE_OUT"

python3 - "$REACH_OUT" "$SERVE_OUT" "$INDEX_OUT" "$KERNELS_OUT" \
    "$UPDATE_OUT" <<'EOF'
import json
import sys

def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)

def require(path, trace, counters, gauges):
    missing = sorted(counters - trace.get("counters", {}).keys())
    missing += sorted(gauges - trace.get("gauges", {}).keys())
    if missing:
        sys.exit(f"bench_json.sh: {path} is missing stable keys: {missing}")

reach_path, serve_path, index_path, kernels_path, update_path = sys.argv[1:6]

reach = load(reach_path)
require(reach_path, reach, {
    "reach.pairs", "reach.threads", "reach.hits", "reach.misses",
    "reach.contention", "reach.entries", "reach.memory_bytes",
}, {
    "reach.cold_ns", "reach.warm_shared_ns", "reach.warm_refmap_ns",
    "reach.warm_shared_mt_ns", "reach.seed_path_ns", "reach.shared_path_ns",
    "reach.speedup_shared_vs_seed", "reach.speedup_warm_vs_seed",
    "reach.speedup_warm_vs_refmap",
})
print(f"bench_json.sh: wrote {reach_path} "
      f"(warm_shared={reach['gauges']['reach.warm_shared_ns']:.1f} ns/op, "
      f"speedup_warm_vs_seed="
      f"{reach['gauges']['reach.speedup_warm_vs_seed']:.2f}x)")

serve = load(serve_path)
require(serve_path, serve, {
    "serve.threads", "serve.jobs_submitted", "serve.jobs_completed",
    "serve.jobs_cancelled", "serve.quanta", "serve.preemptions",
    "serve.walks", "serve.live_jobs", "serve.max_live_jobs",
}, {
    "serve.ci_target", "serve.solo_seconds_to_ci", "serve.solo_walks_to_ci",
    "serve.concurrent_jobs", "serve.concurrent_seconds_to_ci",
    "serve.concurrent_slowdown", "serve.cancel_latency_mean_seconds",
    "serve.cancel_latency_max_seconds", "serve.last_cancel_latency_seconds",
})
# Part 1 retires its 1 solo + 4 concurrent time-to-CI jobs with Finish(),
# so each must count as completed (Part 2's cancels count as cancelled).
if serve["counters"]["serve.jobs_completed"] < 5:
    sys.exit(f"bench_json.sh: {serve_path} has serve.jobs_completed = "
             f"{serve['counters']['serve.jobs_completed']}, expected >= 5")
print(f"bench_json.sh: wrote {serve_path} "
      f"(solo={serve['gauges']['serve.solo_seconds_to_ci']*1e3:.0f} ms, "
      f"4-way={serve['gauges']['serve.concurrent_seconds_to_ci']*1e3:.0f} ms,"
      f" cancel="
      f"{serve['gauges']['serve.cancel_latency_mean_seconds']*1e3:.2f} ms)")

index = load(index_path)
require(index_path, index, {
    "index.dbpedia-like.raw_bytes", "index.dbpedia-like.block_bytes",
    "index.lgd-like.raw_bytes", "index.lgd-like.block_bytes",
    "index.topk_pruned_walks",
}, {
    "index.ci_target",
    "index.dbpedia-like.memory_ratio", "index.dbpedia-like.compress_ms",
    "index.lgd-like.memory_ratio", "index.lgd-like.compress_ms",
    "index.memory_ratio_min", "index.full_seconds_to_converged",
    "index.topk_seconds_to_displayed", "index.topk_speedup",
})
print(f"bench_json.sh: wrote {index_path} "
      f"(block tier "
      f"{index['gauges']['index.memory_ratio_min']:.2f}x smaller, "
      f"top-K displayed chart "
      f"{index['gauges']['index.topk_speedup']:.2f}x faster than full)")

# Host-portable key set: scalar-vs-best rather than per-level keys, so the
# same keys validate on machines without AVX2 (where "simd" may be SSE4.2
# or scalar and the speedups sit near 1.0).
kernels = load(kernels_path)
require(kernels_path, kernels, {
    "kernels.simd_level", "kernels.probe_prefetch_depth",
    "kernels.default_batch_walks",
}, {
    "kernels.decode_mbps.scalar", "kernels.decode_mbps.simd",
    "kernels.decode_speedup", "kernels.probes_per_sec.serial", "kernels.probes_per_sec.batched",
    "kernels.probe_speedup", "kernels.e2e_seconds.scalar",
    "kernels.e2e_seconds.simd", "kernels.e2e_seconds.simd_batched",
    "kernels.e2e_walks_per_sec.simd_batched", "kernels.e2e_speedup",
})
print(f"bench_json.sh: wrote {kernels_path} "
      f"(decode {kernels['gauges']['kernels.decode_speedup']:.2f}x, "
      f"end-to-end {kernels['gauges']['kernels.e2e_speedup']:.2f}x "
      f"time-to-CI)")

update = load(update_path)
update_gauges = {"update.ci_target"}
for m in ("w0", "w1", "w10"):
    update_gauges |= {
        f"update.{m}_seconds_to_ci", f"update.{m}_walks_to_ci",
        f"update.{m}_mae", f"update.{m}_rel_mae",
        f"update.{m}_write_triples", f"update.{m}_compact_seconds",
    }
update_gauges |= {"update.w1_slowdown", "update.w10_slowdown"}
require(update_path, update, {
    "update.threads", "epoch.current", "epoch.base_triples",
    "epoch.live_triples", "epoch.overlay_adds", "epoch.overlay_dels",
    "epoch.batches_applied", "epoch.compactions", "epoch.snapshots_pinned",
}, update_gauges)
print(f"bench_json.sh: wrote {update_path} "
      f"(read-only={update['gauges']['update.w0_seconds_to_ci']*1e3:.0f} ms,"
      f" 10% writes={update['gauges']['update.w10_seconds_to_ci']*1e3:.0f} ms"
      f" ({update['gauges']['update.w10_slowdown']:.2f}x), compact="
      f"{update['gauges']['update.w10_compact_seconds']*1e3:.0f} ms)")
EOF
