// SIMD kernel layer for the index hot path.
//
// Three data-plane primitives live here: frame-of-reference bit-unpack
// of a whole 128-entry block (BlockedColumn::DecodeBlock — the block-tier
// audits, the codec fuzzer and bench/kernel_throughput; query paths read
// packed values in place and never decode), the strided sorted search
// that finishes every raw-tier seek, and hash-table probes issued one
// walk at a time. This header is the single entry point for all three,
// each dispatched at runtime over scalar / SSE4.2 / AVX2 implementations
// (src/util/simd.h picks the level once from cpuid and KGOA_SIMD; the
// scalar path is the portable fallback and the differential-test
// baseline).
//
// Every kernel is a pure function of its inputs: the differential suites
// (tests/kernels_test.cc) and the block-codec fuzzer run identical inputs
// through every supported level and compare outputs bit for bit.
//
// The vector implementations live in src/index/kernels.cc behind
// per-function target attributes, so the library builds without -march
// flags; the kgoa_lint `raw-intrinsic` rule keeps <immintrin.h> out of
// every other translation unit.
#ifndef KGOA_INDEX_KERNELS_H_
#define KGOA_INDEX_KERNELS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "src/util/simd.h"

namespace kgoa {
namespace kernels {

// ---------------------------------------------------------------------------
// Block decode
// ---------------------------------------------------------------------------

// Frame-of-reference bit-unpack: out[i] = base + bits[i] for `count`
// width-bit values packed LSB-first starting at `in`. `in_end` bounds the
// READABLE buffer (the whole payload, not the block): the AVX2 path
// issues 32-byte unaligned loads and falls back to scalar extraction for
// groups whose load would cross `in_end`. width <= 32; width == 0 fills
// `base`.
void UnpackBits(const uint8_t* in, const uint8_t* in_end, uint32_t count,
                uint32_t base, uint32_t width, uint32_t* out);

// ---------------------------------------------------------------------------
// Branchless sorted search
// ---------------------------------------------------------------------------

// First index i in the sorted strided run base[0], base[stride], ...,
// base[(n - 1) * stride] with base[i * stride] >= v — one component of a
// sorted Triple run on the raw tier (stride 3). The AVX2 path narrows by
// conditional-move binary steps, then gathers 8 strided keys per step and
// counts those < v (no data-dependent branches, no early exit).
uint32_t LowerBoundStridedU32(const uint32_t* base, uint32_t stride,
                              uint32_t n, uint32_t v);

// First index with base[i * stride] > v, same contract.
uint32_t UpperBoundStridedU32(const uint32_t* base, uint32_t stride,
                              uint32_t n, uint32_t v);

// ---------------------------------------------------------------------------
// Batched probes
// ---------------------------------------------------------------------------

// Software-prefetch pipeline depth for batched probes: far enough ahead
// to cover a memory load, close enough that prefetched lines survive in
// L1 until consumed. Exported as `simd.probe_prefetch_depth`.
inline constexpr std::size_t kProbePrefetchDepth = 8;

// Runs `consume(i)` for i in [0, n) with `prefetch(j)` issued
// kProbePrefetchDepth iterations ahead — the generalized form of the
// reach cache's prefetch-then-probe flush. `consume` side effects execute
// strictly in index order, so order-sensitive accumulation (the
// determinism contract) is preserved.
template <typename PrefetchFn, typename ConsumeFn>
void PrefetchPipeline(std::size_t n, PrefetchFn&& prefetch,
                      ConsumeFn&& consume) {
  const std::size_t depth = std::min(kProbePrefetchDepth, n);
  for (std::size_t i = 0; i < depth; ++i) prefetch(i);
  for (std::size_t i = 0; i < n; ++i) {
    if (i + depth < n) prefetch(i + depth);
    consume(i);
  }
}

// Batched table probe: out-of-order prefetch, in-order Find. Works with
// any table exposing Prefetch(key) and Find(key) (FlatTable,
// ShardedFlatTable). `consume(i, value_ptr)` runs in index order.
template <typename Table, typename Key, typename ConsumeFn>
void ProbeBatch(const Table& table, const Key* keys, std::size_t n,
                ConsumeFn&& consume) {
  PrefetchPipeline(
      n, [&](std::size_t i) { table.Prefetch(keys[i]); },
      [&](std::size_t i) { consume(i, table.Find(keys[i])); });
}

}  // namespace kernels
}  // namespace kgoa

#endif  // KGOA_INDEX_KERNELS_H_
