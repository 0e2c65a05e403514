// Compressed block storage for one trie-level column of TermIds.
//
// A BlockedColumn splits a column of n values into 128-entry blocks and
// frame-of-reference bit-packs each one: every value is stored as
// (v - block min) in ceil(log2(max - min + 1)) bits, LSB-first, so a
// block whose values cluster in a narrow band (level-1/2 columns inside
// a large trie node) packs tightly and a constant block costs 0 bits.
//
// A flat directory holds per-block metadata {byte offset, min, count,
// bit width}, 16 bytes per block. Because every block has a fixed
// width, value i of a block starts at bit i * width of its bytes: a
// point read is one directory load plus one unaligned 8-byte payload
// load, a shift, a mask and an add, with no block decode. The payload
// carries kPayloadPadding zero bytes past the last packed byte so that
// load never leaves the buffer. Seeks gallop from the cursor over point
// reads and bisect the final window, O(log d) reads for a hop of
// distance d, exactly as the raw tier gallops over its triple array.
//
// DecodeBlock unpacks a whole block through the SIMD kernel; it serves
// the audits (CheckInvariants), the fuzzer and the kernel benchmark, and
// is on no query path (scripts/kgoa_lint.py `block-decode`).
#ifndef KGOA_INDEX_BLOCK_CODEC_H_
#define KGOA_INDEX_BLOCK_CODEC_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "src/rdf/types.h"
#include "src/util/contract.h"

namespace kgoa {

// Values per block. 128 makes pos <-> block arithmetic shifts and keeps
// the directory at 1 bit per value.
inline constexpr uint32_t kCodecBlockSize = 128;

// Zero bytes appended after the last packed byte: a point read loads 8
// bytes starting at the byte that holds its value's first bit, which is
// never past the unpadded end.
inline constexpr uint32_t kPayloadPadding = 8;

// Per-block directory entry. 16 bytes per 128 values (1 bit/value), so
// four entries share a cache line and none straddles two.
struct BlockMeta {
  uint64_t byte_offset = 0;  // start of the block's bytes in the payload
  TermId min = 0;            // smallest value in the block (FOR base)
  uint16_t count = 0;        // values in the block (128 except the last)
  uint8_t bit_width = 0;     // bits per packed value, 0..32
};
static_assert(sizeof(BlockMeta) == 16);

class BlockedColumn {
 public:
  BlockedColumn() = default;

  // Encodes `values[0..n)` (a column in position order). Values may be in
  // any order; sortedness only matters for the Seek* calls below.
  BlockedColumn(const uint32_t* values, uint32_t n);

  BlockedColumn(const BlockedColumn&) = delete;
  BlockedColumn& operator=(const BlockedColumn&) = delete;
  BlockedColumn(BlockedColumn&&) = default;
  BlockedColumn& operator=(BlockedColumn&&) = default;

  uint32_t size() const { return size_; }
  uint32_t num_blocks() const {
    return static_cast<uint32_t>(directory_.size());
  }
  const BlockMeta& block_meta(uint32_t block) const {
    return directory_[block];
  }

  // Value at `pos`, read straight from the packed bytes.
  uint32_t Get(uint32_t pos) const {
    KGOA_DCHECK_LT(pos, size_);
    const BlockMeta& meta = directory_[pos / kCodecBlockSize];
    if (meta.bit_width == 0) return meta.min;
    const uint64_t bit =
        static_cast<uint64_t>(pos % kCodecBlockSize) * meta.bit_width;
    uint64_t word;
    std::memcpy(&word, payload_.data() + meta.byte_offset + bit / 8,
                sizeof(word));
    // bit % 8 <= 7 plus a width <= 32 fits the 64-bit word.
    const uint64_t mask = (uint64_t{1} << meta.bit_width) - 1;
    return meta.min + static_cast<uint32_t>((word >> (bit % 8)) & mask);
  }

  // Hints the payload cache line holding the value at `pos` — the line
  // Get(pos) will load. Issued by batched walk loops a prefetch window
  // ahead of the corresponding Get.
  void PrefetchBlock(uint32_t pos) const {
    const BlockMeta& meta = directory_[pos / kCodecBlockSize];
    const uint64_t bit =
        static_cast<uint64_t>(pos % kCodecBlockSize) * meta.bit_width;
    __builtin_prefetch(payload_.data() + meta.byte_offset + bit / 8,
                       /*rw=*/0, /*locality=*/1);
  }

  // Decodes block `block` into out[0..count); returns count. The span
  // must have capacity for a FULL block (contract-checked against
  // kCodecBlockSize even for a short final block), so the unpack kernel
  // can treat a block buffer as a fixed-size unit. Audits, fuzzing and
  // benchmarks only: query paths read through Get.
  uint32_t DecodeBlock(uint32_t block, std::span<uint32_t> out) const;

  // First position in [from, end) whose value is >= v. The caller must
  // guarantee values[from..end) is sorted ascending (a trie-node window).
  // Gallops from `from`, so a hop of distance d costs O(log d) reads.
  uint32_t SeekGE(uint32_t from, uint32_t end, uint32_t v) const;

  // First position in [from, end) whose value is > v, same contract.
  uint32_t SeekGT(uint32_t from, uint32_t end, uint32_t v) const;

  // Packed payload (padding included) plus directory bytes.
  uint64_t MemoryBytes() const {
    return static_cast<uint64_t>(payload_.size()) +
           static_cast<uint64_t>(directory_.size()) * sizeof(BlockMeta);
  }

  // Full decode audit: every block round-trips, each directory entry's
  // count, min and bit width match its decoded values, offsets are
  // contiguous and the payload is exactly the packed bytes plus
  // kPayloadPadding. O(n); tests and fuzz harnesses only.
  void CheckInvariants(const uint32_t* expected = nullptr) const;

 private:
  uint32_t size_ = 0;
  std::vector<BlockMeta> directory_;
  std::vector<uint8_t> payload_;
};

}  // namespace kgoa

#endif  // KGOA_INDEX_BLOCK_CODEC_H_
