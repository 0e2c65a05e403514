#include "src/index/block_codec.h"

#include <algorithm>
#include <bit>

#include "src/index/kernels.h"

namespace kgoa {

namespace {

void AppendBitPacked(const uint32_t* v, uint32_t count, uint32_t base,
                     uint8_t width, std::vector<uint8_t>& out) {
  uint64_t acc = 0;
  int bits = 0;
  for (uint32_t i = 0; i < count; ++i) {
    acc |= static_cast<uint64_t>(v[i] - base) << bits;
    bits += width;
    while (bits >= 8) {
      out.push_back(static_cast<uint8_t>(acc));
      acc >>= 8;
      bits -= 8;
    }
  }
  if (bits > 0) out.push_back(static_cast<uint8_t>(acc));
}

// First position in [from, end) of `col` whose value fails `before` (a
// predicate true on a prefix of the window): gallop, then bisect.
template <typename Before>
uint32_t Gallop(const BlockedColumn& col, uint32_t from, uint32_t end,
                Before before) {
  KGOA_DCHECK_LE(from, end);
  KGOA_DCHECK_LE(end, col.size());
  if (from == end || !before(col.Get(from))) return from;
  // Doubling steps from `from`; invariant: before(col.Get(lo)).
  uint64_t lo = from;
  uint64_t step = 1;
  while (lo + step < end &&
         before(col.Get(static_cast<uint32_t>(lo + step)))) {
    lo += step;
    step <<= 1;
  }
  // Bisect: the answer is past lo and at most `last`.
  auto first = static_cast<uint32_t>(lo + 1);
  auto last = static_cast<uint32_t>(std::min<uint64_t>(end, lo + step));
  while (first < last) {
    const uint32_t mid = first + (last - first) / 2;
    if (before(col.Get(mid))) {
      first = mid + 1;
    } else {
      last = mid;
    }
  }
  return first;
}

}  // namespace

BlockedColumn::BlockedColumn(const uint32_t* values, uint32_t n) : size_(n) {
  // Directory first, so the payload is allocated once at its exact size.
  directory_.reserve((n + kCodecBlockSize - 1) / kCodecBlockSize);
  uint64_t bytes = 0;
  for (uint32_t begin = 0; begin < n; begin += kCodecBlockSize) {
    const uint32_t count = std::min(kCodecBlockSize, n - begin);
    const auto [min_it, max_it] =
        std::minmax_element(values + begin, values + begin + count);
    BlockMeta meta;
    meta.byte_offset = bytes;
    meta.min = *min_it;
    meta.count = static_cast<uint16_t>(count);
    meta.bit_width = static_cast<uint8_t>(std::bit_width(*max_it - *min_it));
    bytes += (static_cast<uint64_t>(count) * meta.bit_width + 7) / 8;
    directory_.push_back(meta);
  }
  payload_.reserve(bytes + kPayloadPadding);
  for (uint32_t b = 0; b < num_blocks(); ++b) {
    const BlockMeta& meta = directory_[b];
    AppendBitPacked(values + b * kCodecBlockSize, meta.count, meta.min,
                    meta.bit_width, payload_);
  }
  payload_.resize(bytes + kPayloadPadding, 0);
}

uint32_t BlockedColumn::DecodeBlock(uint32_t block,
                                    std::span<uint32_t> out) const {
  KGOA_DCHECK_LT(block, num_blocks());
  // Capacity contract: a full block's worth of room even for the short
  // final block — see the header comment.
  KGOA_CHECK_GE(out.size(), kCodecBlockSize);
  const BlockMeta& meta = directory_[block];
  kernels::UnpackBits(payload_.data() + meta.byte_offset,
                      payload_.data() + payload_.size(), meta.count, meta.min,
                      meta.bit_width, out.data());
  return meta.count;
}

uint32_t BlockedColumn::SeekGE(uint32_t from, uint32_t end, uint32_t v) const {
  return Gallop(*this, from, end, [v](uint32_t x) { return x < v; });
}

uint32_t BlockedColumn::SeekGT(uint32_t from, uint32_t end, uint32_t v) const {
  return Gallop(*this, from, end, [v](uint32_t x) { return x <= v; });
}

void BlockedColumn::CheckInvariants(const uint32_t* expected) const {
  uint64_t total = 0;
  uint64_t next_offset = 0;
  uint32_t vals[kCodecBlockSize];
  for (uint32_t b = 0; b < num_blocks(); ++b) {
    const BlockMeta& meta = directory_[b];
    KGOA_CHECK_EQ(meta.byte_offset, next_offset);
    KGOA_CHECK_GT(meta.count, 0u);
    KGOA_CHECK_LE(meta.count, kCodecBlockSize);
    const uint32_t count = DecodeBlock(b, vals);
    KGOA_CHECK_EQ(count, meta.count);
    uint32_t lo = vals[0];
    uint32_t hi = vals[0];
    for (uint32_t i = 0; i < count; ++i) {
      lo = std::min(lo, vals[i]);
      hi = std::max(hi, vals[i]);
      if (expected != nullptr) {
        KGOA_CHECK_EQ(vals[i], expected[b * kCodecBlockSize + i]);
      }
    }
    KGOA_CHECK_EQ(lo, meta.min);
    KGOA_CHECK_EQ(static_cast<uint32_t>(meta.bit_width),
                  static_cast<uint32_t>(std::bit_width(hi - lo)));
    next_offset += (static_cast<uint64_t>(count) * meta.bit_width + 7) / 8;
    total += count;
  }
  KGOA_CHECK_EQ(total, size_);
  // Exact: the packed bytes plus the padding every Get load relies on.
  KGOA_CHECK_EQ(payload_.size(), next_offset + kPayloadPadding);
}

}  // namespace kgoa
