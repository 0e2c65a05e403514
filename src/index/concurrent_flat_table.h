// Sharded concurrent open-addressing hash table for shared memo caches.
//
// FlatTable (flat_table.h) replaced the node-based hash maps on the
// single-threaded index hot path; this header is its concurrent sibling for
// caches that are *shared across worker threads* — above all the
// reach-probability memos of Audit Join's distinct estimator
// (src/core/reach.h), whose amortization argument (paper §IV-D) only pays
// off when every worker probes one cache instead of refilling a private
// copy.
//
// Design:
//   * Power-of-two shards selected by the top bits of a Fibonacci-mixed
//     key hash; each shard's arrays bucket on the bits directly below, so
//     shard selection and in-shard placement never alias. Each shard is an
//     independent open-addressing array guarded by a striped insert mutex
//     that readers never take.
//   * Lock-free read path: slot keys are std::atomic<Key>. An insert
//     writes the value first and publishes the key with a release store,
//     so a reader that acquire-loads a matching key always observes the
//     fully written value.
//   * Growth by migration: when a shard would exceed load factor 1/2 the
//     lock holder allocates a doubled array, re-inserts every entry, and
//     publishes it with a release store to the shard's `live` pointer.
//     Retired arrays stay alive (in the shard's arena list) until
//     Clear()/destruction, so concurrent readers holding the old pointer
//     keep probing a complete, immutable array — and pointers returned by
//     Find() stay valid for the table's lifetime.
//   * The intended use is a *deterministic* memo: the value stored for a
//     key is a pure function of the key and immutable inputs, so two
//     threads racing to insert the same key insert bit-identical values
//     and the race is benign — whichever insert wins, every reader sees
//     the same value. Insert() contract-checks this (KGOA_DCHECK on
//     bit-equality) whenever it finds the key already resident.
//   * Atomic per-shard hit/miss/contention counters (relaxed), aggregated
//     by stats(). They are exact totals but scheduling-dependent: a probe
//     that another thread raced to fill counts as a hit on one run and a
//     miss on the next. Estimates built from the cached *values* remain
//     bit-identical; only the counters vary (see DESIGN.md, "Shared reach
//     cache").
//
// Thread-safety: Find/Prefetch/Insert/FindOrCompute/stats/size may be
// called concurrently. Clear() and the destructor require exclusive
// access.
#ifndef KGOA_INDEX_CONCURRENT_FLAT_TABLE_H_
#define KGOA_INDEX_CONCURRENT_FLAT_TABLE_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "src/util/contract.h"
#include "src/util/sync.h"

namespace kgoa {

// Aggregated view over every shard; see ShardedFlatTable::stats().
struct ShardedTableStats {
  uint64_t hits = 0;               // Find() probes that found the key
  uint64_t misses = 0;             // Find() probes that did not
  uint64_t insert_contention = 0;  // Insert() calls that waited on a lock
  uint64_t duplicate_inserts = 0;  // Insert() calls that lost a benign race
  uint64_t entries = 0;            // resident keys
  uint64_t memory_bytes = 0;       // live + retired slot arrays
};

// Key is an unsigned integer type; `empty_key` must never be inserted.
// Value must be trivially copyable (it is published across threads by a
// plain store sequenced before the key's release store).
template <typename Key, typename Value>
class ShardedFlatTable {
  static_assert(std::is_trivially_copyable_v<Value>);
  static_assert(std::is_unsigned_v<Key>);

 public:
  // 2^shard_bits shards, each starting at `initial_shard_capacity` slots
  // (rounded up to a power of two >= 8).
  explicit ShardedFlatTable(Key empty_key, int shard_bits = 4,
                            std::size_t initial_shard_capacity = 32)
      : empty_key_(empty_key),
        shard_bits_(shard_bits),
        shards_(std::size_t{1} << shard_bits) {
    KGOA_CHECK(shard_bits >= 0 && shard_bits <= 16);
    initial_log2_ = 3;
    while ((std::size_t{1} << initial_log2_) < initial_shard_capacity) {
      ++initial_log2_;
    }
    // Construction is single-threaded, but InstallFreshArray carries a
    // REQUIRES(shard.mutex) contract — take the (uncontended) lock rather
    // than punch an analysis hole.
    for (Shard& shard : shards_) {
      MutexLock lock(shard.mutex);
      InstallFreshArray(shard);
    }
  }

  ShardedFlatTable(const ShardedFlatTable&) = delete;
  ShardedFlatTable& operator=(const ShardedFlatTable&) = delete;

  // Lock-free lookup. The returned pointer stays valid (and its value
  // immutable) until Clear() or destruction, even across shard growth.
  const Value* Find(Key key) const {
    KGOA_DCHECK_NE(key, empty_key_);
    const uint64_t h = Mix(key);
    const Shard& shard = ShardOf(h);
    const Array* array = shard.live.load(std::memory_order_acquire);
    std::size_t probes = 0;
    for (std::size_t i = array->Bucket(h);; i = (i + 1) & array->mask) {
      KGOA_DCHECK_LE(++probes, array->mask + 1);
      const Slot& slot = array->slots[i];
      const Key resident = slot.key.load(std::memory_order_acquire);
      if (resident == key) {
        shard.hits.fetch_add(1, std::memory_order_relaxed);
        return &slot.value;
      }
      if (resident == empty_key_) {
        shard.misses.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
      }
    }
  }

  // Issues a software prefetch for `key`'s home cache line, so a batched
  // probe loop (collect keys, prefetch all, then Find all) overlaps the
  // memory latency of consecutive lookups.
  void Prefetch(Key key) const {
    const uint64_t h = Mix(key);
    const Shard& shard = ShardOf(h);
    const Array* array = shard.live.load(std::memory_order_acquire);
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(&array->slots[array->Bucket(h)], /*rw=*/0,
                       /*locality=*/1);
#else
    (void)array;
#endif
  }

  // Inserts `key` -> `value` under the shard's striped lock and returns
  // the canonical resident value: `value` if this call inserted it, the
  // previously resident value if another thread won the race. For the
  // deterministic-memo use both are bit-identical (contract-checked).
  Value Insert(Key key, Value value) {
    KGOA_DCHECK_NE(key, empty_key_);
    const uint64_t h = Mix(key);
    Shard& shard = ShardOf(h);
    // Try-then-lock so the contention counter records real waits; the
    // guard then adopts whichever path acquired the stripe.
    if (!shard.mutex.TryLock()) {
      shard.contention.fetch_add(1, std::memory_order_relaxed);
      shard.mutex.Lock();
    }
    MutexLock lock(shard.mutex, kAdoptLock);
    Array* array = shard.live.load(std::memory_order_relaxed);
    std::size_t i = array->Bucket(h);
    std::size_t probes = 0;
    for (;; i = (i + 1) & array->mask) {
      KGOA_DCHECK_LE(++probes, array->mask + 1);
      const Key resident = array->slots[i].key.load(std::memory_order_relaxed);
      if (resident == key) {
        // Benign determinism race: another thread computed this entry
        // first. The memo contract says both computed the same bits.
        KGOA_DCHECK_MSG(
            std::memcmp(&array->slots[i].value, &value, sizeof(Value)) == 0,
            "racing inserts for one key produced different values");
        shard.duplicates.fetch_add(1, std::memory_order_relaxed);
        return array->slots[i].value;
      }
      if (resident == empty_key_) break;
    }
    if ((shard.size + 1) * 2 > array->mask + 1) {
      array = GrowLocked(shard);
      i = array->Bucket(h);
      std::size_t grow_probes = 0;
      while (array->slots[i].key.load(std::memory_order_relaxed) !=
             empty_key_) {
        KGOA_DCHECK_LE(++grow_probes, array->mask + 1);
        i = (i + 1) & array->mask;
      }
    }
    array->slots[i].value = value;
    // Release-publish the key after the value so a reader that observes
    // the key also observes the value (Find acquire-loads the key).
    array->slots[i].key.store(key, std::memory_order_release);
    ++shard.size;
    return value;
  }

  // Memo flow: Find, else Insert(compute()). `compute` runs outside the
  // lock; racing threads may compute redundantly but insert identical
  // values, and every caller gets the canonical resident value.
  template <typename Compute>
  Value FindOrCompute(Key key, Compute&& compute) {
    if (const Value* found = Find(key)) return *found;
    return Insert(key, compute());
  }

  std::size_t size() const {
    std::size_t total = 0;
    for (const Shard& shard : shards_) {
      MutexLock lock(shard.mutex);
      total += shard.size;
    }
    return total;
  }

  ShardedTableStats stats() const {
    ShardedTableStats s;
    for (const Shard& shard : shards_) {
      s.hits += shard.hits.load(std::memory_order_relaxed);
      s.misses += shard.misses.load(std::memory_order_relaxed);
      s.insert_contention += shard.contention.load(std::memory_order_relaxed);
      s.duplicate_inserts += shard.duplicates.load(std::memory_order_relaxed);
      MutexLock lock(shard.mutex);
      s.entries += shard.size;
      for (const auto& array : shard.arenas) {
        s.memory_bytes += (array->mask + 1) * sizeof(Slot);
      }
    }
    return s;
  }

  int num_shards() const { return static_cast<int>(shards_.size()); }

  // Drops every entry, retired array and counter. NOT thread-safe: the
  // caller must guarantee no concurrent Find/Insert and must not hold
  // pointers returned by earlier Find calls.
  void Clear() {
    for (Shard& shard : shards_) {
      MutexLock lock(shard.mutex);
      shard.arenas.clear();
      shard.live.store(nullptr, std::memory_order_relaxed);
      shard.size = 0;
      shard.hits.store(0, std::memory_order_relaxed);
      shard.misses.store(0, std::memory_order_relaxed);
      shard.contention.store(0, std::memory_order_relaxed);
      shard.duplicates.store(0, std::memory_order_relaxed);
      InstallFreshArray(shard);
    }
  }

 private:
  struct Slot {
    std::atomic<Key> key;
    Value value;
  };

  struct Array {
    Array(int log2_capacity, int shard_bits, Key empty_key)
        : mask((std::size_t{1} << log2_capacity) - 1),
          log2(log2_capacity),
          bucket_shift(64 - log2_capacity),
          shard_bits(shard_bits),
          slots(new Slot[mask + 1]) {
      for (std::size_t i = 0; i <= mask; ++i) {
        // Pre-publication writes: the array is not visible to readers yet.
        slots[i].key.store(empty_key, std::memory_order_relaxed);
        slots[i].value = Value{};
      }
    }

    // Home bucket from the hash bits directly below the shard-selection
    // bits, so every shard spreads over its whole array.
    std::size_t Bucket(uint64_t mixed) const {
      return static_cast<std::size_t>((mixed << shard_bits) >> bucket_shift);
    }

    std::size_t mask;
    int log2;
    int bucket_shift;
    int shard_bits;
    std::unique_ptr<Slot[]> slots;
  };

  struct alignas(64) Shard {
    mutable Mutex mutex;
    // The reader-visible array: readers acquire-load it lock-free and may
    // keep probing a retired generation; only the *pointer swap* is
    // writer-side work (done under `mutex` in GrowLocked/Clear).
    std::atomic<Array*> live{nullptr};
    // Every array ever installed, newest last; retired arrays stay alive
    // for readers that loaded their pointer before a growth.
    std::vector<std::unique_ptr<Array>> arenas KGOA_GUARDED_BY(mutex);
    std::size_t size KGOA_GUARDED_BY(mutex) = 0;
    mutable std::atomic<uint64_t> hits{0};
    mutable std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> contention{0};
    std::atomic<uint64_t> duplicates{0};
  };

  static uint64_t Mix(Key key) {
    return static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ull;
  }

  const Shard& ShardOf(uint64_t mixed) const {
    return *ShardAt(shards_.data(), mixed);
  }
  Shard& ShardOf(uint64_t mixed) { return *ShardAt(shards_.data(), mixed); }

  // The shard slot for a mixed hash, with its bounds spelled out for the
  // optimizer: the index is below shards_.size() == 2^shard_bits_ and the
  // slot is a live element, never null. Without the hint GCC 12 under
  // -fsanitize=undefined keeps the sanitizer's null-reference branch,
  // isolates it as a path that writes the shard's counters at address
  // 0 + offset, and reports a false -Wstringop-overflow on that path.
  template <typename S>
  S* ShardAt(S* shards, uint64_t mixed) const {
    const auto i = static_cast<std::size_t>(
        shard_bits_ == 0 ? 0 : mixed >> (64 - shard_bits_));
    S* shard = shards + i;
    if (i >= shards_.size() || shard == nullptr) __builtin_unreachable();
    return shard;
  }

  void InstallFreshArray(Shard& shard) KGOA_REQUIRES(shard.mutex) {
    shard.arenas.push_back(
        std::make_unique<Array>(initial_log2_, shard_bits_, empty_key_));
    shard.live.store(shard.arenas.back().get(), std::memory_order_release);
  }

  // Doubles the shard's array and migrates every resident entry. Caller
  // holds the shard mutex; readers keep probing the old (now immutable)
  // array until they re-load `live`.
  Array* GrowLocked(Shard& shard) KGOA_REQUIRES(shard.mutex) {
    Array* old = shard.live.load(std::memory_order_relaxed);
    auto grown =
        std::make_unique<Array>(old->log2 + 1, shard_bits_, empty_key_);
    std::size_t migrated = 0;
    for (std::size_t i = 0; i <= old->mask; ++i) {
      const Key key = old->slots[i].key.load(std::memory_order_relaxed);
      if (key == empty_key_) continue;
      const uint64_t h = Mix(key);
      std::size_t j = grown->Bucket(h);
      while (grown->slots[j].key.load(std::memory_order_relaxed) !=
             empty_key_) {
        j = (j + 1) & grown->mask;
      }
      grown->slots[j].value = old->slots[i].value;
      grown->slots[j].key.store(key, std::memory_order_relaxed);
      ++migrated;
    }
    KGOA_DCHECK_EQ(migrated, shard.size);  // migration must not lose keys
    Array* result = grown.get();
    shard.arenas.push_back(std::move(grown));
    // Release-publish: readers that acquire-load `live` observe every
    // migrated slot written above.
    shard.live.store(result, std::memory_order_release);
    return result;
  }

  Key empty_key_;
  int shard_bits_;
  int initial_log2_ = 3;
  std::vector<Shard> shards_;
};

}  // namespace kgoa

#endif  // KGOA_INDEX_CONCURRENT_FLAT_TABLE_H_
