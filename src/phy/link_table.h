// Packed open-addressed table for per-link PHY state.
//
// The channel keeps lazily-created state per link (fading dwell, loss
// stream), keyed by a packed 64-bit node pair, and looks it up once per
// MAC attempt. Earlier revisions modeled that as unordered_map; at scale the
// map's node-per-entry layout costs an allocation per link and a pointer
// chase per attempt. This table stores values in one contiguous slab
// (reserved up front from the expected link count) and resolves keys
// through a power-of-two bucket array with linear probing — the hot-path
// lookup is one hash, a short probe run over a dense index array, and a
// single slab access.
//
// Layout invariants:
//  - Slots are trivially copyable and never referenced by buckets while
//    free; erased slots chain through an intrusive freelist threaded
//    through the key field, so reuse costs no allocation.
//  - The bucket array holds slot indices (kNil = empty) and is kept
//    tombstone-free by backward-shift deletion, so probe runs never
//    degrade as links churn.
//  - References returned by find/find_or_create stay valid only until
//    the next insert (the slab may grow); the channel holds them
//    transiently within one call.
//
// LinkTableStats is the observable contract, mirroring sim::PoolStats and
// routing::RoutingStats: a probe high-water near the bucket count or a
// rehash after construction means the expected-density reserve was wrong.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/random.h"

namespace jtp::phy {

struct LinkTableStats {
  std::uint64_t lookups = 0;   // find + find_or_create calls
  std::uint64_t inserts = 0;   // slots created (misses that materialized)
  std::uint64_t rehashes = 0;  // bucket-array doublings after construction
  std::uint64_t probe_hw = 0;  // longest single-operation probe run
};

template <typename V>
class PackedLinkTable {
  static_assert(std::is_trivially_copyable_v<V>,
                "PackedLinkTable slots must be trivially copyable");

 public:
  // `expected` sizes the slab and the bucket array so that steady state
  // neither reallocates nor rehashes; 0 means "small" (the testbed and
  // unit-test regime).
  explicit PackedLinkTable(std::size_t expected = 0) {
    if (expected < kMinExpected) expected = kMinExpected;
    slots_.reserve(expected);
    std::size_t b = kMinBuckets;
    // Keep the planned load factor under ~0.7: probe runs stay O(1).
    while (b * kMaxLoadNum < expected * kMaxLoadDen) b <<= 1;
    buckets_.assign(b, kNil);
  }

  std::size_t size() const { return live_; }
  std::size_t bucket_count() const { return buckets_.size(); }
  const LinkTableStats& stats() const { return stats_; }

  // Pointer to the value for `key`, or nullptr. Valid until next insert.
  V* find(std::uint64_t key) {
    ++stats_.lookups;
    const std::size_t pos = probe(key);
    if (buckets_[pos] == kNil) return nullptr;
    return &slots_[buckets_[pos]].value;
  }

  // The value for `key`, created via `make()` (returning V) on first
  // sight. Reference valid until the next insert.
  template <typename MakeFn>
  V& find_or_create(std::uint64_t key, MakeFn&& make) {
    ++stats_.lookups;
    std::size_t pos = probe(key);
    if (buckets_[pos] != kNil) return slots_[buckets_[pos]].value;
    ++stats_.inserts;
    if ((live_ + 1) * kMaxLoadDen > buckets_.size() * kMaxLoadNum) {
      rehash(buckets_.size() * 2);
      pos = probe(key);
    }
    std::uint32_t idx;
    if (free_head_ != kNil) {
      idx = free_head_;
      free_head_ = static_cast<std::uint32_t>(slots_[idx].key);
      slots_[idx].key = key;
      slots_[idx].value = make();
    } else {
      idx = static_cast<std::uint32_t>(slots_.size());
      slots_.push_back(Slot{key, make()});
    }
    buckets_[pos] = idx;
    ++live_;
    return slots_[idx].value;
  }

  // Removes `key` if present. The bucket run is re-packed in place
  // (backward shift), so the table never accumulates tombstones.
  bool erase(std::uint64_t key) {
    ++stats_.lookups;
    std::size_t hole = probe(key);
    if (buckets_[hole] == kNil) return false;
    const std::uint32_t idx = buckets_[hole];
    slots_[idx].key = free_head_;  // intrusive freelist through the key
    free_head_ = idx;
    --live_;
    const std::size_t mask = buckets_.size() - 1;
    std::size_t j = (hole + 1) & mask;
    while (buckets_[j] != kNil) {
      const std::size_t ideal = home(slots_[buckets_[j]].key);
      // Entry at j may fill the hole iff the hole lies within its probe
      // run, i.e. no closer to its home than j is (cyclic distances).
      if (((j - ideal) & mask) >= ((j - hole) & mask)) {
        buckets_[hole] = buckets_[j];
        hole = j;
      }
      j = (j + 1) & mask;
    }
    buckets_[hole] = kNil;
    return true;
  }

 private:
  struct Slot {
    std::uint64_t key;
    V value;
  };
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::size_t kMinExpected = 64;
  static constexpr std::size_t kMinBuckets = 128;  // pow2 > kMinExpected/0.7
  static constexpr std::size_t kMaxLoadNum = 7;    // load <= 7/10
  static constexpr std::size_t kMaxLoadDen = 10;

  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>(sim::splitmix64(key)) &
           (buckets_.size() - 1);
  }

  // First bucket holding `key`, or the empty bucket that ends its run.
  std::size_t probe(std::uint64_t key) {
    const std::size_t mask = buckets_.size() - 1;
    std::size_t pos = home(key);
    std::uint64_t run = 1;
    while (buckets_[pos] != kNil && slots_[buckets_[pos]].key != key) {
      pos = (pos + 1) & mask;
      ++run;
    }
    if (run > stats_.probe_hw) stats_.probe_hw = run;
    return pos;
  }

  void rehash(std::size_t n_buckets) {
    ++stats_.rehashes;
    std::vector<std::uint32_t> old;
    old.swap(buckets_);
    buckets_.assign(n_buckets, kNil);
    const std::size_t mask = n_buckets - 1;
    for (const std::uint32_t idx : old) {
      if (idx == kNil) continue;
      std::size_t pos = home(slots_[idx].key);
      while (buckets_[pos] != kNil) pos = (pos + 1) & mask;
      buckets_[pos] = idx;
    }
  }

  std::vector<Slot> slots_;            // slab: live + freelisted values
  std::vector<std::uint32_t> buckets_; // pow2 index array, kNil = empty
  std::uint32_t free_head_ = kNil;
  std::size_t live_ = 0;
  LinkTableStats stats_;
};

}  // namespace jtp::phy
