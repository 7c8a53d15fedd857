// In-network packet cache (paper §4).
//
// Every intermediate node keeps an LRU cache of traversing data packets so
// that a SNACK can be satisfied by the farthest-downstream node that still
// holds the packet, avoiding an end-to-end retransmission. "Recently
// manipulated" covers both insertion and a retransmission hit, so packets
// under active repair stay resident. Capacity is shared across flows.
//
// Storage: entries live in a slab that grows on demand, one entry per
// insert that finds the freelist empty, up to `capacity` entries — so a
// node that caches little costs little. An intrusive doubly-linked LRU runs
// over slab indices, plus a chained hash table (buckets sized 2× capacity,
// rounded to a power of two). Once the slab is full, insert, lookup and
// eviction perform no heap allocation; cached packets are bare
// PacketHeaders (only data packets are cacheable, and data packets carry
// no ack body).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/packet.h"
#include "core/types.h"

namespace jtp::core {

class PacketCache {
 public:
  explicit PacketCache(std::size_t capacity_packets);

  // Inserts (or refreshes) a copy of `p`. Duplicate (flow, seq) overwrites
  // and counts as a manipulation. Source/cache retransmission markers are
  // stripped: a cached copy is just a copy. Non-data packets are ignored.
  void insert(const PacketHeader& p);

  // Looks up (flow, seq); on hit, the entry is refreshed (LRU touch) and
  // a pointer to the cached header is returned (valid until the next
  // mutating call). Returns nullptr on miss.
  const PacketHeader* lookup(FlowId flow, SeqNo seq);

  // Non-refreshing probe, for tests/inspection.
  bool contains(FlowId flow, SeqNo seq) const;

  // Drops every entry of a flow (e.g. connection teardown).
  void erase_flow(FlowId flow);

  std::size_t size() const { return live_; }
  std::size_t capacity() const { return capacity_; }

  // Counters for the experiment harness.
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t insertions() const { return insertions_; }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Entry {
    PacketHeader packet;
    std::uint32_t lru_prev = kNil;
    std::uint32_t lru_next = kNil;
    std::uint32_t chain_next = kNil;  // hash chain; freelist link when free
  };

  static std::size_t hash_key(FlowId flow, SeqNo seq) {
    return static_cast<std::size_t>(
        std::hash<std::uint64_t>{}((static_cast<std::uint64_t>(flow) << 32) ^
                                   (seq * 0x9e3779b97f4a7c15ULL)));
  }
  std::size_t bucket_of(FlowId flow, SeqNo seq) const {
    return hash_key(flow, seq) & bucket_mask_;
  }

  std::uint32_t find(FlowId flow, SeqNo seq) const;
  void lru_unlink(std::uint32_t idx);
  void lru_push_front(std::uint32_t idx);
  void chain_remove(std::uint32_t idx);
  void remove_entry(std::uint32_t idx);  // unlink + back to freelist
  void evict_one();

  std::size_t capacity_;
  std::vector<Entry> entries_;           // slab, size <= capacity
  std::vector<std::uint32_t> buckets_;   // chain heads
  std::size_t bucket_mask_ = 0;
  std::uint32_t lru_head_ = kNil;  // most recently manipulated
  std::uint32_t lru_tail_ = kNil;  // eviction victim
  std::uint32_t free_head_ = kNil;  // freed slots, reused before growth
  std::size_t live_ = 0;

  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t insertions_ = 0;
};

}  // namespace jtp::core
