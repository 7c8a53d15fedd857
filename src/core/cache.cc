#include "core/cache.h"

#include <stdexcept>

namespace jtp::core {

namespace {
std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace

PacketCache::PacketCache(std::size_t capacity_packets)
    : capacity_(capacity_packets) {
  if (capacity_packets == 0)
    throw std::invalid_argument("PacketCache: capacity must be >= 1");
  const std::size_t nbuckets = next_pow2(2 * capacity_);
  buckets_.assign(nbuckets, kNil);
  bucket_mask_ = nbuckets - 1;
}

std::uint32_t PacketCache::find(FlowId flow, SeqNo seq) const {
  for (std::uint32_t i = buckets_[bucket_of(flow, seq)]; i != kNil;
       i = entries_[i].chain_next) {
    const PacketHeader& p = entries_[i].packet;
    if (p.flow == flow && p.seq == seq) return i;
  }
  return kNil;
}

void PacketCache::lru_unlink(std::uint32_t idx) {
  Entry& e = entries_[idx];
  if (e.lru_prev != kNil)
    entries_[e.lru_prev].lru_next = e.lru_next;
  else
    lru_head_ = e.lru_next;
  if (e.lru_next != kNil)
    entries_[e.lru_next].lru_prev = e.lru_prev;
  else
    lru_tail_ = e.lru_prev;
  e.lru_prev = e.lru_next = kNil;
}

void PacketCache::lru_push_front(std::uint32_t idx) {
  Entry& e = entries_[idx];
  e.lru_prev = kNil;
  e.lru_next = lru_head_;
  if (lru_head_ != kNil) entries_[lru_head_].lru_prev = idx;
  lru_head_ = idx;
  if (lru_tail_ == kNil) lru_tail_ = idx;
}

void PacketCache::chain_remove(std::uint32_t idx) {
  const Entry& e = entries_[idx];
  std::uint32_t* link = &buckets_[bucket_of(e.packet.flow, e.packet.seq)];
  while (*link != idx) link = &entries_[*link].chain_next;
  *link = e.chain_next;
}

void PacketCache::remove_entry(std::uint32_t idx) {
  chain_remove(idx);
  lru_unlink(idx);
  entries_[idx].chain_next = free_head_;
  free_head_ = idx;
  --live_;
}

void PacketCache::evict_one() {
  remove_entry(lru_tail_);
  ++evictions_;
}

void PacketCache::insert(const PacketHeader& p) {
  if (!p.is_data()) return;  // only data packets are cacheable
  ++insertions_;
  if (const std::uint32_t idx = find(p.flow, p.seq); idx != kNil) {
    Entry& e = entries_[idx];
    e.packet = p;
    e.packet.is_source_retransmission = false;
    e.packet.is_cache_retransmission = false;
    lru_unlink(idx);
    lru_push_front(idx);
    return;
  }
  if (live_ >= capacity_) evict_one();
  std::uint32_t idx = free_head_;
  if (idx == kNil) {
    idx = static_cast<std::uint32_t>(entries_.size());
    entries_.emplace_back();
  } else {
    free_head_ = entries_[idx].chain_next;
  }
  Entry& e = entries_[idx];
  e.packet = p;
  e.packet.is_source_retransmission = false;
  e.packet.is_cache_retransmission = false;
  const std::size_t b = bucket_of(p.flow, p.seq);
  e.chain_next = buckets_[b];
  buckets_[b] = idx;
  lru_push_front(idx);
  ++live_;
}

const PacketHeader* PacketCache::lookup(FlowId flow, SeqNo seq) {
  const std::uint32_t idx = find(flow, seq);
  if (idx == kNil) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_unlink(idx);
  lru_push_front(idx);
  return &entries_[idx].packet;
}

bool PacketCache::contains(FlowId flow, SeqNo seq) const {
  return find(flow, seq) != kNil;
}

void PacketCache::erase_flow(FlowId flow) {
  std::uint32_t i = lru_head_;
  while (i != kNil) {
    const std::uint32_t next = entries_[i].lru_next;
    if (entries_[i].packet.flow == flow) remove_entry(i);
    i = next;
  }
}

}  // namespace jtp::core
