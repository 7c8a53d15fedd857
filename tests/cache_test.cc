// Tests for the in-network LRU packet cache (paper §4).
#include "core/cache.h"

#include <gtest/gtest.h>

namespace jtp::core {
namespace {

Packet data(FlowId flow, SeqNo seq) {
  Packet p;
  p.type = PacketType::kData;
  p.flow = flow;
  p.seq = seq;
  return p;
}

TEST(PacketCache, RejectsZeroCapacity) {
  EXPECT_THROW(PacketCache(0), std::invalid_argument);
}

TEST(PacketCache, InsertThenLookup) {
  PacketCache c(10);
  c.insert(data(1, 5));
  const auto hit = c.lookup(1, 5);
  ASSERT_TRUE(hit != nullptr);
  EXPECT_EQ(hit->seq, 5u);
  EXPECT_EQ(hit->flow, 1u);
  EXPECT_EQ(c.hits(), 1u);
}

TEST(PacketCache, MissReturnsNullopt) {
  PacketCache c(10);
  EXPECT_EQ(c.lookup(1, 5), nullptr);
  EXPECT_EQ(c.misses(), 1u);
}

TEST(PacketCache, IgnoresAcks) {
  PacketCache c(10);
  Packet ack;
  ack.type = PacketType::kAck;
  ack.flow = 1;
  ack.seq = 7;
  c.insert(ack);
  EXPECT_EQ(c.size(), 0u);
}

TEST(PacketCache, FlowsAreDistinct) {
  PacketCache c(10);
  c.insert(data(1, 5));
  c.insert(data(2, 5));
  EXPECT_EQ(c.size(), 2u);
  EXPECT_NE(c.lookup(1, 5), nullptr);
  EXPECT_NE(c.lookup(2, 5), nullptr);
}

TEST(PacketCache, EvictsLeastRecentlyManipulated) {
  PacketCache c(3);
  c.insert(data(1, 0));
  c.insert(data(1, 1));
  c.insert(data(1, 2));
  c.insert(data(1, 3));  // evicts seq 0
  EXPECT_FALSE(c.contains(1, 0));
  EXPECT_TRUE(c.contains(1, 1));
  EXPECT_EQ(c.evictions(), 1u);
}

TEST(PacketCache, LookupRefreshesLru) {
  PacketCache c(3);
  c.insert(data(1, 0));
  c.insert(data(1, 1));
  c.insert(data(1, 2));
  // Touch seq 0: it becomes most recent; inserting evicts seq 1 instead.
  ASSERT_NE(c.lookup(1, 0), nullptr);
  c.insert(data(1, 3));
  EXPECT_TRUE(c.contains(1, 0));
  EXPECT_FALSE(c.contains(1, 1));
}

TEST(PacketCache, ReinsertRefreshesLru) {
  PacketCache c(3);
  c.insert(data(1, 0));
  c.insert(data(1, 1));
  c.insert(data(1, 2));
  c.insert(data(1, 0));  // duplicate: refresh, no growth
  EXPECT_EQ(c.size(), 3u);
  c.insert(data(1, 3));
  EXPECT_TRUE(c.contains(1, 0));
  EXPECT_FALSE(c.contains(1, 1));
}

TEST(PacketCache, ContainsDoesNotRefresh) {
  PacketCache c(2);
  c.insert(data(1, 0));
  c.insert(data(1, 1));
  EXPECT_TRUE(c.contains(1, 0));  // probe only
  c.insert(data(1, 2));           // should evict 0 (not refreshed)
  EXPECT_FALSE(c.contains(1, 0));
}

TEST(PacketCache, CachedCopyStripsRetransmissionMarkers) {
  PacketCache c(4);
  Packet p = data(1, 9);
  p.is_source_retransmission = true;
  p.is_cache_retransmission = true;
  c.insert(p);
  const auto hit = c.lookup(1, 9);
  ASSERT_TRUE(hit != nullptr);
  EXPECT_FALSE(hit->is_source_retransmission);
  EXPECT_FALSE(hit->is_cache_retransmission);
}

TEST(PacketCache, EraseFlowRemovesOnlyThatFlow) {
  PacketCache c(10);
  for (SeqNo s = 0; s < 4; ++s) c.insert(data(1, s));
  for (SeqNo s = 0; s < 3; ++s) c.insert(data(2, s));
  c.erase_flow(1);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_FALSE(c.contains(1, 0));
  EXPECT_TRUE(c.contains(2, 0));
}

// Slots freed by erase_flow are reused before the slab grows, and the
// LRU order stays exact across reuse, growth and eviction.
TEST(PacketCache, FreedSlotsAndGrowthKeepLruOrder) {
  PacketCache c(6);
  for (SeqNo s = 0; s < 3; ++s) c.insert(data(1, s));
  for (SeqNo s = 0; s < 2; ++s) c.insert(data(2, s));
  c.erase_flow(1);  // three free slots, two live entries
  for (SeqNo s = 0; s < 5; ++s) c.insert(data(3, s));
  EXPECT_EQ(c.size(), 6u);
  EXPECT_EQ(c.evictions(), 1u);
  EXPECT_FALSE(c.contains(2, 0));  // least recently manipulated
  EXPECT_TRUE(c.contains(2, 1));
  c.insert(data(4, 0));
  EXPECT_FALSE(c.contains(2, 1));
  for (SeqNo s = 0; s < 5; ++s) EXPECT_TRUE(c.contains(3, s)) << s;
  ASSERT_NE(c.lookup(4, 0), nullptr);
  EXPECT_EQ(c.lookup(4, 0)->seq, 0u);
}

// The bucket array starts small, doubles as the live count grows, and
// stops at 2x capacity rounded to a power of two; lookups, LRU order and
// erase_flow are the same before and after each rehash.
TEST(PacketCache, BucketsGrowWithLiveCountAcrossRehash) {
  EXPECT_EQ(PacketCache(3).bucket_count(), 8u);  // capped below the start
  PacketCache c(100);
  EXPECT_EQ(c.bucket_count(), 16u);
  for (SeqNo s = 0; s < 8; ++s) c.insert(data(1, s));
  EXPECT_EQ(c.bucket_count(), 16u);  // at half load: no rehash yet
  ASSERT_NE(c.lookup(1, 0), nullptr);  // (1,0) becomes most recent
  c.insert(data(2, 0));
  EXPECT_EQ(c.bucket_count(), 32u);
  for (SeqNo s = 1; s < 92; ++s) c.insert(data(2, s));
  EXPECT_EQ(c.size(), 100u);
  EXPECT_EQ(c.bucket_count(), 256u);  // next_pow2(2 * 100)
  for (SeqNo s = 0; s < 8; ++s) EXPECT_TRUE(c.contains(1, s)) << s;
  for (SeqNo s = 0; s < 92; ++s) EXPECT_TRUE(c.contains(2, s)) << s;
  // Eviction follows the LRU order set before the rehashes: (1,1)..(1,7),
  // then the refreshed (1,0), then flow 2 oldest first.
  for (SeqNo s = 0; s < 7; ++s) c.insert(data(3, s));
  EXPECT_TRUE(c.contains(1, 0));
  for (SeqNo s = 1; s < 8; ++s) EXPECT_FALSE(c.contains(1, s)) << s;
  c.insert(data(3, 7));
  EXPECT_FALSE(c.contains(1, 0));
  EXPECT_TRUE(c.contains(2, 0));
  c.insert(data(3, 8));
  EXPECT_FALSE(c.contains(2, 0));
  EXPECT_EQ(c.bucket_count(), 256u);
  c.erase_flow(2);
  EXPECT_EQ(c.size(), 9u);
  for (SeqNo s = 0; s < 9; ++s) {
    ASSERT_NE(c.lookup(3, s), nullptr) << s;
    EXPECT_EQ(c.lookup(3, s)->seq, s);
  }
}

TEST(PacketCache, CapacityOneWorks) {
  PacketCache c(1);
  c.insert(data(1, 0));
  c.insert(data(1, 1));
  EXPECT_EQ(c.size(), 1u);
  EXPECT_TRUE(c.contains(1, 1));
  EXPECT_FALSE(c.contains(1, 0));
}

TEST(PacketCache, StressManyFlows) {
  PacketCache c(100);
  for (FlowId f = 0; f < 20; ++f)
    for (SeqNo s = 0; s < 50; ++s) c.insert(data(f, s));
  EXPECT_EQ(c.size(), 100u);
  EXPECT_EQ(c.insertions(), 1000u);
  EXPECT_EQ(c.evictions(), 900u);
  // The most recent 100 inserts survive.
  for (SeqNo s = 0; s < 50; ++s) EXPECT_TRUE(c.contains(19, s));
  for (SeqNo s = 0; s < 50; ++s) EXPECT_TRUE(c.contains(18, s));
  EXPECT_FALSE(c.contains(17, 49));
}

}  // namespace
}  // namespace jtp::core
