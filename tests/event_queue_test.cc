#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.h"

namespace jtp::sim {
namespace {

TEST(EventQueue, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(3.0, [&] { order.push_back(3); });
  q.push(1.0, [&] { order.push_back(1); });
  q.push(2.0, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SimultaneousEventsFireFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    q.push(5.0, [&order, i] { order.push_back(i); });
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, NextTimeReportsEarliest) {
  EventQueue q;
  q.push(7.5, [] {});
  q.push(2.5, [] {});
  EXPECT_DOUBLE_EQ(q.next_time(), 2.5);
}

TEST(EventQueue, CancelSkipsEvent) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.push(1.0, [&] { fired = true; });
  q.push(2.0, [] {});
  q.cancel(id);
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop().fn();
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelUnknownIdIsNoop) {
  EventQueue q;
  q.push(1.0, [] {});
  q.cancel(12345);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, CancelTwiceCountsOnce) {
  EventQueue q;
  const EventId a = q.push(1.0, [] {});
  q.push(2.0, [] {});
  q.cancel(a);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, CancelHeadThenEmpty) {
  EventQueue q;
  const EventId a = q.push(1.0, [] {});
  q.cancel(a);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  const EventId a = q.push(1.0, [] {});
  q.push(2.0, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, ManyInterleavedPushPop) {
  EventQueue q;
  double last = -1.0;
  for (int i = 0; i < 1000; ++i) q.push((i * 37) % 101, [] {});
  while (!q.empty()) {
    auto ev = q.pop();
    EXPECT_GE(ev.at, last);
    last = ev.at;
  }
}

// Regression for the indexed-heap rewrite: same-instant events must fire
// in insertion order even when cancellations and re-schedules are
// interleaved between them (cancel swaps the heap tail into the hole,
// which must not perturb the FIFO tiebreak of the survivors).
TEST(EventQueue, FifoSurvivesCancelRescheduleInterleavings) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> ids;
  // 20 same-instant events; cancel every third, re-scheduling a
  // replacement (which must fire *after* all older survivors).
  for (int i = 0; i < 20; ++i)
    ids.push_back(q.push(5.0, [&order, i] { order.push_back(i); }));
  std::vector<int> expected;
  for (int i = 0; i < 20; ++i)
    if (i % 3 != 0) expected.push_back(i);
  for (int i = 0; i < 20; i += 3) q.cancel(ids[i]);
  for (int i = 0; i < 20; i += 3) {
    const int replacement = 100 + i;
    q.push(5.0, [&order, replacement] { order.push_back(replacement); });
    expected.push_back(replacement);
  }
  // A different-time event interleaved mid-stream must not disturb them.
  q.push(4.0, [&order] { order.push_back(-1); });
  expected.insert(expected.begin(), -1);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, expected);
}

TEST(EventQueue, FifoSurvivesSlotReuse) {
  // Slots freed by fired events are reused by later pushes; the FIFO
  // tiebreak must follow push order, not slot order.
  EventQueue q;
  std::vector<int> order;
  q.push(1.0, [&] { order.push_back(1); });
  q.push(1.0, [&] { order.push_back(2); });
  q.pop().fn();  // frees a slot
  q.push(1.0, [&] { order.push_back(3); });  // reuses it; fires after 2
  q.push(1.0, [&] { order.push_back(4); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueue, StaleIdAfterSlotReuseIsNoop) {
  EventQueue q;
  bool fired = false;
  const EventId a = q.push(1.0, [] {});
  q.cancel(a);  // frees the slot
  // The next push reuses the slot under a new generation.
  q.push(2.0, [&] { fired = true; });
  q.cancel(a);  // stale id: must NOT cancel the new event
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop().fn();
  EXPECT_TRUE(fired);
}

TEST(EventQueue, CancelByIdIsExactUnderHeavyChurn) {
  // Every scheduled event is either cancelled or fired, never both, with
  // cancels hitting arbitrary heap positions.
  EventQueue q;
  std::vector<EventId> ids;
  std::vector<int> fired(300, 0);
  for (int i = 0; i < 300; ++i)
    ids.push_back(
        q.push((i * 7919) % 97, [&fired, i] { fired[i] = 1; }));
  std::vector<bool> cancelled(300, false);
  for (int i = 0; i < 300; i += 2) {
    q.cancel(ids[(i * 31) % 300]);
    cancelled[(i * 31) % 300] = true;
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 300; ++i)
    EXPECT_EQ(fired[i], cancelled[i] ? 0 : 1) << i;
}

TEST(EventQueue, SlotPoolRecyclesAndTracksHighWater) {
  EventQueue q;
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 100; ++i) q.push(i, [] {});
    while (!q.empty()) q.pop();
  }
  const PoolStats st = q.slot_stats();
  EXPECT_EQ(st.capacity, 100u);  // one round's worth, never more
  EXPECT_EQ(st.high_water, 100u);
  EXPECT_EQ(st.in_use, 0u);
  EXPECT_EQ(st.reuses, 300u);  // rounds 2..4 ran entirely on the freelist
  EXPECT_EQ(q.total_scheduled(), 400u);
}

// --- SmallFn storage: a capture up to the inline limit fits ---

TEST(EventQueue, SmallCapturesStayInline) {
  EventQueue q;
  char small[SmallFn::kInlineBytes - 8] = {1};
  int sink = 0;
  q.push(1.0, [small, &sink] { sink += small[0]; });
  SmallFn fn = q.pop().fn;
  SmallFn moved = std::move(fn);  // relocates the inline capture
  EXPECT_FALSE(fn);
  moved();
  EXPECT_EQ(sink, 1);
}

// ------------------------ keyed event ordering -------------------------
// Same-instant events run in owner order (the high bits of the tie), not
// insertion order; each owner's keys come from its own counter.

TEST(KeyedOrdering, EqualTimesRunInTieOrderNotInsertionOrder) {
  Simulator sim;
  std::string order;
  // Owner 2 draws its key first but is inserted last; owner order (high
  // bits of the tie) must win over both insertion order and draw order.
  const auto tie_b = sim.draw_tie(2);
  const auto tie_a = sim.draw_tie(1);
  sim.at_keyed(1.0, tie_b, 2, [&] { order += 'b'; });
  sim.at_keyed(1.0, tie_a, 1, [&] { order += 'a'; });
  sim.run();
  EXPECT_EQ(order, "ab");
}

TEST(KeyedOrdering, DrawsAreAFunctionOfTheOwnerStreamAlone) {
  // Interleaving other owners' draws must not disturb owner 1's keys.
  Simulator a, b;
  const auto k0 = a.draw_tie(1);
  const auto k1 = a.draw_tie(1);
  (void)b.draw_tie(7);
  const auto m0 = b.draw_tie(1);
  (void)b.draw_tie(3);
  const auto m1 = b.draw_tie(1);
  EXPECT_EQ(k0, m0);
  EXPECT_EQ(k1, m1);
}

TEST(KeyedOrdering, ExecutionContextFollowsTheRunningEvent) {
  Simulator sim;
  std::uint32_t seen = 0;
  sim.at_keyed(1.0, sim.draw_tie(5), 5, [&] { seen = sim.context(); });
  sim.run();
  EXPECT_EQ(seen, 5u);
  EXPECT_EQ(sim.context(), 0u);  // restored outside the loop
}

}  // namespace
}  // namespace jtp::sim
