// Tests for the hot-path memory pools: PacketPool freelist/high-water
// accounting, pool reuse across Simulator::reset, and the steady-state
// zero-growth contract of the event and packet pools under a real
// delivery pipeline (pinned by pool high-water marks).
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/packet.h"
#include "core/packet_pool.h"
#include "exp/scenario.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace jtp {
namespace {

using core::PacketPool;
using core::PacketPtr;
using core::SeqNo;

// --------------------------- PacketPool ---------------------------

TEST(PacketPool, HandlesRecycleThroughTheFreelist) {
  PacketPool pool;
  {
    PacketPtr a = pool.make();
    a->seq = 7;
    EXPECT_EQ(pool.stats().in_use, 1u);
  }
  EXPECT_EQ(pool.stats().in_use, 0u);
  // The recycled slot comes back reset to defaults.
  PacketPtr b = pool.make();
  EXPECT_EQ(b->seq, 0u);
  EXPECT_FALSE(b->ack);
  EXPECT_EQ(pool.stats().reuses, 1u);
  EXPECT_EQ(pool.stats().heap_allocs, 1u);  // still the first chunk
}

TEST(PacketPool, HighWaterTracksPeakNotTotal) {
  PacketPool pool;
  for (int round = 0; round < 10; ++round) {
    std::vector<PacketPtr> batch;
    for (int i = 0; i < 5; ++i) batch.push_back(pool.make());
  }
  EXPECT_EQ(pool.stats().high_water, 5u);
  EXPECT_EQ(pool.stats().in_use, 0u);
  EXPECT_EQ(pool.stats().heap_allocs, 1u);  // 5 < one chunk: no growth
}

TEST(PacketPool, GrowsByChunkWhenExhausted) {
  PacketPool pool;
  std::vector<PacketPtr> held;
  const std::size_t first_cap = [&] {
    held.push_back(pool.make());
    return pool.stats().capacity;
  }();
  while (pool.stats().capacity == first_cap) held.push_back(pool.make());
  EXPECT_EQ(pool.stats().heap_allocs, 2u);
  EXPECT_EQ(pool.stats().high_water, first_cap + 1);
}

TEST(PacketPool, MoveIntoPoolPreservesContentAndAck) {
  PacketPool pool;
  core::Packet stack_pkt;
  stack_pkt.type = core::PacketType::kAck;
  stack_pkt.flow = 3;
  core::AckHeader h;
  h.cumulative_ack = 41;
  h.snack.missing = {1, 2, 3};
  stack_pkt.ack = std::move(h);
  PacketPtr p = pool.make(std::move(stack_pkt));
  ASSERT_TRUE(p->ack);
  EXPECT_EQ(p->ack->cumulative_ack, 41u);
  EXPECT_EQ(p->ack->snack.missing, (std::vector<SeqNo>{1, 2, 3}));
}

TEST(PacketPool, MakeFromHeaderDropsAnyAckState) {
  PacketPool pool;
  {
    PacketPtr a = pool.make();
    a->ack.emplace().cumulative_ack = 9;  // dirty the slot
  }
  core::PacketHeader hdr;
  hdr.seq = 5;
  PacketPtr b = pool.make(hdr);
  EXPECT_EQ(b->seq, 5u);
  EXPECT_FALSE(b->ack);
}

// --------------------------- Simulator reset ---------------------------

TEST(SimulatorReset, ReusesEventPoolCapacityAcrossRuns) {
  sim::Simulator sim;
  int fired = 0;
  for (int i = 0; i < 50; ++i) sim.schedule(i * 0.1, [&] { ++fired; });
  sim.run();
  const auto first = sim.event_pool_stats();
  EXPECT_EQ(first.capacity, 50u);

  sim.reset();
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.events_executed(), 0u);
  for (int i = 0; i < 50; ++i) sim.schedule(i * 0.1, [&] { ++fired; });
  sim.run();
  const auto second = sim.event_pool_stats();
  EXPECT_EQ(second.capacity, 50u);  // no new slots: same pool, reused
  EXPECT_GE(second.reuses, 50u);
  EXPECT_EQ(fired, 100);
}

TEST(SimulatorReset, DropsPendingEventsWithoutFiringThem) {
  sim::Simulator sim;
  bool fired = false;
  sim.schedule(1.0, [&] { fired = true; });
  sim.reset();
  EXPECT_FALSE(sim.pending());
  sim.run();
  EXPECT_FALSE(fired);
}

// --------------------- steady-state zero allocation ---------------------

// Drive a real multi-hop JTP scenario to a warmed-up steady state, then
// keep running and assert that the event-slot and packet pools have
// stopped growing. Traffic continues (reuse counters keep climbing)
// while capacity and high-water marks stay frozen.
TEST(SteadyState, DeliveryPipelinePerformsZeroPoolGrowth) {
  exp::ScenarioSpec spec;  // linear chain defaults
  spec.net_size = 5;
  spec.fading = true;  // losses exercise SNACKs and cache repair
  spec.seed = 3;
  net::Network net(exp::make_topology(spec), exp::make_network_config(spec));
  net::FlowOptions opt;
  opt.initial_rate_pps = 20.0;
  opt.loss_tolerance = 0.05;
  auto flow = net.add_flow(core::Proto::kJtp, 0, 4, opt);
  flow.receiver->start();
  flow.sender->start(0);  // long-lived

  net.run_until(150.0);  // warm-up: pools reach their working set
  const auto ev_warm = net.simulator().event_pool_stats();
  const auto pk_warm = net.packet_pool().stats();
  const std::uint64_t delivered_warm = flow.delivered_packets();

  net.run_until(400.0);  // steady state: 2.5x more traffic
  const auto ev = net.simulator().event_pool_stats();
  const auto pk = net.packet_pool().stats();

  // Traffic really flowed in the measured window...
  EXPECT_GT(flow.delivered_packets(), delivered_warm + 100);
  EXPECT_GT(ev.reuses, ev_warm.reuses);
  EXPECT_GT(pk.reuses, pk_warm.reuses);
  // ...yet neither pool grew.
  EXPECT_EQ(ev.capacity, ev_warm.capacity);
  EXPECT_EQ(ev.high_water, ev_warm.high_water);
  EXPECT_EQ(ev.heap_allocs, ev_warm.heap_allocs);
  EXPECT_EQ(pk.capacity, pk_warm.capacity);
  EXPECT_EQ(pk.high_water, pk_warm.high_water);
  EXPECT_EQ(pk.heap_allocs, pk_warm.heap_allocs);

  flow.stop();
}

}  // namespace
}  // namespace jtp
