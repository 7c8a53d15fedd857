// End-to-end integration tests: full stacks over simulated networks,
// built through the declarative ScenarioSpec API.
#include <gtest/gtest.h>

#include <vector>

#include "baselines/atp.h"
#include "exp/scenario.h"
#include "exp/workload.h"
#include "net/network.h"

namespace jtp {
namespace {

using exp::FlowManager;
using exp::FlowOptions;
using exp::Proto;
using exp::Scenario;
using exp::ScenarioSpec;
using exp::TopologyKind;

ScenarioSpec quiet(std::uint64_t seed = 1, Proto proto = Proto::kJtp,
                   std::size_t net_size = 4) {
  ScenarioSpec sc;
  sc.seed = seed;
  sc.proto = proto;
  sc.net_size = net_size;
  sc.fading = false;   // deterministic-ish substrate for unit-style checks
  sc.loss_good = 0.0;  // lossless unless a test opts in
  return sc;
}

TEST(Integration, JtpDeliversBulkOverLosslessChain) {
  auto s = exp::build(quiet());
  auto& flow = s.flows->create(0, 3, /*total_packets=*/50);
  s.network->run_until(600.0);
  EXPECT_TRUE(flow.finished());
  EXPECT_EQ(flow.delivered_packets(), 50u);
  EXPECT_EQ(flow.source_rtx(), 0u);  // lossless: nothing to recover
}

TEST(Integration, JtpSurvivesLossyChain) {
  auto sc = quiet(3);
  sc.loss_good = 0.15;
  auto s = exp::build(sc);
  auto& flow = s.flows->create(0, 3, 100);
  s.network->run_until(2000.0);
  EXPECT_TRUE(flow.finished()) << "delivered=" << flow.delivered_packets();
  EXPECT_EQ(flow.delivered_packets(), 100u);  // 0% tolerance: all arrive
}

TEST(Integration, CachesRecoverLossesBeforeTheSource) {
  // Loss high enough that the 5-attempt MAC budget is sometimes exhausted
  // (p^5 ≈ 1.8% at p=0.45), so SNACK-driven recovery actually engages.
  auto sc = quiet(5, Proto::kJtp, 6);
  sc.loss_good = 0.45;
  auto s = exp::build(sc);
  auto& flow = s.flows->create(0, 5, 200);
  s.network->run_until(6000.0);
  EXPECT_TRUE(flow.finished());
  const auto m = s.flows->collect(6000.0);
  // With per-hop attempts plus caches, in-network recovery should do the
  // bulk of the repair work; the source sees only what caches missed.
  EXPECT_GT(m.cache_retransmissions + m.source_retransmissions, 0u);
  EXPECT_LE(m.source_retransmissions, m.cache_retransmissions)
      << "cache=" << m.cache_retransmissions
      << " source=" << m.source_retransmissions;
}

TEST(Integration, JncFallsBackToSourceRetransmissions) {
  auto sc = quiet(5, Proto::kJnc, 6);
  sc.loss_good = 0.3;  // loss beyond the attempt budget's reach
  auto s = exp::build(sc);
  auto& flow = s.flows->create(0, 5, 100);
  s.network->run_until(4000.0);
  const auto m = s.flows->collect(4000.0);
  EXPECT_EQ(m.cache_retransmissions, 0u);
  EXPECT_GT(flow.delivered_packets(), 0u);
}

TEST(Integration, LossToleranceReducesEffortButMeetsTarget) {
  auto sc = quiet(7, Proto::kJtp, 5);
  sc.loss_good = 0.2;
  auto s_full = exp::build(sc);
  auto s_tol = exp::build(sc);
  FlowOptions tol;
  tol.loss_tolerance = 0.2;
  auto& f_full = s_full.flows->create(0, 4, 300);
  auto& f_tol = s_tol.flows->create(0, 4, 300, 0.0, tol);
  s_full.network->run_until(4000.0);
  s_tol.network->run_until(4000.0);
  EXPECT_TRUE(f_full.finished());
  EXPECT_TRUE(f_tol.finished());
  // Tolerant flow must still deliver >= 80% of the data...
  EXPECT_GE(f_tol.delivered_packets(), 240u);
  // ...while spending less energy than the full-reliability flow.
  EXPECT_LT(s_tol.network->energy().total_energy(),
            s_full.network->energy().total_energy());
}

TEST(Integration, TcpDeliversOverChain) {
  auto s = exp::build(quiet(9, Proto::kTcp));
  auto& flow = s.flows->create(0, 3, 50);
  s.network->run_until(600.0);
  EXPECT_TRUE(flow.finished());
  EXPECT_EQ(flow.delivered_packets(), 50u);
}

TEST(Integration, AtpDeliversOverChain) {
  auto s = exp::build(quiet(11, Proto::kAtp));
  auto& flow = s.flows->create(0, 3, 50);
  s.network->run_until(600.0);
  EXPECT_TRUE(flow.finished());
  EXPECT_EQ(flow.delivered_packets(), 50u);
}

// ATP reports up to 64 SNACK holes per ACK, twice eJTP's 32-entry cap.
// An ACK carrying 49 holes must cross a 4-hop chain with its hole list
// intact.
TEST(Integration, AtpAckWithMoreThan32HolesCrossesChain) {
  auto s = exp::build(quiet(21, Proto::kAtp, 5));
  net::Network& net = *s.network;
  const core::FlowId flow = net.allocate_flow(net::HopPolicy::kRateStamp);
  std::uint64_t acks_seen = 0;
  std::vector<core::SeqNo> holes_seen;
  net.node(0).attach_ack_handler(flow, [&](const core::Packet& ack) {
    ++acks_seen;
    ASSERT_TRUE(ack.ack);
    EXPECT_EQ(ack.ack->cumulative_ack, 1u);
    holes_seen = ack.ack->snack.missing;
  });

  baselines::AtpConfig cfg;
  cfg.flow = flow;
  cfg.src = 0;
  cfg.dst = 4;
  baselines::AtpReceiver rcv(net.env(), net.node(4), cfg);
  core::Packet data;
  data.type = core::PacketType::kData;
  data.flow = flow;
  data.src = 0;
  data.dst = 4;
  for (core::SeqNo seq : {0u, 50u}) {  // seqs 1..49 never arrive
    data.seq = seq;
    rcv.on_data(data);
  }
  rcv.start();
  net.run_until(2.5 * cfg.feedback_period_s);
  rcv.stop();

  std::vector<core::SeqNo> want;
  for (core::SeqNo seq = 1; seq < 50; ++seq) want.push_back(seq);
  EXPECT_GE(acks_seen, 1u);
  EXPECT_EQ(rcv.acks_sent(), acks_seen);  // every ACK made all 4 hops
  EXPECT_EQ(holes_seen, want);
}

TEST(Integration, JtpBeatsTcpOnEnergyPerBitOverLossyChain) {
  auto sc_jtp = quiet(13, Proto::kJtp, 6);
  sc_jtp.loss_good = 0.1;
  sc_jtp.fading = true;
  auto sc_tcp = sc_jtp;
  sc_tcp.proto = Proto::kTcp;
  auto s_jtp = exp::build(sc_jtp);
  auto s_tcp = exp::build(sc_tcp);
  s_jtp.flows->create(0, 5, 0);  // long-lived
  s_tcp.flows->create(0, 5, 0);
  s_jtp.network->run_until(2000.0);
  s_tcp.network->run_until(2000.0);
  const auto mj = s_jtp.flows->collect(2000.0);
  const auto mt = s_tcp.flows->collect(2000.0);
  ASSERT_GT(mj.delivered_payload_bits, 0.0);
  ASSERT_GT(mt.delivered_payload_bits, 0.0);
  EXPECT_LT(mj.energy_per_bit_uj(), mt.energy_per_bit_uj());
}

TEST(Integration, QueueDropsCountedUnderOverload) {
  auto s = exp::build(quiet(15, Proto::kJtp, 3));
  FlowOptions opt;
  opt.initial_rate_pps = 50.0;  // way beyond TDMA capacity
  s.flows->create(0, 2, 0, 0.0, opt);
  s.network->run_until(300.0);
  const auto m = s.flows->collect(300.0);
  EXPECT_GT(m.queue_drops, 0u);
}

TEST(Integration, EnergyBudgetDropsLoopingPackets) {
  // A tiny explicit budget means packets die after a couple of hops.
  auto s = exp::build(quiet(17, Proto::kJtp, 6));
  FlowOptions opt;
  const double one_hop_energy =
      s.network->energy().tx_energy(8.0 * (800 + 28));
  opt.initial_energy_budget = 1.5 * one_hop_energy;  // < 5 hops' worth
  auto& flow = s.flows->create(0, 5, 20, 0.0, opt);
  s.network->run_until(300.0);
  const auto m = s.flows->collect(300.0);
  EXPECT_GT(m.energy_budget_drops, 0u);
  EXPECT_EQ(flow.delivered_packets(), 0u);  // budget too small to cross
}

TEST(Integration, TwoCompetingFlowsShareCapacity) {
  auto s = exp::build(quiet(19, Proto::kJtp, 5));
  auto& f1 = s.flows->create(0, 4, 0);
  auto& f2 = s.flows->create(4, 0, 0);
  s.network->run_until(2500.0);
  const double b1 = f1.delivered_bits();
  const double b2 = f2.delivered_bits();
  ASSERT_GT(b1, 0.0);
  ASSERT_GT(b2, 0.0);
  // Symmetric flows on a symmetric chain: within 2x of each other.
  EXPECT_LT(std::max(b1, b2) / std::min(b1, b2), 2.0);
}

TEST(Integration, MobileNetworkStillDelivers) {
  auto sc = quiet(21, Proto::kJtp, 10);
  sc.topology = TopologyKind::kRandom;
  sc.speed_mps = 1.0;
  sc.loss_good = 0.02;
  auto s = exp::build(sc);
  s.flows->create(0, 9, 0);
  s.network->run_until(1500.0);
  const auto m = s.flows->collect(1500.0);
  EXPECT_GT(m.delivered_payload_bits, 0.0);
}

TEST(Integration, RandomTopologyMultiFlow) {
  auto sc = quiet(23, Proto::kJtp, 15);
  sc.topology = TopologyKind::kRandom;
  sc.loss_good = 0.05;
  auto s = exp::build(sc);
  auto& rng = s.network->rng();
  for (int i = 0; i < 5; ++i) {
    core::NodeId a = rng.integer(15);
    core::NodeId b = rng.integer(15);
    if (a == b) b = (b + 1) % 15;
    s.flows->create(a, b, 0);
  }
  s.network->run_until(1000.0);
  const auto m = s.flows->collect(1000.0);
  EXPECT_GT(m.delivered_payload_bits, 0.0);
  EXPECT_GT(m.per_flow_goodput_kbps_mean, 0.0);
}

TEST(Integration, TestbedScenarioRuns) {
  auto sc = exp::preset("testbed");
  sc.seed = 25;
  sc.loss_good = 0.0;
  sc.workload.kind = exp::WorkloadKind::kManual;  // one bespoke flow
  auto s = exp::build(sc);
  EXPECT_EQ(s.network->size(), 14u);
  EXPECT_TRUE(s.network->topology().connected());
  auto& flow = s.flows->create(0, 13, 30);
  s.network->run_until(600.0);
  EXPECT_TRUE(flow.finished());
}

TEST(Integration, SameSeedSameResult) {
  auto run_once = [] {
    auto s = exp::build(quiet(31));
    s.flows->create(0, 3, 0);
    s.network->run_until(500.0);
    return s.flows->collect(500.0);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_DOUBLE_EQ(a.total_energy_j, b.total_energy_j);
  EXPECT_DOUBLE_EQ(a.delivered_payload_bits, b.delivered_payload_bits);
  EXPECT_EQ(a.transmissions, b.transmissions);
}

}  // namespace
}  // namespace jtp
