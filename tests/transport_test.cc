// Tests for the polymorphic transport layer: the Proto enum helpers, the
// TransportRegistry, Network::add_flow's unified FlowHandle, and the
// protocol-parity contract — every registered transport runs the same
// ScenarioSpec, and the unified accessors report exactly what the
// concrete endpoints' own (pre-refactor) accessors report.
#include <gtest/gtest.h>

#include <stdexcept>

#include "baselines/atp.h"
#include "baselines/bbr.h"
#include "baselines/tcp_sack.h"
#include "core/jtp_dr.h"
#include "core/ejtp_receiver.h"
#include "core/ejtp_sender.h"
#include "core/transport.h"
#include "exp/scenario.h"
#include "exp/workload.h"
#include "net/network.h"
#include "net/transport.h"

namespace jtp {
namespace {

using core::parse_proto;
using core::Proto;
using core::proto_name;
using net::HopPolicy;
using net::TransportRegistry;

TEST(Proto, NamesRoundTrip) {
  for (auto p : {Proto::kJtp, Proto::kJnc, Proto::kTcp, Proto::kAtp,
                 Proto::kJtpFf, Proto::kJtpDr, Proto::kBbr}) {
    const auto back = parse_proto(proto_name(p));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, p);
  }
  // Legacy spelling from the variant's test-local era stays parseable.
  EXPECT_EQ(parse_proto("jtp-ff"), Proto::kJtpFf);
  EXPECT_FALSE(parse_proto("").has_value());
  EXPECT_FALSE(parse_proto("JTP").has_value());  // names are lowercase
  EXPECT_FALSE(parse_proto("udp").has_value());
}

TEST(Registry, BuiltinsAreRegistered) {
  auto& reg = TransportRegistry::instance();
  for (auto p : {Proto::kJtp, Proto::kJnc, Proto::kTcp, Proto::kAtp,
                 Proto::kJtpFf, Proto::kJtpDr, Proto::kBbr})
    EXPECT_TRUE(reg.registered(p)) << proto_name(p);
  EXPECT_GE(reg.protos().size(), 7u);
}

TEST(Registry, HopPoliciesAndCachingMatchTheProtocols) {
  auto& reg = TransportRegistry::instance();
  EXPECT_EQ(reg.info(Proto::kJtp).hop_policy, HopPolicy::kIjtp);
  EXPECT_EQ(reg.info(Proto::kJnc).hop_policy, HopPolicy::kIjtp);
  EXPECT_EQ(reg.info(Proto::kTcp).hop_policy, HopPolicy::kPlain);
  EXPECT_EQ(reg.info(Proto::kAtp).hop_policy, HopPolicy::kRateStamp);
  // The JTP variants keep full in-network help; BBR rides the plain
  // TCP-style path.
  EXPECT_EQ(reg.info(Proto::kJtpFf).hop_policy, HopPolicy::kIjtp);
  EXPECT_EQ(reg.info(Proto::kJtpDr).hop_policy, HopPolicy::kIjtp);
  EXPECT_EQ(reg.info(Proto::kBbr).hop_policy, HopPolicy::kPlain);
  EXPECT_TRUE(reg.caching_enabled(Proto::kJtp));
  EXPECT_FALSE(reg.caching_enabled(Proto::kJnc));
  EXPECT_TRUE(reg.caching_enabled(Proto::kJtpDr));
}

TEST(Registry, DuplicateRegistrationThrows) {
  auto& reg = TransportRegistry::instance();
  net::TransportInfo dup = reg.info(Proto::kJtp);
  EXPECT_THROW(reg.add(std::move(dup)), std::invalid_argument);
}

TEST(Registry, NullFactoryThrows) {
  net::TransportInfo bad;
  bad.factory = nullptr;
  EXPECT_THROW(TransportRegistry::instance().add(std::move(bad)),
               std::invalid_argument);
}

TEST(FlowTable, DefaultsToIjtpPolicy) {
  net::FlowTable table;
  EXPECT_EQ(table.policy(42), HopPolicy::kIjtp);
  table.register_flow(42, HopPolicy::kRateStamp);
  EXPECT_EQ(table.policy(42), HopPolicy::kRateStamp);
}

TEST(AddFlow, RejectsOutOfRangeEndpoints) {
  auto s = exp::build([] {
    exp::ScenarioSpec sc;
    sc.net_size = 3;
    sc.fading = false;
    sc.loss_good = 0.0;
    return sc;
  }());
  EXPECT_THROW(s.network->add_flow(Proto::kJtp, 0, 7),
               std::invalid_argument);
}

TEST(AddFlow, HandleCarriesIdentityAndEndpoints) {
  exp::ScenarioSpec sc;
  sc.net_size = 3;
  sc.fading = false;
  sc.loss_good = 0.0;
  auto s = exp::build(sc);
  const auto h = s.network->add_flow(Proto::kJtp, 0, 2);
  EXPECT_EQ(h.proto, Proto::kJtp);
  EXPECT_EQ(h.src, 0u);
  EXPECT_EQ(h.dst, 2u);
  EXPECT_GT(h.id, 0u);
  ASSERT_NE(h.sender, nullptr);
  ASSERT_NE(h.receiver, nullptr);
  // Typed accessors resolve to the protocol's concrete endpoints...
  EXPECT_NE(h.sender_as<core::EjtpSender>(), nullptr);
  EXPECT_NE(h.receiver_as<core::EjtpReceiver>(), nullptr);
  // ...and only to them.
  EXPECT_EQ(h.sender_as<baselines::TcpSackSender>(), nullptr);
  EXPECT_EQ(h.receiver_as<baselines::AtpReceiver>(), nullptr);
}

// ---------------------------------------------------------------------------
// Protocol parity: one ScenarioSpec, every registered transport.
// ---------------------------------------------------------------------------

exp::ScenarioSpec parity_spec(Proto proto) {
  exp::ScenarioSpec sc;
  sc.net_size = 4;
  sc.seed = 4242;  // pinned: these runs must be reproducible
  sc.proto = proto;
  // Residual loss without fading dwells: enough to exercise recovery in
  // every protocol, mild enough that ATP's end-to-end-only repair still
  // completes a bounded transfer within the horizon.
  sc.fading = false;
  sc.loss_good = 0.05;
  sc.workload.kind = exp::WorkloadKind::kEnds;
  sc.workload.n_flows = 1;
  sc.workload.transfer_packets = 40;
  return sc;
}

TEST(ProtocolParity, EveryRegisteredProtoRunsTheSameSpec) {
  for (const auto proto : TransportRegistry::instance().protos()) {
    auto s = exp::build(parity_spec(proto));
    s.network->run_until(1500.0);
    const auto& flow = *s.flows->flows().front();
    EXPECT_TRUE(flow.finished()) << proto_name(proto);
    EXPECT_GT(flow.delivered_packets(), 0u) << proto_name(proto);
    const auto m = s.flows->collect(1500.0);
    EXPECT_GT(m.delivered_payload_bits, 0.0) << proto_name(proto);
    EXPECT_GT(m.total_energy_j, 0.0) << proto_name(proto);
  }
}

// A classic TDMA frame of 30 half-second slots leaves each node 1/15 pps,
// below the JTP rate floor's 0.1 pps minimum. The floor is clamped to the
// cap, so every transport builds and runs instead of rejecting its rate
// bounds.
TEST(ProtocolParity, PerNodeShareBelowRateFloorStillRuns) {
  const auto parsed =
      exp::parse_scenario("linear,net_size=30,mac=tdma,slot_duration=0.5");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  for (const auto proto : TransportRegistry::instance().protos()) {
    auto spec = parsed.spec;
    spec.proto = proto;
    EXPECT_NO_THROW({
      auto s = exp::build(spec);
      s.network->run_until(60.0);
    }) << proto_name(proto);
  }
}

// The unified FlowHandle accessors must report exactly what the concrete
// endpoints' own accessors report — the refactor moved the dispatch, not
// the numbers.
template <typename Sender, typename Receiver>
void expect_handle_matches_endpoints(const net::FlowHandle& h) {
  const auto* snd = h.sender_as<Sender>();
  const auto* rcv = h.receiver_as<Receiver>();
  ASSERT_NE(snd, nullptr);
  ASSERT_NE(rcv, nullptr);
  EXPECT_EQ(h.finished(), snd->finished());
  EXPECT_EQ(h.data_sent(), snd->data_packets_sent());
  EXPECT_EQ(h.source_rtx(), snd->source_retransmissions());
  EXPECT_DOUBLE_EQ(h.delivered_bits(), rcv->delivered_payload_bits());
  EXPECT_EQ(h.delivered_packets(), rcv->delivered_packets());
  EXPECT_EQ(h.acks_sent(), rcv->acks_sent());
}

TEST(ProtocolParity, JtpHandleMatchesConcreteAccessors) {
  auto s = exp::build(parity_spec(Proto::kJtp));
  s.network->run_until(1500.0);
  const auto& h = *s.flows->flows().front();
  expect_handle_matches_endpoints<core::EjtpSender, core::EjtpReceiver>(h);
  EXPECT_EQ(h.waived_packets(),
            h.receiver_as<core::EjtpReceiver>()->waived_packets());
}

TEST(ProtocolParity, TcpHandleMatchesConcreteAccessors) {
  auto s = exp::build(parity_spec(Proto::kTcp));
  s.network->run_until(1500.0);
  const auto& h = *s.flows->flows().front();
  expect_handle_matches_endpoints<baselines::TcpSackSender,
                                  baselines::TcpSackReceiver>(h);
  EXPECT_EQ(h.waived_packets(), 0u);  // TCP never waives
}

TEST(ProtocolParity, AtpHandleMatchesConcreteAccessors) {
  auto s = exp::build(parity_spec(Proto::kAtp));
  s.network->run_until(1500.0);
  const auto& h = *s.flows->flows().front();
  expect_handle_matches_endpoints<baselines::AtpSender,
                                  baselines::AtpReceiver>(h);
  EXPECT_EQ(h.waived_packets(), 0u);  // ATP never waives
}

// Pinned-seed determinism through the new dispatch path: two identical
// builds produce bit-identical metrics for every protocol.
TEST(ProtocolParity, PinnedSeedIsBitStableForEveryProto) {
  for (const auto proto : TransportRegistry::instance().protos()) {
    auto run = [&] {
      auto s = exp::build(parity_spec(proto));
      s.network->run_until(1500.0);
      return s.flows->collect(1500.0);
    };
    const auto a = run();
    const auto b = run();
    EXPECT_DOUBLE_EQ(a.total_energy_j, b.total_energy_j) << proto_name(proto);
    EXPECT_DOUBLE_EQ(a.delivered_payload_bits, b.delivered_payload_bits)
        << proto_name(proto);
    EXPECT_EQ(a.delivered_packets, b.delivered_packets) << proto_name(proto);
    EXPECT_EQ(a.data_packets_sent, b.data_packets_sent) << proto_name(proto);
    EXPECT_EQ(a.acks_sent, b.acks_sent) << proto_name(proto);
    EXPECT_EQ(a.transmissions, b.transmissions) << proto_name(proto);
  }
}

// --- the extension seam -----------------------------------------------------
//
// ROADMAP: "register an experimental protocol variant through the
// registry to prove the extension seam". That proof has since been
// promoted into the production registry three times over: kJtpFf (JTP
// with constant-rate "fixed feedback" ACKing), kJtpDr (JTP's PI²/MD fed
// by a sender-side delivery-rate estimate) and kBbr (model-based pacing
// over the TCP-SACK feedback channel) each became a first-class
// protocol through exactly one TransportRegistry::add() call in the
// registry's own constructor — no edits to Network, Node, FlowManager,
// or any existing factory. The tests below pin down that each variant
// really is reachable through the same ScenarioSpec -> build() ->
// Network::add_flow entry points as the original four, and that the
// endpoints behind the unified FlowHandle are the expected concrete
// types with the expected behavior.

TEST(ExtensionSeam, FixedFeedbackVariantIsABuiltin) {
  ASSERT_TRUE(TransportRegistry::instance().registered(Proto::kJtpFf));

  auto s = exp::build(parity_spec(Proto::kJtpFf));
  s.network->run_until(1500.0);
  const auto& flow = *s.flows->flows().front();
  EXPECT_TRUE(flow.finished());
  EXPECT_GT(flow.delivered_packets(), 0u);

  // And it really is the variant: an eJTP receiver in constant-feedback
  // mode, advertising the fixed 2-second period.
  const auto* rcv = flow.receiver_as<core::EjtpReceiver>();
  ASSERT_NE(rcv, nullptr);
  EXPECT_DOUBLE_EQ(rcv->current_feedback_period(), 2.0);
}

TEST(ExtensionSeam, JtpDrWrapsAnEjtpFlowAndEstimatesBandwidth) {
  auto s = exp::build(parity_spec(Proto::kJtpDr));
  s.network->run_until(1500.0);
  const auto& flow = *s.flows->flows().front();
  EXPECT_TRUE(flow.finished());
  EXPECT_GT(flow.delivered_packets(), 0u);

  // The handle resolves to the wrapper, which exposes both the inner
  // eJTP machinery and the delivery-rate instrumentation.
  const auto* snd = flow.sender_as<core::JtpDrSender>();
  ASSERT_NE(snd, nullptr);
  EXPECT_NE(flow.receiver_as<core::EjtpReceiver>(), nullptr);
  EXPECT_GT(snd->samples_taken(), 0u);
  EXPECT_GT(snd->bw_estimate_pps(), 0.0);
  EXPECT_GT(snd->min_rtt_s(), 0.0);
  EXPECT_GE(snd->delivery_rounds(), 1u);
}

TEST(ExtensionSeam, BbrRunsOverTheTcpSackChannel) {
  auto s = exp::build(parity_spec(Proto::kBbr));
  s.network->run_until(1500.0);
  const auto& flow = *s.flows->flows().front();
  EXPECT_TRUE(flow.finished());
  EXPECT_GT(flow.delivered_packets(), 0u);

  const auto* snd = flow.sender_as<baselines::BbrSender>();
  ASSERT_NE(snd, nullptr);
  EXPECT_NE(flow.receiver_as<baselines::TcpSackReceiver>(), nullptr);
  // A completed 40-packet transfer is more than enough to fill the pipe
  // on a 4-node chain: the model must have left startup behind.
  EXPECT_TRUE(snd->model().filled_pipe());
  EXPECT_NE(snd->model().mode(), baselines::BbrModel::Mode::kStartup);
  EXPECT_GT(snd->model().bw_pps(), 0.0);
}

// --- probe_rtt --------------------------------------------------------------

// Drives the pure model through a queue-inflation episode: the RTT floor
// set early goes a full min_rtt_window_s with every later sample riding
// a standing queue, so the model must drop to the cwnd floor, hold it
// for probe_rtt_duration_s once in-flight drains, adopt the re-measured
// floor and come back to probe_bw.
TEST(BbrModel, ProbeRttFloorsCwndUntilTheFloorRefreshes) {
  baselines::BbrConfig cfg;
  cfg.min_rtt_window_s = 10.0;
  cfg.probe_rtt_duration_s = 0.2;
  cfg.min_cwnd_packets = 4;
  baselines::BbrModel m(cfg);

  double now = 0.0;
  std::uint64_t delivered = 0;
  const auto feed = [&](double bw_pps, double rtt_s,
                        std::uint64_t in_flight) {
    core::RateSample s;
    s.valid = true;
    s.bw_pps = bw_pps;
    s.rtt_s = rtt_s;
    s.delivered = 1;
    ++delivered;
    m.on_sample(s, now, delivered, in_flight);
  };

  // Startup -> drain -> probe_bw: flat bandwidth for full_bw_rounds
  // rounds (each single-delivery sample closes a round here), then one
  // sample with in-flight at the BDP (100 pps x 0.05 s = 5 packets).
  for (int i = 0; i < 5; ++i) {
    feed(100.0, 0.05, 50);
    now += 0.05;
  }
  ASSERT_TRUE(m.filled_pipe());
  feed(100.0, 0.05, 4);
  ASSERT_EQ(m.mode(), baselines::BbrModel::Mode::kProbeBw);
  EXPECT_GT(m.cwnd_packets(), cfg.min_cwnd_packets);

  // A standing queue: every sample for the next window shows 0.25 s.
  // The windowed min self-expires upward, but no sample ever matches the
  // old floor, so the staleness clock keeps running.
  while (now < 10.5) {
    feed(100.0, 0.25, 20);
    EXPECT_EQ(m.probe_rtt_count(), 0u) << "entered early at t=" << now;
    now += 0.5;
  }
  feed(100.0, 0.25, 20);  // > 10 s since the floor was last seen
  ASSERT_EQ(m.mode(), baselines::BbrModel::Mode::kProbeRtt);
  EXPECT_EQ(m.probe_rtt_count(), 1u);
  EXPECT_EQ(m.cwnd_packets(), cfg.min_cwnd_packets);
  EXPECT_DOUBLE_EQ(m.pacing_gain(), 1.0);

  // In-flight still above the floor: the hold clock must not start.
  now += 0.1;
  feed(100.0, 0.25, 10);
  ASSERT_EQ(m.mode(), baselines::BbrModel::Mode::kProbeRtt);

  // Drained to the floor: the hold starts; before it elapses the mode
  // sticks even though the probe already measured a fresh (lower) RTT.
  now += 0.1;
  feed(100.0, 0.06, 4);
  now += 0.1;  // 0.1 s into the 0.2 s hold
  feed(100.0, 0.06, 4);
  ASSERT_EQ(m.mode(), baselines::BbrModel::Mode::kProbeRtt);

  // Hold elapsed: back to probe_bw (pipe was full), cwnd cap restored,
  // and the re-measured floor is the model's min-RTT.
  now += 0.15;
  feed(100.0, 0.06, 4);
  ASSERT_EQ(m.mode(), baselines::BbrModel::Mode::kProbeBw);
  EXPECT_GT(m.cwnd_packets(), cfg.min_cwnd_packets);
  EXPECT_DOUBLE_EQ(m.min_rtt_s(), 0.06);
  EXPECT_EQ(m.probe_rtt_count(), 1u);  // no immediate re-entry
}

}  // namespace
}  // namespace jtp
