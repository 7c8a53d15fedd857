// google-benchmark micro-benchmarks of the hot per-packet paths: event
// queue, LRU cache, path monitor, reliability math, TDMA slot lookup,
// interference coloring, and the CSMA contention cycle.
//
// Accepts the suite-wide --csv PATH and --jobs N flags (translated to
// --benchmark_out=PATH in CSV format / ignored, since the kernels are
// single-threaded) alongside google-benchmark's own CLI.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "baselines/bbr.h"
#include "baselines/tcp_sack.h"
#include "core/cache.h"
#include "core/rate_sample.h"
#include "core/env.h"
#include "core/ijtp.h"
#include "core/path_monitor.h"
#include "core/rate_controller.h"
#include "core/reliability.h"
#include "core/transport.h"
#include "exp/scenario.h"
#include "mac/csma_mac.h"
#include "mac/interference.h"
#include "mac/tdma_schedule.h"
#include "net/network.h"
#include "phy/topology.h"
#include "routing/link_state.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace {

using namespace jtp;

void BM_EventQueuePushPop(benchmark::State& state) {
  sim::EventQueue q;
  std::uint64_t t = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i)
      q.push(static_cast<double>((t * 37 + i * 11) % 1000), [] {});
    while (!q.empty()) benchmark::DoNotOptimize(q.pop().at);
    ++t;
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueuePushPop);

void BM_SimulatorScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator s;
    for (int i = 0; i < 256; ++i)
      s.schedule((i * 37) % 100, [] {});
    s.run();
    benchmark::DoNotOptimize(s.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_SimulatorScheduleRun);

// Schedule/cancel/pop mix at 1e6 events: the event structure under a
// deep heap with interleaved cancellations, as the TDMA slot timers and
// transport feedback timers produce it at scale.
void BM_EventQueueMix(benchmark::State& state) {
  constexpr int kN = 1 << 20;  // ~1e6
  std::vector<sim::EventId> ids(kN);
  for (auto _ : state) {
    sim::EventQueue q;
    for (int i = 0; i < kN; ++i) {
      ids[i] = q.push(static_cast<double>((i * 2654435761u) % 4096), [] {});
      // Cancel every fourth event shortly after scheduling it (timer
      // re-arm pattern: schedule, then supersede).
      if ((i & 3) == 3) q.cancel(ids[i - 2]);
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.pop().at);
  }
  state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK(BM_EventQueueMix)->Unit(benchmark::kMillisecond);

// End-to-end delivery pipeline: a 4-hop chain with fading disabled, one
// bulk JTP flow. Items = packets delivered end-to-end, so the counter
// reads as delivery-pipeline packets/sec (every item traverses endpoint
// pacing, MAC queues, iJTP pre-xmit/post-rcv at each hop, and the ACK
// path with SNACKs back).
void BM_DeliveryPipelineData(benchmark::State& state) {
  std::uint64_t delivered = 0;
  for (auto _ : state) {
    exp::ScenarioSpec spec;  // linear defaults
    spec.net_size = 5;
    spec.fading = false;
    spec.seed = 1;
    net::Network net(exp::make_topology(spec), exp::make_network_config(spec));
    net::FlowOptions opt;
    opt.initial_rate_pps = 40.0;
    auto flow = net.add_flow(core::Proto::kJtp, 0, 4, opt);
    flow.receiver->start();
    flow.sender->start(0);  // long-lived bulk flow
    net.run_until(120.0);
    flow.stop();
    delivered += flow.delivered_packets();
  }
  state.SetItemsProcessed(static_cast<int64_t>(delivered));
  state.counters["pkts"] = static_cast<double>(delivered);
}
BENCHMARK(BM_DeliveryPipelineData)->Unit(benchmark::kMillisecond);

// SNACK-heavy ACK traffic through the in-network half: every iteration an
// ACK whose SNACK names 32 missing packets traverses iJTP post-receive at
// a cache-warm intermediate node — cache lookups, local retransmissions,
// and the missing -> locally_recovered SNACK rewrite.
void BM_SnackAckPostRcv(benchmark::State& state) {
  core::IjtpConfig icfg;
  icfg.cache_capacity_packets = 1000;
  icfg.max_cache_rtx_per_ack = 8;
  core::IjtpModule ijtp(icfg);
  core::Packet data;
  data.type = core::PacketType::kData;
  data.flow = 1;
  for (core::SeqNo s = 0; s < 1000; ++s) {
    data.seq = s;
    ijtp.post_rcv(data);  // warm the cache
  }
  core::SeqNo base = 0;
  for (auto _ : state) {
    core::Packet ack;
    ack.type = core::PacketType::kAck;
    ack.flow = 1;
    core::AckHeader h;
    for (int i = 0; i < 32; ++i)
      h.snack.missing.push_back((base + 31 * i) % 1000);
    base = (base + 1) % 1000;
    ack.ack = std::move(h);
    std::size_t served = ijtp.post_rcv(
        ack, [](core::Packet&& rtx) {
          benchmark::DoNotOptimize(rtx.seq);
          return true;
        });
    benchmark::DoNotOptimize(served);
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_SnackAckPostRcv);

void BM_CacheInsertLookup(benchmark::State& state) {
  core::PacketCache cache(1000);
  core::Packet p;
  p.type = core::PacketType::kData;
  p.flow = 1;
  core::SeqNo seq = 0;
  for (auto _ : state) {
    p.seq = seq++;
    cache.insert(p);
    benchmark::DoNotOptimize(cache.lookup(1, seq > 500 ? seq - 500 : 0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheInsertLookup);

void BM_PathMonitorAdd(benchmark::State& state) {
  core::PathMonitor m;
  sim::Rng rng(1);
  for (auto _ : state)
    benchmark::DoNotOptimize(m.add(5.0 + rng.uniform()));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PathMonitorAdd);

void BM_ReliabilityPerPacket(benchmark::State& state) {
  // The full iJTP first-transmission math: target, budget, achieved,
  // header rewrite.
  double lt = 0.1;
  for (auto _ : state) {
    const double q = core::per_link_success_target(lt, 5);
    const int m = core::attempt_budget(q, 0.1, 5);
    const double qa = core::achieved_link_success(0.1, m);
    benchmark::DoNotOptimize(core::update_loss_tolerance(lt, qa));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReliabilityPerPacket);

void BM_RateControllerUpdate(benchmark::State& state) {
  core::RateController c;
  double a = 3.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.update(a));
    a = a > 2.9 ? 0.1 : 3.0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RateControllerUpdate);

// One sampler cycle of the delivery-rate subsystem: snapshot at send,
// credit at ACK, one sample into the max-filter — the per-ACK cost every
// jtp_dr/bbr flow pays.
void BM_RateSampleUpdate(benchmark::State& state) {
  core::RateSampler sampler;
  core::BandwidthEstimator bw(10);
  core::SeqNo seq = 0;
  double now = 0.0;
  std::uint64_t round = 0;
  for (auto _ : state) {
    // Keep a steady flight of 8: one send + one delivery per iteration.
    sampler.on_sent(seq, now);
    now += 0.01;
    if (seq >= 8) {
      sampler.on_delivered(seq - 8, now);
      const auto s = sampler.take_sample(now);
      if (s.valid) bw.on_sample(s, ++round);
      benchmark::DoNotOptimize(bw.bw_pps());
    }
    ++seq;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RateSampleUpdate);

// The full BBR control step on a synthetic sample stream: startup →
// drain → probe_bw with the gain cycle advancing on min-RTT boundaries.
void BM_BbrStateMachine(benchmark::State& state) {
  baselines::BbrConfig cfg;
  baselines::BbrModel model(cfg);
  core::RateSample s;
  s.valid = true;
  s.delivered = 4;
  s.interval_s = 0.1;
  s.rtt_s = 0.2;
  double now = 0.0;
  std::uint64_t delivered_total = 0;
  for (auto _ : state) {
    now += 0.05;
    delivered_total += s.delivered;
    s.bw_pps = 40.0 + static_cast<double>(delivered_total % 16);
    model.on_sample(s, now, delivered_total, /*in_flight=*/8);
    benchmark::DoNotOptimize(model.pacing_rate_pps());
    benchmark::DoNotOptimize(model.cwnd_packets());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BbrStateMachine);

// ---------------------------------------------------------------------------
// Control-plane kernels: neighbor queries and routing refresh at small
// (paper, n=25) and production (n=400; routing also at the scale_mobile
// workloads' n=1000) scales. BM_RoutingRefresh models
// the steady-state control-plane work of a mobile scenario: one node
// moves (up to 1 m per axis), the view refreshes, and the handful of
// sources with live flows look up their next hops toward one sink, which
// share one destination row. The refresh re-queries the mover's
// neighbor list; only a move that makes or breaks a link re-captures the
// view and costs the row's BFS.
// ---------------------------------------------------------------------------

phy::Topology scale_field(std::size_t n, sim::Rng& rng) {
  auto prng = rng.derive("placement");
  return phy::Topology::random_connected(
      n, exp::random_field_side_m(n), exp::kRangeM, prng);
}

void BM_NeighborQuery(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Rng rng(7);
  auto topo = scale_field(n, rng);
  core::NodeId id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo.neighbors(id).size());
    id = static_cast<core::NodeId>((id + 1) % n);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NeighborQuery)->Arg(25)->Arg(400);

void BM_RoutingRefresh(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Rng rng(7);
  auto topo = scale_field(n, rng);
  sim::Simulator sim;
  routing::LinkStateRouting r(sim, topo);
  auto mrng = rng.derive("moves");
  core::NodeId mover = 1;
  for (auto _ : state) {
    const auto p = topo.position(mover);
    topo.set_position(mover, {p.x + mrng.uniform(-1.0, 1.0),
                              p.y + mrng.uniform(-1.0, 1.0)});
    mover = static_cast<core::NodeId>(1 + (mover % (n - 1)));
    r.refresh();
    for (core::NodeId s = 1; s <= 8 && s < n; ++s)
      benchmark::DoNotOptimize(r.next_hop(s, 0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RoutingRefresh)
    ->Arg(25)
    ->Arg(400)
    ->Arg(1000)
    ->Unit(benchmark::kMicrosecond);

// The per-MAC-attempt channel path: transmission_lost on a warm link set
// sized like a 400-node field (~4 links/node). One iteration = one dwell
// lookup (undirected key) + one loss-stream lookup (directed key) + one
// bernoulli draw; dwell flips are rare at this timescale, so the kernel
// prices the two table lookups the packed-slot tables exist to make cheap.
void BM_ChannelLossLookup(benchmark::State& state) {
  phy::ChannelConfig cfg;
  phy::Channel channel(cfg, sim::Rng(7).derive("channel"));
  sim::Rng prng(11);
  std::vector<std::pair<core::NodeId, core::NodeId>> links;
  links.reserve(1600);
  for (int k = 0; k < 1600; ++k) {
    const auto a = static_cast<core::NodeId>(prng.integer(400));
    auto b = static_cast<core::NodeId>(prng.integer(400));
    if (b == a) b = static_cast<core::NodeId>((b + 1) % 400);
    links.emplace_back(a, b);
  }
  sim::Time now = 0.0;
  for (const auto& [a, b] : links)
    benchmark::DoNotOptimize(channel.transmission_lost(a, b, now));
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [a, b] = links[i];
    i = (i + 1) % links.size();
    now += 1e-4;
    benchmark::DoNotOptimize(channel.transmission_lost(a, b, now));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChannelLossLookup);

void BM_TdmaNextOwnedSlot(benchmark::State& state) {
  mac::TdmaSchedule s(static_cast<std::size_t>(state.range(0)), 0.035, 7);
  double t = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.next_owned_slot(3, t));
    t += 1.37;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TdmaNextOwnedSlot)->Arg(8)->Arg(25);

// One full greedy 2-hop coloring of a connected random field: what the
// spatial-reuse MAC pays at construction. The topology's neighbor index
// is synced on the first iteration and reused after, so this times the
// greedy pass over its lists, O(n · degree²).
void BM_InterferenceColoring(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Rng rng(7);
  auto topo = scale_field(n, rng);
  for (auto _ : state) {
    const auto c = mac::color_interference(topo, 1.0);
    benchmark::DoNotOptimize(c.colors_used);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InterferenceColoring)
    ->Arg(25)
    ->Arg(400)
    ->Arg(1000)
    ->Unit(benchmark::kMicrosecond);

// The per-generation recolor under waypoint churn: one node steps 1 m
// (alternating direction, so it oscillates in place), then the persistent
// colorer syncs — the topology's index re-queries one neighbor list, and
// greedy re-runs only if a link changed.
void BM_InterferenceRecolorSmallMove(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Rng rng(7);
  auto topo = scale_field(n, rng);
  mac::InterferenceColorer colorer(topo, 1.0);
  const auto mover = static_cast<core::NodeId>(n / 2);
  double step = 1.0;
  for (auto _ : state) {
    const auto p = topo.position(mover);
    topo.set_position(mover, {p.x + step, p.y});
    step = -step;
    benchmark::DoNotOptimize(colorer.sync());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InterferenceRecolorSmallMove)
    ->Arg(400)
    ->Arg(1000)
    ->Unit(benchmark::kMicrosecond);

// One CSMA contention cycle end to end: enqueue on an idle 2-node rig,
// then drain the backoff + CCA + transmit + completion event chain.
void BM_CsmaBackoff(benchmark::State& state) {
  core::PacketPool pool;
  sim::Simulator sim;
  phy::Topology topo(2, exp::kRangeM);
  topo.set_position(1, {10.0, 0.0});
  phy::ChannelConfig ccfg;
  ccfg.fading_enabled = false;
  ccfg.loss_good = 0.0;
  phy::Channel channel(ccfg, sim::Rng(7).derive("channel"));
  phy::EnergyModel energy(2);
  mac::CsmaMedium medium(topo, 0.005);
  mac::CsmaMac m(sim, medium, channel, energy, 0, 0.005, {},
                 sim::Rng(7).derive("csma", 0));
  m.set_deliver([](core::PacketPtr&&, core::NodeId, core::NodeId) {});
  for (auto _ : state) {
    auto p = pool.make();
    p->type = core::PacketType::kData;
    p->flow = 1;
    p->src = 0;
    p->dst = 1;
    p->payload_bytes = core::kDefaultPayloadBytes;
    m.enqueue(std::move(p), 1);
    sim.run();
    benchmark::DoNotOptimize(m.deliveries());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CsmaBackoff);

// ---------------------------------------------------------------------------
// Cost of the polymorphic core::TransportReceiver interface on the
// per-packet delivery path (PR: transport/scenario API redesign). The
// node's handlers now hold a base pointer, so every delivered packet pays
// one virtual on_data() dispatch that used to be a direct call. The pair
// below runs the identical receiver both ways; the delta between them is
// the indirection cost the redesign added to the hot path.
// ---------------------------------------------------------------------------

class NullEnv final : public core::Env {
 public:
  double now() const override { return 0.0; }
  core::TimerId schedule_fn(double, sim::SmallFn) override {
    return ++next_id_;  // timers never fire in this kernel
  }
  void cancel(core::TimerId) override {}
  core::PacketPool& packet_pool() override { return pool_; }

 private:
  core::TimerId next_id_ = 0;
  core::PacketPool pool_;
};

class NullSink final : public core::PacketSink {
 public:
  void send(core::PacketPtr) override {}  // dropped: slot recycles
};

baselines::TcpConfig delivery_cfg() {
  baselines::TcpConfig cfg;
  cfg.flow = 1;
  cfg.src = 0;
  cfg.dst = 1;
  return cfg;
}

core::Packet delivery_packet() {
  core::Packet p;
  p.type = core::PacketType::kData;
  p.flow = 1;
  p.src = 0;
  p.dst = 1;
  p.payload_bytes = core::kDefaultPayloadBytes;
  return p;
}

void BM_TransportOnDataDirect(benchmark::State& state) {
  NullEnv env;
  NullSink sink;
  baselines::TcpSackReceiver rcv(env, sink, delivery_cfg());
  core::Packet p = delivery_packet();
  core::SeqNo seq = 0;
  for (auto _ : state) {
    p.seq = seq++;
    rcv.on_data(p);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TransportOnDataDirect);

void BM_TransportOnDataVirtual(benchmark::State& state) {
  NullEnv env;
  NullSink sink;
  baselines::TcpSackReceiver rcv(env, sink, delivery_cfg());
  core::TransportReceiver* base = &rcv;
  benchmark::DoNotOptimize(base);  // launder: keep the dispatch virtual
  core::Packet p = delivery_packet();
  core::SeqNo seq = 0;
  for (auto _ : state) {
    p.seq = seq++;
    base->on_data(p);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TransportOnDataVirtual);

}  // namespace

int main(int argc, char** argv) {
  // Translate the shared bench flags into google-benchmark's before its
  // parser (which aborts on flags it does not know) sees them.
  std::vector<std::string> args{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc) {
      args.push_back(std::string("--benchmark_out=") + argv[++i]);
      args.push_back("--benchmark_out_format=csv");
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      ++i;  // kernels are single-threaded; accepted for suite uniformity
    } else {
      args.push_back(argv[i]);
    }
  }
  std::vector<char*> cargs;
  cargs.reserve(args.size());
  for (auto& a : args) cargs.push_back(a.data());
  int cargc = static_cast<int>(cargs.size());
  benchmark::Initialize(&cargc, cargs.data());
  if (benchmark::ReportUnrecognizedArguments(cargc, cargs.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
