// jtp_perfbench: the repository benchmark (see perfbench/README.md).
//
//   jtp_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--horizon-scale F] [--perturb-digest] [--list]
//
// Runs one named workload — a fixed scenario spec, or a fixed batch of
// them, seeded from --seed — over and over for about S wall seconds, one
// thread, shards=1. Each pass builds every member scenario (exp::build,
// timed as set-up), runs it to its fixed simulated horizon
// (net::Network::run_until, timed as run), then checks the outputs from
// public counters only and folds them into a result digest that must
// repeat exactly on every pass. The last stdout line is one JSON object:
//
//   {"correct": …, "attempted": …, "failed": …, "metrics": {…}}
//
// --trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
// passes with traced ones (MAC spans through the kExt timing decorator,
// one-second run_until slices) and unit-cost probes on each member's
// final state, and reports the per-layer metrics. --horizon-scale shrinks
// every horizon (self-test); --perturb-digest corrupts the digest of every
// pass after the first, which the checks must count as failures; --list
// prints the workload's member specs and horizons for the seed and exits.
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exp/runner.h"
#include "exp/scenario.h"
#include "exp/workload.h"
#include "mac/interference.h"
#include "routing/link_state.h"
#include "spans.h"
#include "timing_mac.h"

using namespace jtp;
using perfbench::wall_now;

namespace {

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Member {
  std::string text;  // the spec string, seed included
  exp::ScenarioSpec spec;
  double horizon_s = 0.0;
};

Member member(const std::string& text, double horizon_s) {
  auto parsed = exp::parse_scenario(text);
  if (!parsed.ok()) throw std::invalid_argument(parsed.error);
  return {text, parsed.spec, horizon_s};
}

// A workload is a fixed batch of scenario specs, each run to its own
// simulated horizon under `seeds` scenario seeds derived from --seed. The
// scale workloads batch several seeds because one 1000-node field with 8
// fan-in flows varies by ~15% (run time) and ~30% (energy per bit) from
// one placement to the next; the sum over the batch is what is reported.
struct Family {
  const char* spec;
  double horizon_s;
};

struct WorkloadDef {
  const char* name;
  std::vector<Family> families;
  std::size_t seeds;
};

const std::vector<WorkloadDef>& workloads() {
  // The scale presets start their flows at 10 s (8 senders staggered by
  // 1 s); the paper presets run at the --full horizons of fig09_linear,
  // fig10_random, fig11_mobility and table2_testbed.
  static const std::vector<WorkloadDef> defs = {
      {"mobile_reuse", {{"scale_mobile,net_size=1000,mac=tdma_reuse", 18.0}},
       24},
      {"mobile_csma", {{"scale_mobile,net_size=1000,mac=csma", 21.0}}, 32},
      {"dense_static",
       {{"scale,net_size=2000,workload=random_pairs,flows=400,"
         "mac=tdma_reuse",
         30.0}},
       4},
      {"paper_batch",
       {{"linear,net_size=9,proto=jtp", 2500.0},
        {"linear,net_size=9,proto=tcp", 2500.0},
        {"linear,net_size=9,proto=atp", 2500.0},
        {"random,proto=jtp", 4000.0},
        {"random,proto=tcp", 4000.0},
        {"random,proto=atp", 4000.0},
        {"mobile,proto=jtp", 4000.0},
        {"mobile,proto=tcp", 4000.0},
        {"mobile,proto=atp", 4000.0},
        {"testbed,proto=jtp", 1800.0},
        {"testbed,proto=tcp", 1800.0},
        {"testbed,proto=atp", 1800.0}},
       5},
  };
  return defs;
}

std::vector<Member> workload_members(const std::string& name,
                                     std::uint64_t seed) {
  for (const auto& w : workloads()) {
    if (name != w.name) continue;
    std::vector<Member> out;
    for (const auto& f : w.families)
      for (std::size_t i = 0; i < w.seeds; ++i)
        out.push_back(member(std::string(f.spec) + ",seed=" +
                                 std::to_string(exp::seed_for_run(seed, i)),
                             f.horizon_s));
    return out;
  }
  throw std::invalid_argument("unknown workload '" + name +
                              "' (known: mobile_reuse, mobile_csma, "
                              "dense_static, paper_batch)");
}

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// FNV-1a over 64-bit words.
void mix(std::uint64_t& h, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
}

std::uint64_t bits_of(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

// Calls `fn` until at least `min_s` of it has been timed (and at least
// three times); returns the median seconds per call.
template <typename Fn>
double unit_cost(Fn&& fn, double min_s = 0.02) {
  std::vector<double> t;
  double spent = 0.0;
  while (t.size() < 3 || spent < min_s) {
    t.push_back(fn());
    spent += t.back();
  }
  return median(t);
}

// ---------------------------------------------------------------------------
// One pass over a workload's members
// ---------------------------------------------------------------------------

// Per-layer counters and probe results, summed over a pass's members
// (maxima for the high-water marks and the color count).
struct Layers {
  std::uint64_t recolors = 0, colors_used = 0;
  std::uint64_t refreshes = 0, snapshots = 0, rows_built = 0, row_reuses = 0;
  std::uint64_t route_drops = 0, generations = 0, loss_streams = 0;
  std::uint64_t events = 0, event_pool_hw = 0, packet_pool_hw = 0;
  std::uint64_t data_sent = 0, source_rtx = 0, cache_rtx = 0, acks_sent = 0;
  std::uint64_t xmits = 0, deliveries = 0, queue_drops = 0,
                attempt_drops = 0;
  // Probes: per-member unit costs (summed; divide by members for a mean)
  // and the run time each layer's work count implies at that cost.
  double color_pass_s = 0.0, row_build_s = 0.0, neighbor_query_s = 0.0;
  double topology_build_s = 0.0;
  double recolor_est_s = 0.0, rows_est_s = 0.0;
};

struct Pass {
  double setup_s = 0.0;
  double run_s = 0.0;
  std::uint64_t delivered = 0;
  exp::RunMetrics energy;  // total_energy_j and delivered_payload_bits
  std::vector<std::uint64_t> digests;  // per member; 0 = member failed
  std::vector<double> slices_s;        // traced passes only
  Layers layers;
};

// Output checks on a finished member; returns "" or the first violation.
std::string check_outputs(net::Network& net, const exp::FlowManager& flows) {
  double energy = 0.0;
  for (double e : net.per_node_energy()) energy += e;
  if (energy != net.total_energy())
    return "sum of per-node energy differs from total_energy()";
  std::uint64_t xmits = 0, deliveries = 0;
  for (core::NodeId i = 0; i < net.size(); ++i) {
    xmits += net.mac_of(i).transmissions();
    deliveries += net.mac_of(i).deliveries();
  }
  if (xmits != net.total_transmissions())
    return "sum of per-MAC transmissions differs from total_transmissions()";
  if (deliveries > xmits) return "MAC deliveries exceed transmissions";
  for (const auto& f : flows.flows())
    if (f->delivered_packets() > f->data_sent())
      return "flow " + std::to_string(f->id) + " delivered more than it sent";
  return "";
}

std::uint64_t digest_of(const exp::RunMetrics& m) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint64_t w :
       {m.delivered_packets, m.transmissions, m.queue_drops, m.attempt_drops,
        m.energy_budget_drops, m.route_drops, bits_of(m.total_energy_j)})
    mix(h, w);
  return h;
}

// Unit-cost probes on a member's final state; adds into `l`.
void probe(const exp::ScenarioSpec& spec, net::Network& net,
           const exp::FlowManager& flows, Layers& l) {
  const phy::Topology& topo = net.topology();
  const double color_s = unit_cost([&] {
    const double t0 = wall_now();
    const auto c = mac::color_interference(topo, spec.reuse_margin);
    const double dt = wall_now() - t0;
    if (c.colors_used == 0) throw std::logic_error("empty coloring");
    return dt;
  });

  std::set<core::NodeId> sources;
  for (const auto& f : flows.flows()) sources.insert(f->src);
  const double rows_s = unit_cost([&] {
    sim::Simulator sim;
    routing::LinkStateRouting fresh(sim, topo);
    const double t0 = wall_now();
    for (core::NodeId src : sources)
      (void)fresh.hops(src, 0);
    return wall_now() - t0;
  });
  const double row_s =
      rows_s / static_cast<double>(std::max<std::size_t>(1, sources.size()));

  std::vector<core::NodeId> scratch;
  std::size_t found = 0;
  const double nbr_pass_s = unit_cost([&] {
    const double t0 = wall_now();
    for (core::NodeId i = 0; i < topo.size(); ++i) {
      topo.neighbors_into(i, scratch);
      found += scratch.size();
    }
    return wall_now() - t0;
  });
  if (found == 0) throw std::logic_error("no neighbors in the final field");

  const double t0 = wall_now();
  if (exp::make_topology(spec).size() != topo.size())
    throw std::logic_error("topology rebuild changed the node count");
  l.topology_build_s += wall_now() - t0;

  l.color_pass_s += color_s;
  l.row_build_s += row_s;
  l.neighbor_query_s += nbr_pass_s / static_cast<double>(topo.size());
  const auto& rs = net.routing().stats();
  l.recolor_est_s +=
      static_cast<double>(net.mac_fabric().stats().recolors) * color_s;
  l.rows_est_s += static_cast<double>(rs.rows_built) * row_s;
}

void count_layers(net::Network& net, const exp::RunMetrics& m, Layers& l) {
  const auto ms = net.mac_fabric().stats();
  l.recolors += ms.recolors;
  l.colors_used = std::max<std::uint64_t>(l.colors_used, ms.colors_used);
  const auto& rs = net.routing().stats();
  l.refreshes += rs.refreshes;
  l.snapshots += rs.snapshots;
  l.rows_built += rs.rows_built;
  l.row_reuses += rs.row_reuses;
  l.route_drops += m.route_drops;
  l.generations += net.topology().generation();
  l.loss_streams += net.channel().stats().loss_streams;
  l.events += net.total_events_executed();
  l.event_pool_hw = std::max<std::uint64_t>(
      l.event_pool_hw, net.simulator().event_pool_stats().high_water);
  l.packet_pool_hw = std::max<std::uint64_t>(
      l.packet_pool_hw, net.packet_pool().stats().high_water);
  l.data_sent += m.data_packets_sent;
  l.source_rtx += m.source_retransmissions;
  l.cache_rtx += m.cache_retransmissions;
  l.acks_sent += m.acks_sent;
  l.xmits += m.transmissions;
  for (core::NodeId i = 0; i < net.size(); ++i)
    l.deliveries += net.mac_of(i).deliveries();
  l.queue_drops += m.queue_drops;
  l.attempt_drops += m.attempt_drops;
}

struct Runner {
  std::vector<Member> members;
  perfbench::MacTraceTarget* trace = nullptr;  // registered at kExt
  std::vector<std::string> errors;

  Pass run(const std::vector<Member>& batch, bool traced, bool with_probes) {
    Pass p;
    if (traced) trace->spans = {};
    for (const Member& mem : batch) {
      try {
        exp::ScenarioSpec spec = mem.spec;
        if (traced) {
          trace->inner = spec.mac;
          spec.mac = mac::Mac::kExt;
        }
        double t0 = wall_now();
        auto sc = exp::build(spec);
        double t1 = wall_now();
        p.setup_s += t1 - t0;
        net::Network& net = *sc.network;
        if (!traced) {
          net.run_until(mem.horizon_s);
          p.run_s += wall_now() - t1;
        } else {
          // One-simulated-second slices: the slice times show recolor
          // and refresh bursts.
          for (double t = 1.0;; t += 1.0) {
            const double end = std::min(t, mem.horizon_s);
            const double s0 = wall_now();
            net.run_until(end);
            const double dt = wall_now() - s0;
            p.slices_s.push_back(dt);
            p.run_s += dt;
            if (end >= mem.horizon_s) break;
          }
        }
        const auto m = sc.flows->collect(mem.horizon_s);
        const auto err = check_outputs(net, *sc.flows);
        if (!err.empty()) throw std::runtime_error(err);
        p.delivered += m.delivered_packets;
        p.energy.total_energy_j += m.total_energy_j;
        p.energy.delivered_payload_bits += m.delivered_payload_bits;
        p.digests.push_back(digest_of(m));
        if (traced) count_layers(net, m, p.layers);
        if (with_probes) probe(mem.spec, net, *sc.flows, p.layers);
      } catch (const std::exception& e) {
        errors.push_back(mem.text + ": " + e.what());
        p.digests.push_back(0);
      }
    }
    return p;
  }
};

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  for (const auto& m : metrics)
    std::printf("%-24s %20.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("%-24s %20.6f ratio\n", "fail_frac",
              static_cast<double>(failed) / static_cast<double>(attempted));
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  std::printf("}}\n");
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "jtp_perfbench: %s\n"
               "usage: jtp_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--horizon-scale F] [--perturb-digest] [--list]\n",
               msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  double horizon_scale = 1.0;
  bool perturb = false;
  bool list = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--perturb-digest") {
      perturb = true;
    } else if (a == "--list") {
      list = true;
    } else if (!has_value) {
      usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      workload = argv[++i];
    } else if (a == "--seed") {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds") {
      seconds = std::atof(argv[++i]);
    } else if (a == "--trace") {
      trace = std::atoi(argv[++i]);
    } else if (a == "--horizon-scale") {
      horizon_scale = std::atof(argv[++i]);
    } else {
      usage(("unknown flag " + a).c_str());
    }
  }
  if (workload.empty()) usage("--workload is required");
  if ((trace != 0 && trace != 1) || !(horizon_scale > 0.0))
    usage("bad --trace or --horizon-scale");

  Runner runner;
  try {
    runner.members = workload_members(workload, seed);
  } catch (const std::exception& e) {
    usage(e.what());
  }
  for (Member& m : runner.members) m.horizon_s *= horizon_scale;
  if (list) {
    for (const Member& m : runner.members)
      std::printf("%s horizon_s=%g\n", m.text.c_str(), m.horizon_s);
    return 0;
  }

  // Static: the process-wide MAC registry keeps the factory that refers
  // to it until exit.
  static perfbench::MacTraceTarget target;
  if (trace == 1) {
    mac::MacRegistry::instance().add(
        {mac::Mac::kExt,
         std::make_shared<const perfbench::TimedMacFactory>(target)});
    runner.trace = &target;
  }

  // Passes while the next one is expected to end within --seconds, at
  // least one. Under --trace 1 untraced and traced passes alternate, at
  // least one of each, and the first traced pass also runs the probes.
  // When a single untraced pass is all there is, its first member runs
  // once more, so that every run has a repeat whose digest must match.
  std::vector<Pass> plain, traced, repeats;
  std::vector<perfbench::MacSpans> spans;
  const double start = wall_now();
  for (std::size_t i = 0;; ++i) {
    const bool is_traced = trace == 1 && i % 2 == 1;
    Pass p =
        runner.run(runner.members, is_traced, is_traced && traced.empty());
    if (perturb && i > 0) p.digests.at(0) ^= 1;
    if (is_traced) {
      traced.push_back(std::move(p));
      spans.push_back(target.spans);
    } else {
      plain.push_back(std::move(p));
    }
    const double spent = wall_now() - start;
    const bool enough = trace == 0 || !traced.empty();
    if (enough && spent + spent / static_cast<double>(i + 1) > seconds) break;
  }
  if (plain.size() == 1 && traced.empty()) {
    repeats.push_back(runner.run({runner.members.front()}, false, false));
    if (perturb) repeats.back().digests.at(0) ^= 1;
  }

  // Every pass must reproduce the first pass's digest member by member.
  const auto& ref = plain.front().digests;
  std::size_t attempted = 0, failed = 0;
  for (const auto* group : {&plain, &traced, &repeats})
    for (const Pass& p : *group)
      for (std::size_t k = 0; k < p.digests.size(); ++k) {
        ++attempted;
        if (p.digests[k] == 0 || p.digests[k] != ref[k]) ++failed;
      }
  for (const auto& e : runner.errors)
    std::fprintf(stderr, "FAILED %s\n", e.c_str());
  if (failed > runner.errors.size())
    std::fprintf(stderr,
                 "FAILED %zu result digests differ from the first pass\n",
                 failed - runner.errors.size());

  auto times = [](const std::vector<Pass>& v, double Pass::*f) {
    std::vector<double> out;
    for (const Pass& p : v) out.push_back(p.*f);
    return out;
  };
  const double run_s = median(times(plain, &Pass::run_s));
  std::vector<Metric> metrics;
  if (trace == 0) {
    const Pass& first = plain.front();
    metrics = {
        {"run_s", run_s, "s"},
        {"setup_s", median(times(plain, &Pass::setup_s)), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"delivered_pkts", static_cast<double>(first.delivered), "packets"},
        {"energy_per_bit_uj", first.energy.energy_per_bit_uj(), "uJ/bit"},
    };
  } else {
    const Layers& l = traced.front().layers;
    const double n = static_cast<double>(runner.members.size());
    auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    std::vector<double> enq, pre, disp, p50, pmax;
    for (std::size_t k = 0; k < traced.size(); ++k) {
      enq.push_back(spans[k].enqueue.self_s());
      pre.push_back(spans[k].pre_xmit.self_s());
      disp.push_back(spans[k].dispatch.self_s());
      const auto& sl = traced[k].slices_s;
      p50.push_back(median(sl));
      pmax.push_back(sl.empty() ? 0.0
                                : *std::max_element(sl.begin(), sl.end()));
    }
    const auto& s0 = spans.front();
    metrics = {
        {"mac.recolors", d(l.recolors), "count"},
        {"mac.colors_used", d(l.colors_used), "count"},
        {"mac.color_pass_ms", l.color_pass_s / n * 1e3, "ms"},
        {"mac.recolor_share", ratio(l.recolor_est_s, run_s), "ratio"},
        {"routing.refreshes", d(l.refreshes), "count"},
        {"routing.snapshots", d(l.snapshots), "count"},
        {"routing.rows_built", d(l.rows_built), "count"},
        {"routing.row_reuses", d(l.row_reuses), "count"},
        {"routing.row_hit_ratio",
         ratio(d(l.row_reuses), d(l.row_reuses + l.rows_built)), "ratio"},
        {"routing.row_build_us", l.row_build_s / n * 1e6, "us"},
        {"routing.rows_share", ratio(l.rows_est_s, run_s), "ratio"},
        {"routing.route_drops", d(l.route_drops), "packets"},
        {"phy.neighbor_query_ns", l.neighbor_query_s / n * 1e9, "ns"},
        {"phy.generations", d(l.generations), "count"},
        {"phy.loss_streams", d(l.loss_streams), "count"},
        {"phy.topology_build_s", l.topology_build_s, "s"},
        {"sim.events", d(l.events), "count"},
        {"sim.events_per_s", ratio(d(l.events), run_s), "1/s"},
        {"sim.event_pool_hw", d(l.event_pool_hw), "count"},
        {"sim.slice_p50_s", median(p50), "s"},
        {"sim.slice_max_s", median(pmax), "s"},
        {"core.data_sent", d(l.data_sent), "packets"},
        {"core.source_rtx", d(l.source_rtx), "packets"},
        {"core.cache_rtx", d(l.cache_rtx), "packets"},
        {"core.acks_sent", d(l.acks_sent), "packets"},
        {"core.packet_pool_hw", d(l.packet_pool_hw), "count"},
        {"core.pre_xmit_calls", d(s0.pre_xmit.calls), "count"},
        {"core.pre_xmit_s", median(pre), "s"},
        {"mac.enqueue_calls", d(s0.enqueue.calls), "count"},
        {"mac.enqueue_s", median(enq), "s"},
        {"mac.dispatch_calls", d(s0.dispatch.calls), "count"},
        {"mac.dispatch_s", median(disp), "s"},
        {"mac.xmits", d(l.xmits), "packets"},
        {"mac.deliveries", d(l.deliveries), "packets"},
        {"mac.delivery_ratio", ratio(d(l.deliveries), d(l.xmits)), "ratio"},
        {"mac.queue_drops", d(l.queue_drops), "packets"},
        {"mac.attempt_drops", d(l.attempt_drops), "packets"},
        {"trace.overhead_s", median(times(traced, &Pass::run_s)) - run_s, "s"},
    };
  }
  print_result(failed == 0, attempted, failed, metrics);
  return 0;
}
