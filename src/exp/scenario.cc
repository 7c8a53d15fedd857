#include "exp/scenario.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace jtp::exp {

std::string topology_name(TopologyKind k) {
  switch (k) {
    case TopologyKind::kLinear: return "linear";
    case TopologyKind::kRandom: return "random";
    case TopologyKind::kGrid: return "grid";
  }
  return "?";
}

std::string workload_name(WorkloadKind k) {
  switch (k) {
    case WorkloadKind::kManual: return "manual";
    case WorkloadKind::kEnds: return "ends";
    case WorkloadKind::kRandomPairs: return "random_pairs";
    case WorkloadKind::kPoisson: return "poisson";
    case WorkloadKind::kOnOff: return "on_off";
    case WorkloadKind::kFanIn: return "fan_in";
  }
  return "?";
}

bool operator==(const WorkloadSpec& a, const WorkloadSpec& b) {
  return a.kind == b.kind && a.n_flows == b.n_flows &&
         a.transfer_packets == b.transfer_packets &&
         a.start_delay_s == b.start_delay_s && a.stagger_s == b.stagger_s &&
         a.mean_interarrival_s == b.mean_interarrival_s &&
         a.arrival_window_s == b.arrival_window_s &&
         a.mean_burst_gap_s == b.mean_burst_gap_s && a.fan_in == b.fan_in &&
         a.loss_tolerance == b.loss_tolerance;
}

bool operator==(const ScenarioSpec& a, const ScenarioSpec& b) {
  return a.topology == b.topology && a.net_size == b.net_size &&
         a.grid_cols == b.grid_cols && a.speed_mps == b.speed_mps &&
         a.fading == b.fading && a.loss_good == b.loss_good &&
         a.loss_bad == b.loss_bad && a.bad_fraction == b.bad_fraction &&
         a.proto == b.proto &&
         a.cache_size_packets == b.cache_size_packets &&
         a.queue_capacity_packets == b.queue_capacity_packets &&
         a.slot_duration_s == b.slot_duration_s &&
         a.routing_refresh_s == b.routing_refresh_s && a.seed == b.seed &&
         a.mac == b.mac && a.reuse_margin == b.reuse_margin &&
         a.csma_min_be == b.csma_min_be && a.csma_max_be == b.csma_max_be &&
         a.csma_max_backoffs == b.csma_max_backoffs &&
         a.workload == b.workload;
}

// ---------------------------------------------------------------------------
// Presets
// ---------------------------------------------------------------------------

ScenarioSpec preset(const std::string& name) {
  ScenarioSpec s;  // defaults == the linear substrate
  if (name == "linear") {
    // §6.1.1: two competing full-reliability flows between the chain's
    // ends, staggered starts.
    s.workload.kind = WorkloadKind::kEnds;
    s.workload.n_flows = 2;
    s.workload.start_delay_s = 10.0;
    s.workload.stagger_s = 10.0;
    return s;
  }
  if (name == "random") {
    // §6.1.2: connected uniform placement, 5 random long-lived flows.
    s.topology = TopologyKind::kRandom;
    s.net_size = 20;
    s.workload.kind = WorkloadKind::kRandomPairs;
    s.workload.n_flows = 5;
    s.workload.start_delay_s = 10.0;
    return s;
  }
  if (name == "mobile") {
    // §6.1.2: 15-node random-waypoint field.
    s.topology = TopologyKind::kRandom;
    s.net_size = 15;
    s.speed_mps = 1.0;
    s.workload.kind = WorkloadKind::kRandomPairs;
    s.workload.n_flows = 5;
    s.workload.start_delay_s = 10.0;
    return s;
  }
  if (name == "testbed") {
    // Table 2: 14 nodes in a 7x2 indoor grid; links stable and good
    // ("the links are more stable and their quality is much better");
    // per-node Poisson flows, 100 KB = 125 packets, 30-minute horizon
    // (arrivals stop 100 s before it).
    s.topology = TopologyKind::kGrid;
    s.net_size = 14;
    s.grid_cols = 7;
    s.fading = false;
    s.loss_good = 0.01;
    s.workload.kind = WorkloadKind::kPoisson;
    s.workload.transfer_packets = 125;
    s.workload.mean_interarrival_s = 400.0;
    s.workload.arrival_window_s = 1700.0;
    return s;
  }
  if (name == "scale") {
    // Production-scale tier (not a paper family): a large connected
    // random field with many flows fanning into one sink. net_size is
    // meant to be swept (100/400/1000 in bench/scale_sweep.cc); add
    // speed=1 for the mobile variant. The slot is scaled down from the
    // paper's 35 ms because classic TDMA capacity is 1/(n*slot) per
    // node — at n = 1000 the paper slot would starve every flow to
    // 0.03 pkt/s. Add mac=tdma_reuse for the real fix: spatial slot
    // reuse makes the frame scale with local density, not n.
    s.topology = TopologyKind::kRandom;
    s.net_size = 100;
    s.slot_duration_s = 0.005;
    s.workload.kind = WorkloadKind::kFanIn;
    s.workload.fan_in = 8;
    s.workload.start_delay_s = 10.0;
    s.workload.stagger_s = 1.0;
    return s;
  }
  if (name == "scale_mobile") {
    // The scale tier under churn: same field, workload and slot as
    // "scale", with every node on a 1 m/s random waypoint, so every
    // routing refresh sees a new topology and the fan-in sources rebuild
    // their rows (bench/scale_sweep.cc --scenario scale_mobile).
    s = preset("scale");
    s.speed_mps = 1.0;
    return s;
  }
  throw std::invalid_argument("unknown scenario preset '" + name +
                              "' (known: " + join_names(preset_names()) +
                              ")");
}

std::vector<std::string> preset_names() {
  return {"linear", "random", "mobile", "testbed", "scale", "scale_mobile"};
}

// Every named enumerator in enum order: enumerators count up from 0 and
// the name functions print "?" past the last.
template <typename Kind>
static std::vector<std::string> kind_names(std::string (*name)(Kind)) {
  std::vector<std::string> out;
  for (int v = 0; name(static_cast<Kind>(v)) != "?"; ++v)
    out.push_back(name(static_cast<Kind>(v)));
  return out;
}

std::vector<std::string> topology_names() { return kind_names(topology_name); }

std::vector<std::string> workload_names() { return kind_names(workload_name); }

std::vector<std::string> proto_names() {
  std::vector<std::string> out;
  for (const Proto p : core::all_protos()) out.push_back(proto_name(p));
  return out;
}

std::vector<std::string> mac_names() {
  // kExt, the last enumerator, is the experiment slot; parse_mac rejects
  // its name, so the round trip keeps it off the list.
  std::vector<std::string> out;
  for (int v = 0; v <= static_cast<int>(mac::Mac::kExt); ++v) {
    const auto m = static_cast<mac::Mac>(v);
    if (mac::parse_mac(mac::mac_name(m)) == m) out.push_back(mac::mac_name(m));
  }
  return out;
}

std::string join_names(const std::vector<std::string>& names) {
  std::string out;
  for (const auto& n : names) out += (out.empty() ? "" : ", ") + n;
  return out;
}

// ---------------------------------------------------------------------------
// key=value parsing
// ---------------------------------------------------------------------------

namespace {

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

bool parse_double(const std::string& v, double& out) {
  if (v.empty()) return false;
  char* end = nullptr;
  const double d = std::strtod(v.c_str(), &end);
  if (end != v.c_str() + v.size() || !std::isfinite(d)) return false;
  out = d;
  return true;
}

bool parse_u64(const std::string& v, std::uint64_t& out) {
  // Digits only: strtoull would silently wrap "-1" to 2^64-1.
  if (v.empty()) return false;
  for (char c : v)
    if (c < '0' || c > '9') return false;
  errno = 0;
  out = std::strtoull(v.c_str(), nullptr, 10);
  // Reject silent saturation to ULLONG_MAX on overflow.
  return errno != ERANGE;
}

bool parse_bool(const std::string& v, bool& out) {
  if (v == "1" || v == "true") {
    out = true;
    return true;
  }
  if (v == "0" || v == "false") {
    out = false;
    return true;
  }
  return false;
}

std::string bad_value(const std::string& key, const std::string& value,
                      const std::string& expected) {
  return "scenario: " + key + ": '" + value + "' is not " + expected;
}

// Applies one key=value pair; returns "" or an error.
std::string apply_pair(ScenarioSpec& spec, const std::string& key,
                       const std::string& value) {
  auto set_double = [&](double& field, double lo, double hi,
                        const char* expected) -> std::string {
    double d = 0.0;
    if (!parse_double(value, d) || d < lo || d > hi)
      return bad_value(key, value, expected);
    field = d;
    return "";
  };
  auto set_size = [&](std::size_t& field, std::uint64_t lo,
                      const char* expected) -> std::string {
    std::uint64_t u = 0;
    if (!parse_u64(value, u) || u < lo) return bad_value(key, value, expected);
    field = static_cast<std::size_t>(u);
    return "";
  };

  if (key == "topology") {
    const auto names = topology_names();
    const auto it = std::find(names.begin(), names.end(), value);
    if (it == names.end())
      return bad_value(key, value, "a topology (" + join_names(names) + ")");
    spec.topology = static_cast<TopologyKind>(it - names.begin());
    return "";
  }
  if (key == "net_size") return set_size(spec.net_size, 2, "an integer >= 2");
  if (key == "grid_cols")
    return set_size(spec.grid_cols, 1, "an integer >= 1");
  if (key == "speed")
    return set_double(spec.speed_mps, 0.0, 1e3, "a speed in [0, 1000] m/s");
  if (key == "fading") {
    if (!parse_bool(value, spec.fading))
      return bad_value(key, value, "a boolean (0/1/true/false)");
    return "";
  }
  if (key == "loss_good")
    return set_double(spec.loss_good, 0.0, 1.0, "a probability in [0, 1]");
  if (key == "loss_bad")
    return set_double(spec.loss_bad, 0.0, 1.0, "a probability in [0, 1]");
  if (key == "bad_fraction")
    return set_double(spec.bad_fraction, 0.0, 1.0,
                      "a probability in [0, 1]");
  if (key == "proto") {
    const auto p = parse_proto(value);
    if (!p)
      return bad_value(key, value,
                       "a protocol (" + join_names(proto_names()) + ")");
    spec.proto = *p;
    return "";
  }
  if (key == "cache_size")
    return set_size(spec.cache_size_packets, 1, "an integer >= 1");
  if (key == "queue_capacity")
    return set_size(spec.queue_capacity_packets, 1, "an integer >= 1");
  if (key == "slot_duration")
    return set_double(spec.slot_duration_s, 1e-6, 10.0,
                      "a duration in (0, 10] s");
  if (key == "routing_refresh")
    return set_double(spec.routing_refresh_s, 1e-3, 1e6,
                      "a positive duration in seconds");
  if (key == "seed") {
    if (!parse_u64(value, spec.seed))
      return bad_value(key, value, "a non-negative integer");
    return "";
  }
  if (key == "mac") {
    const auto m = mac::parse_mac(value);
    if (!m)
      return bad_value(key, value, "a MAC (" + join_names(mac_names()) + ")");
    spec.mac = *m;
    return "";
  }
  if (key == "reuse_margin")
    return set_double(spec.reuse_margin, 1.0, 4.0,
                      "a range multiple in [1, 4]");
  if (key == "min_be") {
    const auto err = set_size(spec.csma_min_be, 0, "an integer in [0, 10]");
    if (!err.empty() || spec.csma_min_be > 10)
      return bad_value(key, value, "an integer in [0, 10]");
    return "";
  }
  if (key == "max_be") {
    const auto err = set_size(spec.csma_max_be, 0, "an integer in [0, 10]");
    if (!err.empty() || spec.csma_max_be > 10)
      return bad_value(key, value, "an integer in [0, 10]");
    return "";
  }
  if (key == "max_backoffs") {
    const auto err =
        set_size(spec.csma_max_backoffs, 0, "an integer in [0, 20]");
    if (!err.empty() || spec.csma_max_backoffs > 20)
      return bad_value(key, value, "an integer in [0, 20]");
    return "";
  }
  if (key == "workload") {
    const auto names = workload_names();
    const auto it = std::find(names.begin(), names.end(), value);
    if (it == names.end())
      return bad_value(key, value, "a workload (" + join_names(names) + ")");
    spec.workload.kind = static_cast<WorkloadKind>(it - names.begin());
    return "";
  }
  if (key == "flows")
    return set_size(spec.workload.n_flows, 1, "an integer >= 1");
  if (key == "transfer") {
    if (!parse_u64(value, spec.workload.transfer_packets))
      return bad_value(key, value,
                       "a packet count (0 = long-lived flows)");
    return "";
  }
  if (key == "start")
    return set_double(spec.workload.start_delay_s, 0.0, 1e9,
                      "a non-negative delay in seconds");
  if (key == "stagger")
    return set_double(spec.workload.stagger_s, 0.0, 1e9,
                      "a non-negative delay in seconds");
  if (key == "interarrival")
    return set_double(spec.workload.mean_interarrival_s, 1e-3, 1e9,
                      "a positive duration in seconds");
  if (key == "window")
    return set_double(spec.workload.arrival_window_s, 0.0, 1e9,
                      "a non-negative duration in seconds");
  if (key == "burst_gap")
    return set_double(spec.workload.mean_burst_gap_s, 1e-3, 1e9,
                      "a positive duration in seconds");
  if (key == "fan_in")
    return set_size(spec.workload.fan_in, 1, "an integer >= 1");
  if (key == "loss_tolerance")
    return set_double(spec.workload.loss_tolerance, 0.0, 1.0,
                      "a fraction in [0, 1]");
  return "scenario: unknown key '" + key + "'";
}

std::string fmt_double(double v) {
  char buf[40];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

}  // namespace

// Cross-key validation. Tuning a MAC discipline the spec does not select
// would be a silent no-op, so it is an error instead; those checks
// trigger only on non-default values — to_string() always emits every
// key, and the round-trip contract must hold for every valid spec. A
// workload the network cannot host is rejected here too, so a bad spec
// fails at parse time instead of inside a run.
std::string validate_spec(const ScenarioSpec& s) {
  // "Non-default" is measured against the default-constructed spec, so
  // this check can never drift from the knobs' real defaults.
  const ScenarioSpec d;
  if (s.mac != mac::Mac::kTdmaReuse && s.reuse_margin != d.reuse_margin)
    return "scenario: reuse_margin requires mac=tdma_reuse";
  if (s.mac != mac::Mac::kCsma &&
      (s.csma_min_be != d.csma_min_be || s.csma_max_be != d.csma_max_be ||
       s.csma_max_backoffs != d.csma_max_backoffs))
    return "scenario: min_be/max_be/max_backoffs require mac=csma";
  if (s.csma_min_be > s.csma_max_be)
    return "scenario: min_be must be <= max_be";
  if (s.workload.kind == WorkloadKind::kOnOff &&
      s.workload.transfer_packets == 0)
    return "scenario: on_off workload needs transfer > 0 "
           "(the burst size in packets)";
  if (s.workload.kind == WorkloadKind::kFanIn &&
      s.workload.fan_in > s.net_size - 1)
    return "scenario: fan_in must be at most net_size - 1";
  return "";
}

std::string apply_scenario_tokens(ScenarioSpec& spec, const std::string& text,
                                  std::vector<std::string>* keys) {
  std::size_t pos = 0;
  bool first = true;
  while (pos <= text.size()) {
    const auto comma = text.find(',', pos);
    const auto raw =
        text.substr(pos, comma == std::string::npos ? comma : comma - pos);
    pos = comma == std::string::npos ? text.size() + 1 : comma + 1;
    const auto token = trim(raw);
    if (token.empty()) {
      if (first && text.empty()) return "";  // empty spec = no changes
      return "scenario: empty token";
    }
    const auto eq = token.find('=');
    if (eq == std::string::npos) {
      if (!first)
        return "scenario: bare token '" + token +
               "' (only the first token may name a preset)";
      try {
        spec = preset(token);
      } catch (const std::invalid_argument& e) {
        return e.what();
      }
    } else {
      const auto key = trim(token.substr(0, eq));
      const auto value = trim(token.substr(eq + 1));
      if (key.empty()) return "scenario: empty key in '" + token + "'";
      const auto err = apply_pair(spec, key, value);
      if (!err.empty()) return err;
      if (keys) keys->push_back(key);
    }
    first = false;
  }
  return validate_spec(spec);
}

SpecParse parse_scenario(const std::string& text) {
  SpecParse out;
  out.error = apply_scenario_tokens(out.spec, text);
  return out;
}

std::string to_string(const ScenarioSpec& s) {
  std::string out;
  auto kv = [&](const char* key, const std::string& value) {
    if (!out.empty()) out += ',';
    out += key;
    out += '=';
    out += value;
  };
  kv("topology", topology_name(s.topology));
  kv("net_size", std::to_string(s.net_size));
  kv("grid_cols", std::to_string(s.grid_cols));
  kv("speed", fmt_double(s.speed_mps));
  kv("fading", s.fading ? "1" : "0");
  kv("loss_good", fmt_double(s.loss_good));
  kv("loss_bad", fmt_double(s.loss_bad));
  kv("bad_fraction", fmt_double(s.bad_fraction));
  kv("proto", proto_name(s.proto));
  kv("cache_size", std::to_string(s.cache_size_packets));
  kv("queue_capacity", std::to_string(s.queue_capacity_packets));
  kv("slot_duration", fmt_double(s.slot_duration_s));
  kv("routing_refresh", fmt_double(s.routing_refresh_s));
  kv("seed", std::to_string(s.seed));
  kv("mac", mac::mac_name(s.mac));
  kv("reuse_margin", fmt_double(s.reuse_margin));
  kv("min_be", std::to_string(s.csma_min_be));
  kv("max_be", std::to_string(s.csma_max_be));
  kv("max_backoffs", std::to_string(s.csma_max_backoffs));
  kv("workload", workload_name(s.workload.kind));
  kv("flows", std::to_string(s.workload.n_flows));
  kv("transfer", std::to_string(s.workload.transfer_packets));
  kv("start", fmt_double(s.workload.start_delay_s));
  kv("stagger", fmt_double(s.workload.stagger_s));
  kv("interarrival", fmt_double(s.workload.mean_interarrival_s));
  kv("window", fmt_double(s.workload.arrival_window_s));
  kv("burst_gap", fmt_double(s.workload.mean_burst_gap_s));
  kv("fan_in", std::to_string(s.workload.fan_in));
  kv("loss_tolerance", fmt_double(s.workload.loss_tolerance));
  return out;
}

// ---------------------------------------------------------------------------
// Building
// ---------------------------------------------------------------------------

double random_field_side_m(std::size_t n) {
  // Density chosen so the range graph is connected w.h.p. but multi-hop.
  // At paper scale (n <= 25) this is the paper's ~5 nodes per range-disk
  // area, kept verbatim for baseline compatibility. A random geometric
  // graph needs per-disk occupancy ~ ln n + c to stay connected, so for
  // the large-n scale tier the occupancy grows with ln(n/25) + 5 =
  // ln n + 1.78 (constant success margin c ~ 1.78 per placement attempt);
  // max() makes the two regimes meet exactly at n = 25.
  const double disk = 3.14159265358979 * kRangeM * kRangeM;
  const double per_disk =
      std::max(5.0, std::log(static_cast<double>(n) / 25.0) + 5.0);
  return std::sqrt(static_cast<double>(n) * disk / per_disk);
}

net::NetworkConfig make_network_config(const ScenarioSpec& spec) {
  net::NetworkConfig cfg;
  cfg.seed = spec.seed;
  cfg.slot_duration_s = spec.slot_duration_s;
  cfg.channel.fading_enabled = spec.fading;
  cfg.channel.loss_good = spec.loss_good;
  cfg.channel.loss_bad = spec.loss_bad;
  cfg.channel.bad_fraction = spec.bad_fraction;
  cfg.mac_kind = spec.mac;
  cfg.mac.queue_capacity_packets = spec.queue_capacity_packets;
  cfg.mac.reuse_range_margin = spec.reuse_margin;
  cfg.mac.csma.min_be = static_cast<int>(spec.csma_min_be);
  cfg.mac.csma.max_be = static_cast<int>(spec.csma_max_be);
  cfg.mac.csma.max_backoffs = static_cast<int>(spec.csma_max_backoffs);
  cfg.routing.refresh_interval_s = spec.routing_refresh_s;
  cfg.node.ijtp.cache_capacity_packets = spec.cache_size_packets;
  cfg.node.ijtp.caching_enabled = net::caching_enabled(spec.proto);
  return cfg;
}

phy::Topology make_topology(const ScenarioSpec& spec) {
  if (spec.net_size < 2)
    throw std::invalid_argument("scenario: net_size must be >= 2");
  switch (spec.topology) {
    case TopologyKind::kLinear:
      return phy::Topology::linear(spec.net_size, kSpacingM, kRangeM);
    case TopologyKind::kRandom: {
      sim::Rng rng(spec.seed);
      auto placement_rng = rng.derive("placement");
      return phy::Topology::random_connected(
          spec.net_size, random_field_side_m(spec.net_size), kRangeM,
          placement_rng);
    }
    case TopologyKind::kGrid: {
      phy::Topology topo(spec.net_size, kRangeM);
      const auto cols = std::max<std::size_t>(1, spec.grid_cols);
      for (core::NodeId i = 0; i < spec.net_size; ++i) {
        const double x = static_cast<double>(i % cols) * kSpacingM;
        const double y = static_cast<double>(i / cols) * kSpacingM;
        topo.set_position(i, {x, y});
      }
      return topo;
    }
  }
  throw std::invalid_argument("scenario: unknown topology kind");
}

namespace {

// The waypoint clip box: the random field's side, or the placed extent
// for deterministic layouts (mobile chains/grids are new combinations —
// no paper baseline constrains them).
double mobility_field_m(const ScenarioSpec& spec) {
  switch (spec.topology) {
    case TopologyKind::kRandom:
      return random_field_side_m(spec.net_size);
    case TopologyKind::kLinear:
      return kSpacingM * static_cast<double>(spec.net_size - 1);
    case TopologyKind::kGrid: {
      const auto cols = std::max<std::size_t>(1, spec.grid_cols);
      const auto rows = (spec.net_size + cols - 1) / cols;
      return kSpacingM * static_cast<double>(std::max(cols, rows) - 1);
    }
  }
  return random_field_side_m(spec.net_size);
}

void apply_workload(const ScenarioSpec& spec, FlowManager& fm) {
  const WorkloadSpec& w = spec.workload;
  FlowOptions opt;
  opt.loss_tolerance = w.loss_tolerance;
  const std::size_t n = spec.net_size;
  switch (w.kind) {
    case WorkloadKind::kManual:
      return;
    case WorkloadKind::kEnds: {
      const auto last = static_cast<core::NodeId>(n - 1);
      for (std::size_t i = 0; i < w.n_flows; ++i) {
        const bool forward = (i % 2 == 0);
        fm.create(forward ? 0 : last, forward ? last : 0, w.transfer_packets,
                  w.start_delay_s + static_cast<double>(i) * w.stagger_s,
                  opt);
      }
      return;
    }
    case WorkloadKind::kRandomPairs: {
      sim::Rng rng(spec.seed);
      auto fr = rng.derive("flow-endpoints");
      for (std::size_t i = 0; i < w.n_flows; ++i) {
        const auto a = static_cast<core::NodeId>(fr.integer(n));
        auto b = static_cast<core::NodeId>(fr.integer(n));
        if (a == b) b = static_cast<core::NodeId>((b + 1) % n);
        fm.create(a, b, w.transfer_packets, w.start_delay_s, opt);
      }
      return;
    }
    case WorkloadKind::kPoisson: {
      sim::Rng rng(spec.seed);
      auto arr = rng.derive("arrivals");
      for (core::NodeId src = 0; src < n; ++src) {
        double t = arr.exponential(w.mean_interarrival_s);
        while (t < w.arrival_window_s) {
          auto dst = static_cast<core::NodeId>(arr.integer(n));
          if (dst == src) dst = static_cast<core::NodeId>((dst + 1) % n);
          fm.create(src, dst, w.transfer_packets, t, opt);
          t += arr.exponential(w.mean_interarrival_s);
        }
      }
      return;
    }
    case WorkloadKind::kOnOff: {
      // Bursty sources: each of the n_flows sources holds one random
      // (src, dst) pair and fires a bounded `transfer`-packet burst at
      // exponential gaps — the off period is whatever remains of the gap
      // after the burst drains. validate_spec guarantees transfer > 0.
      sim::Rng rng(spec.seed);
      auto br = rng.derive("bursts");
      for (std::size_t i = 0; i < w.n_flows; ++i) {
        const auto a = static_cast<core::NodeId>(br.integer(n));
        auto b = static_cast<core::NodeId>(br.integer(n));
        if (a == b) b = static_cast<core::NodeId>((b + 1) % n);
        double t = w.start_delay_s + br.exponential(w.mean_burst_gap_s);
        while (t < w.start_delay_s + w.arrival_window_s) {
          fm.create(a, b, w.transfer_packets, t, opt);
          t += br.exponential(w.mean_burst_gap_s);
        }
      }
      return;
    }
    case WorkloadKind::kFanIn: {
      // Many-flow convergence: fan_in distinct random senders all target
      // node 0. The sink-side stack (MAC queue, SNACK service, cache) is
      // the bottleneck under test. validate_spec guarantees
      // fan_in <= n - 1.
      sim::Rng rng(spec.seed);
      auto fr = rng.derive("fan-in");
      std::vector<bool> used(n, false);
      used[0] = true;
      for (std::size_t i = 0; i < w.fan_in; ++i) {
        core::NodeId src;
        do {
          src = static_cast<core::NodeId>(fr.integer(n));
        } while (used[src]);
        used[src] = true;
        fm.create(src, 0, w.transfer_packets,
                  w.start_delay_s + static_cast<double>(i) * w.stagger_s,
                  opt);
      }
      return;
    }
  }
}

}  // namespace

Scenario build(const ScenarioSpec& spec) {
  // Programmatically assembled specs bypass the parser; re-validate.
  const auto verr = validate_spec(spec);
  if (!verr.empty()) throw std::invalid_argument(verr);
  auto cfg = make_network_config(spec);
  auto topo = make_topology(spec);
  if (spec.speed_mps > 0.0) {
    phy::MobilityConfig mob;
    mob.speed_mps = spec.speed_mps;
    mob.field_m = mobility_field_m(spec);
    cfg.mobility = mob;
  }
  Scenario s;
  s.network = std::make_unique<net::Network>(std::move(topo), cfg);
  s.flows = std::make_unique<FlowManager>(*s.network, spec.proto);
  apply_workload(spec, *s.flows);
  return s;
}

}  // namespace jtp::exp
