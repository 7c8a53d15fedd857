// Experiment metrics (paper §6.1): energy per delivered bit and goodput,
// plus the secondary counters individual figures need (source rtx, cache
// hits, queue drops, per-node energy).
#pragma once

#include <cstdint>
#include <vector>

namespace jtp::exp {

struct RunMetrics {
  double duration_s = 0.0;
  double total_energy_j = 0.0;
  double delivered_payload_bits = 0.0;
  double per_flow_goodput_kbps_mean = 0.0;
  std::uint64_t delivered_packets = 0;
  std::uint64_t waived_packets = 0;
  std::uint64_t data_packets_sent = 0;
  std::uint64_t source_retransmissions = 0;
  std::uint64_t cache_retransmissions = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t queue_drops = 0;
  std::uint64_t attempt_drops = 0;
  std::uint64_t energy_budget_drops = 0;
  std::uint64_t route_drops = 0;
  std::uint64_t transmissions = 0;
  std::vector<double> per_node_energy_j;

  // Per-flow distribution metrics (ROADMAP "metrics that matter"):
  // Jain's fairness index (Σx)²/(n·Σx²) over per-flow delivered packets
  // (1 = perfectly fair, 1/n = one flow starves the rest; 0 only when
  // nothing was delivered at all), and the p99 (nearest-rank) completion
  // latency over flows that finished their bounded transfer (0 when none
  // did — e.g. long-lived on_off/fan_in flows). Both are pure functions
  // of per-flow counters.
  double jain_fairness = 0.0;
  double p99_completion_s = 0.0;

  // µJ per delivered application bit; 0 when nothing was delivered.
  double energy_per_bit_uj() const {
    if (delivered_payload_bits <= 0.0) return 0.0;
    return total_energy_j / delivered_payload_bits * 1e6;
  }
  double energy_per_bit_mj() const {
    if (delivered_payload_bits <= 0.0) return 0.0;
    return total_energy_j / delivered_payload_bits * 1e3;
  }
  double delivered_kbit() const { return delivered_payload_bits / 1e3; }
};

}  // namespace jtp::exp
