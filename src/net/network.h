// Network: owns the whole simulated system and wires flows onto it.
//
// One Network = one simulation run: simulator, topology, channel, energy
// model, MAC fabric, routing service, one Node per vertex, and the
// transport endpoints attached to nodes. Flows attach through one
// polymorphic entry point — add_flow(proto, src, dst, opts) — which
// builds the protocol's endpoints through net::make_endpoints (one switch
// over core::Proto, net/transport.h); the link layer is resolved through
// the MacRegistry keyed by NetworkConfig::mac_kind. The Network itself
// knows no protocol or MAC names. This is the "adaptation layer" through
// which experiments and examples use the library.
//
// Event keys (see sim/simulator.h): flow start-up events execute as their
// endpoint node (owner id + 1), and every MAC delivery executes as its
// receiver, so whatever the receiving stack schedules draws its tie from
// the receiver's stream. Receive energy is charged when the delivery
// executes.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/packet_pool.h"
#include "core/transport.h"
#include "mac/registry.h"
#include "net/node.h"
#include "net/sim_env.h"
#include "net/transport.h"
#include "phy/channel.h"
#include "phy/energy_model.h"
#include "phy/mobility.h"
#include "phy/topology.h"
#include "routing/link_state.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace jtp::net {

struct NetworkConfig {
  std::uint64_t seed = 1;
  phy::ChannelConfig channel;
  phy::RadioConfig radio;
  mac::Mac mac_kind = mac::Mac::kTdma;  // which registered MAC to build
  mac::MacConfig mac;
  routing::RoutingConfig routing;
  NodeConfig node;
  double slot_duration_s = 0.035;  // ~ one max-size packet airtime
  std::optional<phy::MobilityConfig> mobility;  // engaged => nodes move
};

class Network {
 public:
  Network(phy::Topology topology, NetworkConfig cfg = {});
  ~Network();
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // --- flow attachment (endpoints are owned by the network) ---
  // Builds the proto's endpoint pair through make_endpoints, wires it to
  // the src/dst nodes, and returns the uniform handle. The flow is idle
  // until start() is invoked on it (FlowManager does the scheduling).
  // Throws std::invalid_argument on out-of-range endpoints.
  FlowHandle add_flow(Proto proto, core::NodeId src, core::NodeId dst,
                      const FlowOptions& opt = {});

  // --- access ---
  sim::Simulator& simulator() { return sim_; }
  core::Env& env() { return env_; }
  core::PacketPool& packet_pool() { return pool_; }
  phy::Topology& topology() { return topo_; }
  phy::Channel& channel() { return channel_; }
  phy::EnergyModel& energy() { return energy_; }
  routing::LinkStateRouting& routing() { return routing_; }
  const mac::MacFabric& mac_fabric() const { return *fabric_; }
  Node& node(core::NodeId id) { return *nodes_.at(id); }
  mac::MacIface& mac_of(core::NodeId id) { return fabric_->mac_of(id); }
  std::size_t size() const { return nodes_.size(); }
  sim::Rng& rng() { return rng_; }
  const NetworkConfig& config() const { return cfg_; }
  double now() const { return sim_.now(); }
  double slot_duration_s() const { return cfg_.slot_duration_s; }

  // Schedules `fn` at absolute time `at`, executing as node `id` (its
  // tie comes from the root stream; what it schedules draws from the
  // node's own stream). Call outside a run only (flow setup).
  void schedule_at_node(core::NodeId id, double at, std::function<void()> fn);

  // Starts routing refresh (and mobility if configured) on the first
  // call, then runs the simulation until `t`.
  void run_until(double t);

  // --- aggregate counters across nodes ---
  std::uint64_t total_queue_drops() const;
  std::uint64_t total_attempt_drops() const;
  std::uint64_t total_energy_budget_drops() const;
  std::uint64_t total_cache_retransmissions() const;
  std::uint64_t total_transmissions() const;
  std::uint64_t total_route_drops() const;
  std::uint64_t total_events_executed() const {
    return sim_.events_executed();
  }

  // --- energy ---
  // total_energy() is the index-order sum of node_energy(i), so it equals
  // a caller's sum over per_node_energy() exactly (the energy model's
  // running total accumulates in charge order and can differ in the last
  // bits).
  core::Joules node_energy(core::NodeId id) const {
    return energy_.node_energy(id);
  }
  core::Joules total_energy() const;
  std::vector<core::Joules> per_node_energy() const;

 private:
  // MAC delivery seam: schedules the delivery `delay_s` from now,
  // executing as the receiver, and charges the receive energy when it
  // runs.
  void dispatch_delivery(double delay_s, core::PacketPtr&& p,
                         core::NodeId from, core::NodeId to);

  core::FlowId next_flow_id_ = 1;

  NetworkConfig cfg_;
  sim::Rng rng_;
  phy::Topology topo_;
  // The pool precedes the simulator: pending delivery events hold packet
  // handles, and destroying the simulator releases them back into the
  // pool (see sim_env.h).
  core::PacketPool pool_;
  sim::Simulator sim_;
  phy::Channel channel_;
  phy::EnergyModel energy_;
  routing::LinkStateRouting routing_;
  SimEnv env_;
  std::unique_ptr<mac::MacFabric> fabric_;
  std::unique_ptr<phy::RandomWaypoint> mobility_;  // null when static
  FlowTable flows_;
  std::vector<std::unique_ptr<Node>> nodes_;
  bool started_ = false;

  // Endpoint storage (stable addresses; destroyed before nodes/macs by
  // reverse member order).
  std::vector<std::unique_ptr<core::TransportSender>> senders_;
  std::vector<std::unique_ptr<core::TransportReceiver>> receivers_;

 public:
  // Allocates a fresh flow id under a hop policy (visible for custom
  // wiring in tests).
  core::FlowId allocate_flow(HopPolicy policy);
  FlowTable& flow_table() { return flows_; }
};

}  // namespace jtp::net
