#include "net/network.h"

#include <stdexcept>
#include <utility>

namespace jtp::net {

Network::Network(phy::Topology topology, NetworkConfig cfg)
    : cfg_(std::move(cfg)),
      rng_(cfg_.seed),
      topo_(std::move(topology)),
      channel_(cfg_.channel, sim::Rng(cfg_.seed).derive("channel")),
      energy_(topo_.size(), cfg_.radio),
      routing_(sim_, topo_, cfg_.routing),
      env_(sim_, pool_),
      // The link layer comes from the registry: one fabric, one MacIface
      // per node.
      fabric_(mac::MacRegistry::instance().info(cfg_.mac_kind).factory->make(
          mac::MacContext{sim_, topo_, channel_, energy_, cfg_.slot_duration_s,
                          cfg_.seed, cfg_.mac})) {
  if (cfg_.mobility)
    mobility_ = std::make_unique<phy::RandomWaypoint>(
        sim_, topo_, *cfg_.mobility, rng_.derive("mobility"));
  nodes_.reserve(topo_.size());
  for (core::NodeId id = 0; id < topo_.size(); ++id)
    nodes_.push_back(std::make_unique<Node>(id, fabric_->mac_of(id), routing_,
                                            flows_, pool_, cfg_.node));
  // Fabric delivery: successful transmissions land at the destination
  // node's stack through the dispatch seam; the plain deliver hook
  // remains for MACs that do not take the seam.
  for (core::NodeId id = 0; id < topo_.size(); ++id) {
    mac::MacIface& m = fabric_->mac_of(id);
    m.set_deliver(
        [this](core::PacketPtr&& p, core::NodeId from, core::NodeId to) {
          nodes_.at(to)->handle_delivery(std::move(p), from);
        });
    m.set_dispatch([this](double delay_s, core::PacketPtr&& p,
                          core::NodeId from, core::NodeId to) {
      dispatch_delivery(delay_s, std::move(p), from, to);
    });
  }
}

Network::~Network() = default;

void Network::dispatch_delivery(double delay_s, core::PacketPtr&& p,
                                core::NodeId from, core::NodeId to) {
  // The tie comes from the stream of whatever owner is executing (the
  // sender's transmit event). The event executes as the receiver
  // (exec_owner = to + 1): everything the receiving stack schedules
  // draws from the receiver's stream.
  const std::uint64_t tie = sim_.draw_tie(sim_.context());
  sim_.at_keyed(sim_.now() + delay_s, tie, to + 1,
                [this, q = std::move(p), from, to]() mutable {
                  energy_.charge_rx(to, q->size_bits());
                  nodes_.at(to)->handle_delivery(std::move(q), from);
                });
}

void Network::schedule_at_node(core::NodeId id, double at,
                               std::function<void()> fn) {
  sim_.at_keyed(at, sim_.draw_tie(0), id + 1, std::move(fn));
}

core::FlowId Network::allocate_flow(HopPolicy policy) {
  const core::FlowId id = next_flow_id_++;
  flows_.register_flow(id, policy);
  return id;
}

FlowHandle Network::add_flow(Proto proto, core::NodeId src, core::NodeId dst,
                             const FlowOptions& opt) {
  if (src >= size() || dst >= size())
    throw std::invalid_argument("add_flow: endpoint out of range");
  // Path facts for the endpoints' defaults: the MAC's per-node share,
  // current hop count, and a pessimistic (with-retries) RTT estimate.
  PathInfo path;
  path.node_capacity_pps = fabric_->node_capacity_pps();
  path.hops = routing_.hops(src, dst).value_or(1);
  path.rtt_estimate_s = 2.0 * path.hops * fabric_->frame_duration_s() * 1.5;

  const core::FlowId flow = allocate_flow(hop_policy(proto));
  TransportEndpoints eps =
      make_endpoints(proto, *this, flow, src, dst, opt, path);
  auto* snd = eps.sender.get();
  auto* rcv = eps.receiver.get();
  senders_.push_back(std::move(eps.sender));
  receivers_.push_back(std::move(eps.receiver));

  node(dst).attach_data_handler(
      flow, [rcv](const core::Packet& p) { rcv->on_data(p); });
  node(src).attach_ack_handler(
      flow, [snd](const core::Packet& p) { snd->on_ack(p); });

  FlowHandle h;
  h.proto = proto;
  h.id = flow;
  h.src = src;
  h.dst = dst;
  h.sender = snd;
  h.receiver = rcv;
  return h;
}

void Network::run_until(double t) {
  if (!started_) {
    started_ = true;
    routing_.start();
    // Keep routes reasonably fresh under motion: the periodic link-state
    // refresh picks up the topology's link version; no per-move
    // recompute (that would be an oracle, and the staleness is part of
    // what Fig. 11 measures).
    if (mobility_) mobility_->start();
  }
  sim_.run_until(t);
}

std::uint64_t Network::total_queue_drops() const {
  std::uint64_t n = 0;
  for (core::NodeId i = 0; i < size(); ++i)
    n += fabric_->mac_of(i).queue_drops();
  return n;
}
std::uint64_t Network::total_attempt_drops() const {
  std::uint64_t n = 0;
  for (core::NodeId i = 0; i < size(); ++i)
    n += fabric_->mac_of(i).attempt_exhausted_drops();
  return n;
}
std::uint64_t Network::total_energy_budget_drops() const {
  std::uint64_t n = 0;
  for (core::NodeId i = 0; i < size(); ++i)
    n += fabric_->mac_of(i).energy_budget_drops();
  return n;
}
std::uint64_t Network::total_cache_retransmissions() const {
  std::uint64_t n = 0;
  for (const auto& nd : nodes_) n += nd->ijtp().cache_retransmissions();
  return n;
}
std::uint64_t Network::total_transmissions() const {
  std::uint64_t n = 0;
  for (core::NodeId i = 0; i < size(); ++i)
    n += fabric_->mac_of(i).transmissions();
  return n;
}
std::uint64_t Network::total_route_drops() const {
  std::uint64_t n = 0;
  for (const auto& nd : nodes_) n += nd->route_drops();
  return n;
}
core::Joules Network::total_energy() const {
  core::Joules j = 0.0;
  for (core::NodeId i = 0; i < size(); ++i) j += node_energy(i);
  return j;
}
std::vector<core::Joules> Network::per_node_energy() const {
  std::vector<core::Joules> v(size());
  for (core::NodeId i = 0; i < size(); ++i) v[i] = node_energy(i);
  return v;
}

}  // namespace jtp::net
