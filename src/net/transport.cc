#include "net/transport.h"

#include <algorithm>
#include <stdexcept>

#include "baselines/atp.h"
#include "baselines/bbr.h"
#include "baselines/tcp_sack.h"
#include "core/ejtp_sender.h"
#include "core/jtp_dr.h"
#include "net/network.h"

namespace jtp::net {

namespace {

// The eJTP endpoint configs every JTP variant starts from.
struct JtpConfigs {
  core::SenderConfig sender;
  core::ReceiverConfig receiver;
  double rate_floor_pps = 0.0;
  double rate_cap_pps = 0.0;
};

JtpConfigs jtp_configs(const Network& net, core::FlowId flow,
                       core::NodeId src, core::NodeId dst,
                       const FlowOptions& opt, const PathInfo& path) {
  // A flow can never exceed the TDMA per-node share (every hop must
  // relay it from its own slots); a rate floor well above zero keeps
  // the control loop observable (samples arrive with data packets). The
  // floor never exceeds the cap: a classic TDMA frame over many nodes can
  // leave a share below the 0.1 pps minimum.
  const double capacity = path.node_capacity_pps;
  JtpConfigs c;
  c.rate_cap_pps = std::min(opt.app_delivery_cap_pps, capacity);
  c.rate_floor_pps = std::min(std::max(0.1, 0.07 * capacity), c.rate_cap_pps);

  core::SenderConfig& s = c.sender;
  s.flow = flow;
  s.src = src;
  s.dst = dst;
  s.loss_tolerance = opt.loss_tolerance;
  s.initial_rate_pps = opt.initial_rate_pps;
  s.initial_energy_budget = opt.initial_energy_budget;
  s.backoff_for_local_recovery = opt.backoff_for_local_recovery;
  s.min_rate_pps = c.rate_floor_pps;

  core::ReceiverConfig& r = c.receiver;
  r.flow = flow;
  r.src = src;
  r.dst = dst;
  r.loss_tolerance = opt.loss_tolerance;
  r.feedback_mode = opt.feedback_mode;
  r.constant_feedback_rate_pps = opt.constant_feedback_rate_pps;
  r.t_lower_bound_s = opt.t_lower_bound_s;
  r.rtt_estimate_s = path.rtt_estimate_s;
  r.energy_beta = opt.energy_beta;
  r.app_delivery_cap_pps = opt.app_delivery_cap_pps;
  r.monitor = opt.monitor;
  r.cache_size_packets = net.config().node.ijtp.cache_capacity_packets;
  r.rate.initial_rate_pps = opt.initial_rate_pps;
  r.rate.delta_pps = 0.15 * capacity;  // headroom target δ
  r.rate.min_rate_pps = c.rate_floor_pps;
  r.rate.max_rate_pps = c.rate_cap_pps;
  return c;
}

// JTP (and JNC, which shares the endpoints and differs only in the
// network-level caching switch).
class JtpFactory final : public TransportFactory {
 public:
  TransportEndpoints make(Network& net, core::FlowId flow, core::NodeId src,
                          core::NodeId dst, const FlowOptions& opt,
                          const PathInfo& path) const override {
    const JtpConfigs c = jtp_configs(net, flow, src, dst, opt, path);
    TransportEndpoints eps;
    eps.sender = std::make_unique<core::EjtpSender>(net.env(), net.node(src),
                                                    c.sender);
    eps.receiver = std::make_unique<core::EjtpReceiver>(
        net.env(), net.node(dst), c.receiver);
    return eps;
  }
};

class TcpFactory final : public TransportFactory {
 public:
  TransportEndpoints make(Network& net, core::FlowId flow, core::NodeId src,
                          core::NodeId dst, const FlowOptions& opt,
                          const PathInfo& path) const override {
    baselines::TcpConfig c;
    c.flow = flow;
    c.src = src;
    c.dst = dst;
    c.initial_rate_pps = opt.initial_rate_pps;
    c.initial_rtt_s = path.rtt_estimate_s;
    c.max_rate_pps = 4.0 * path.node_capacity_pps;

    TransportEndpoints eps;
    eps.sender = std::make_unique<baselines::TcpSackSender>(
        net.env(), net.node(src), c);
    eps.receiver = std::make_unique<baselines::TcpSackReceiver>(
        net.env(), net.node(dst), c);
    return eps;
  }
};

class AtpFactory final : public TransportFactory {
 public:
  TransportEndpoints make(Network& net, core::FlowId flow, core::NodeId src,
                          core::NodeId dst, const FlowOptions& opt,
                          const PathInfo& path) const override {
    baselines::AtpConfig c;
    c.flow = flow;
    c.src = src;
    c.dst = dst;
    c.initial_rate_pps = opt.initial_rate_pps;
    c.feedback_period_s =
        std::max(3.0, 1.1 * path.rtt_estimate_s);  // D > RTT
    c.max_rate_pps = 4.0 * path.node_capacity_pps;

    TransportEndpoints eps;
    eps.sender =
        std::make_unique<baselines::AtpSender>(net.env(), net.node(src), c);
    eps.receiver =
        std::make_unique<baselines::AtpReceiver>(net.env(), net.node(dst), c);
    return eps;
  }
};

// JTP with the receiver's feedback clock pinned to a constant rate — an
// ablation of the adaptive T controller (paper §5.1). Pure delegation to
// the JTP factory with two FlowOptions overridden; this was the
// test-local proof of the zero-edit registry seam (PR 4) and is now a
// permanent registrant.
class JtpFixedFeedbackFactory final : public TransportFactory {
 public:
  explicit JtpFixedFeedbackFactory(
      std::shared_ptr<const TransportFactory> base)
      : base_(std::move(base)) {}

  TransportEndpoints make(Network& net, core::FlowId flow, core::NodeId src,
                          core::NodeId dst, const FlowOptions& opt,
                          const PathInfo& path) const override {
    FlowOptions o = opt;
    o.feedback_mode = core::FeedbackMode::kConstant;
    o.constant_feedback_rate_pps = 0.5;  // fixed 2 s feedback period
    return base_->make(net, flow, src, dst, o, path);
  }

 private:
  std::shared_ptr<const TransportFactory> base_;
};

// Delivery-rate-adaptive JTP: the stock eJTP endpoint pair, but the
// sender is wrapped so the PI²/MD input Ā is a sender-side delivery-rate
// estimate instead of the destination's per-hop idle-rate aggregate.
class JtpDrFactory final : public TransportFactory {
 public:
  TransportEndpoints make(Network& net, core::FlowId flow, core::NodeId src,
                          core::NodeId dst, const FlowOptions& opt,
                          const PathInfo& path) const override {
    const JtpConfigs c = jtp_configs(net, flow, src, dst, opt, path);
    core::JtpDrConfig dr;
    dr.rate.initial_rate_pps = opt.initial_rate_pps;
    // δ for a *delivery-rate* Ā is a collapse guard, not a headroom
    // target (see JtpDrConfig): per-flow delivery under fair sharing sits
    // far below capacity without meaning congestion.
    dr.rate.delta_pps = 0.02 * path.node_capacity_pps;
    dr.rate.min_rate_pps = c.rate_floor_pps;
    dr.rate.max_rate_pps = c.rate_cap_pps;

    TransportEndpoints eps;
    eps.sender = std::make_unique<core::JtpDrSender>(net.env(), net.node(src),
                                                     c.sender, dr);
    eps.receiver = std::make_unique<core::EjtpReceiver>(
        net.env(), net.node(dst), c.receiver);
    return eps;
  }
};

// BBR-style pacing over the TCP-SACK feedback channel: same receiver,
// same headers, same ACK cadence as kTcp — only the sender's
// congestion-control model differs.
class BbrFactory final : public TransportFactory {
 public:
  TransportEndpoints make(Network& net, core::FlowId flow, core::NodeId src,
                          core::NodeId dst, const FlowOptions& opt,
                          const PathInfo& path) const override {
    baselines::BbrConfig c;
    c.flow = flow;
    c.src = src;
    c.dst = dst;
    c.initial_rate_pps = opt.initial_rate_pps;
    c.initial_rtt_s = path.rtt_estimate_s;
    c.max_rate_pps = 4.0 * path.node_capacity_pps;

    baselines::TcpConfig t;
    t.flow = flow;
    t.src = src;
    t.dst = dst;
    t.initial_rtt_s = path.rtt_estimate_s;

    TransportEndpoints eps;
    eps.sender = std::make_unique<baselines::BbrSender>(net.env(),
                                                        net.node(src), c);
    eps.receiver = std::make_unique<baselines::TcpSackReceiver>(
        net.env(), net.node(dst), t);
    return eps;
  }
};

}  // namespace

TransportRegistry::TransportRegistry() {
  const auto jtp = std::make_shared<const JtpFactory>();
  add({Proto::kJtp, HopPolicy::kIjtp, /*caching=*/true, jtp});
  add({Proto::kJnc, HopPolicy::kIjtp, /*caching=*/false, jtp});
  add({Proto::kTcp, HopPolicy::kPlain, /*caching=*/true,
       std::make_shared<const TcpFactory>()});
  add({Proto::kAtp, HopPolicy::kRateStamp, /*caching=*/true,
       std::make_shared<const AtpFactory>()});
  add({Proto::kJtpFf, HopPolicy::kIjtp, /*caching=*/true,
       std::make_shared<const JtpFixedFeedbackFactory>(jtp)});
  add({Proto::kJtpDr, HopPolicy::kIjtp, /*caching=*/true,
       std::make_shared<const JtpDrFactory>()});
  add({Proto::kBbr, HopPolicy::kPlain, /*caching=*/true,
       std::make_shared<const BbrFactory>()});
}

TransportRegistry& TransportRegistry::instance() {
  static TransportRegistry registry;
  return registry;
}

void TransportRegistry::add(TransportInfo info) {
  if (!info.factory)
    throw std::invalid_argument("TransportRegistry: null factory for '" +
                                core::proto_name(info.proto) + "'");
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& e : entries_)
    if (e.proto == info.proto)
      throw std::invalid_argument("TransportRegistry: '" +
                                  core::proto_name(info.proto) +
                                  "' is already registered");
  entries_.push_back(std::move(info));
}

const TransportInfo& TransportRegistry::info(Proto p) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& e : entries_)
    if (e.proto == p) return e;
  throw std::invalid_argument("TransportRegistry: protocol '" +
                              core::proto_name(p) + "' is not registered");
}

bool TransportRegistry::registered(Proto p) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& e : entries_)
    if (e.proto == p) return true;
  return false;
}

std::vector<Proto> TransportRegistry::protos() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Proto> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) out.push_back(e.proto);
  return out;
}

}  // namespace jtp::net
