#include "net/transport.h"

#include <algorithm>

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
  c.rate_floor_pps = std::min(std::max(0.1, 0.07 * capacity), capacity);

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
  r.rtt_estimate_s = path.rtt_estimate_s;
  r.energy_beta = opt.energy_beta;
  r.monitor = opt.monitor;
  r.cache_size_packets = net.config().node.ijtp.cache_capacity_packets;
  r.rate.initial_rate_pps = opt.initial_rate_pps;
  r.rate.delta_pps = 0.15 * capacity;  // headroom target δ
  r.rate.min_rate_pps = c.rate_floor_pps;
  r.rate.max_rate_pps = capacity;
  return c;
}

}  // namespace

HopPolicy hop_policy(Proto p) {
  switch (p) {
    case Proto::kJtp:
    case Proto::kJnc:
    case Proto::kJtpFf:
    case Proto::kJtpDr:
      return HopPolicy::kIjtp;
    case Proto::kAtp:
      return HopPolicy::kRateStamp;
    case Proto::kTcp:
    case Proto::kBbr:
      return HopPolicy::kPlain;
  }
  return HopPolicy::kPlain;
}

// Only JNC (JTP's endpoints with caching off, Fig. 4) opts out.
bool caching_enabled(Proto p) { return p != Proto::kJnc; }

TransportEndpoints make_endpoints(Proto proto, Network& net,
                                  core::FlowId flow, core::NodeId src,
                                  core::NodeId dst, const FlowOptions& opt,
                                  const PathInfo& path) {
  core::Env& env = net.env();
  TransportEndpoints eps;
  switch (proto) {
    case Proto::kJtp:
    case Proto::kJnc: {  // JNC differs only in the network's caching switch
      const JtpConfigs c = jtp_configs(net, flow, src, dst, opt, path);
      eps.sender =
          std::make_unique<core::EjtpSender>(env, net.node(src), c.sender);
      eps.receiver =
          std::make_unique<core::EjtpReceiver>(env, net.node(dst), c.receiver);
      return eps;
    }
    case Proto::kJtpFf: {
      // JTP with the receiver's feedback clock pinned to a constant rate:
      // an ablation of the adaptive T controller (paper §5.1).
      FlowOptions ff = opt;
      ff.feedback_mode = core::FeedbackMode::kConstant;
      ff.constant_feedback_rate_pps = 0.5;  // fixed 2 s feedback period
      return make_endpoints(Proto::kJtp, net, flow, src, dst, ff, path);
    }
    case Proto::kJtpDr: {
      // The stock eJTP endpoint pair, but the sender is wrapped so the
      // PI²/MD input Ā is a sender-side delivery-rate estimate instead of
      // the destination's per-hop idle-rate aggregate.
      const JtpConfigs c = jtp_configs(net, flow, src, dst, opt, path);
      core::JtpDrConfig dr;
      dr.rate.initial_rate_pps = opt.initial_rate_pps;
      // δ for a *delivery-rate* Ā is a collapse guard, not a headroom
      // target (see JtpDrConfig): per-flow delivery under fair sharing
      // sits far below capacity without meaning congestion.
      dr.rate.delta_pps = 0.02 * path.node_capacity_pps;
      dr.rate.min_rate_pps = c.rate_floor_pps;
      dr.rate.max_rate_pps = path.node_capacity_pps;
      eps.sender = std::make_unique<core::JtpDrSender>(env, net.node(src),
                                                       c.sender, dr);
      eps.receiver =
          std::make_unique<core::EjtpReceiver>(env, net.node(dst), c.receiver);
      return eps;
    }
    case Proto::kTcp: {
      baselines::TcpConfig c;
      c.flow = flow;
      c.src = src;
      c.dst = dst;
      c.initial_rate_pps = opt.initial_rate_pps;
      c.initial_rtt_s = path.rtt_estimate_s;
      c.max_rate_pps = 4.0 * path.node_capacity_pps;
      eps.sender =
          std::make_unique<baselines::TcpSackSender>(env, net.node(src), c);
      eps.receiver =
          std::make_unique<baselines::TcpSackReceiver>(env, net.node(dst), c);
      return eps;
    }
    case Proto::kAtp: {
      baselines::AtpConfig c;
      c.flow = flow;
      c.src = src;
      c.dst = dst;
      c.initial_rate_pps = opt.initial_rate_pps;
      c.feedback_period_s =
          std::max(3.0, 1.1 * path.rtt_estimate_s);  // D > RTT
      c.max_rate_pps = 4.0 * path.node_capacity_pps;
      eps.sender = std::make_unique<baselines::AtpSender>(env, net.node(src), c);
      eps.receiver =
          std::make_unique<baselines::AtpReceiver>(env, net.node(dst), c);
      return eps;
    }
    case Proto::kBbr: {
      // BBR-style pacing over the TCP-SACK feedback channel: same
      // receiver, headers and ACK cadence as kTcp; only the sender's
      // congestion-control model differs.
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
      eps.sender = std::make_unique<baselines::BbrSender>(env, net.node(src), c);
      eps.receiver =
          std::make_unique<baselines::TcpSackReceiver>(env, net.node(dst), t);
      return eps;
    }
  }
  return eps;
}

}  // namespace jtp::net
