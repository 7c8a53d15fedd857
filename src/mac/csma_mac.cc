#include "mac/csma_mac.h"

#include <algorithm>
#include <cmath>

namespace jtp::mac {

void CsmaMedium::mark_collisions(Tx& tx) {
  // All comparisons run over captured geometry: where the endpoints were
  // when each frame began, not where they are now.
  for (Tx& t : active_) {
    if (t.sender == tx.sender) continue;
    if (tx.start >= t.end || t.start >= tx.end) continue;  // no overlap
    if (audible(t.spos, tx.rpos)) tx.collided = true;
    if (audible(tx.spos, t.rpos)) t.collided = true;
  }
}

CsmaMedium::TxId CsmaMedium::begin_tx(core::NodeId sender,
                                      core::NodeId receiver, sim::Time start,
                                      sim::Time end) {
  Tx tx{next_id_++, sender, receiver, topo_.position(sender),
        topo_.position(receiver), start, end, /*collided=*/false};
  mark_collisions(tx);
  active_.push_back(tx);
  return tx.id;
}

bool CsmaMedium::busy(core::NodeId listener, sim::Time now) const {
  // One unit of carrier-detection latency: a frame beginning at the same
  // grid point as this CCA is invisible. The half-unit threshold splits
  // the grid cleanly (real gaps are whole units), so accumulated
  // floating-point noise in event times cannot flip a verdict.
  const phy::Position lpos = topo_.position(listener);
  for (const Tx& t : active_) {
    if (t.sender == listener) continue;  // own frame: no self carrier-sense
    if (t.start <= now - 0.5 * unit_ && now < t.end && audible(t.spos, lpos))
      return true;
  }
  return false;
}

bool CsmaMedium::finish_tx(TxId id) {
  for (Tx& t : active_) {
    if (t.id != id) continue;
    const bool collided = t.collided;
    // Swap-remove: busy()/begin_tx() reduce over the whole list, so
    // record order never affects a verdict.
    t = active_.back();
    active_.pop_back();
    return collided;
  }
  return false;
}

CsmaMac::CsmaMac(sim::Simulator& sim, CsmaMedium& medium, phy::Channel& channel,
                 phy::EnergyModel& energy, core::NodeId self,
                 double unit_backoff_s, MacConfig cfg, sim::Rng rng)
    : MacBase(sim, channel, energy, self, cfg),
      medium_(medium),
      unit_(unit_backoff_s),
      rng_(rng),
      be_(cfg.csma.min_be) {
  // Nominal capacity for the estimator: one packet per full minimum
  // contention window of unit periods.
  estimator_.set_capacity_pps(
      1.0 / (unit_ * static_cast<double>(1ULL << cfg.csma.min_be)));
}

void CsmaMac::kick() {
  if (busy_) return;  // the running cycle picks up new traffic at its end
  if (current_queue() == nullptr) return;
  busy_ = true;
  nb_ = 0;
  be_ = cfg_.csma.min_be;
  start_backoff();
}

void CsmaMac::start_backoff() {
  // Contention is grid-aligned: the attempt lands `periods` whole units
  // after the next grid point. Absolute grid times are computed as
  // index · unit (not accumulated sums), so no rounding drift builds up
  // across cycles.
  const std::uint64_t periods = rng_.integer(1ULL << be_);
  const std::uint64_t next_grid =
      static_cast<std::uint64_t>(std::floor(sim_.now() / unit_)) + 1;
  sim_.at(static_cast<double>(next_grid + periods) * unit_,
          [this] { attempt_transmit(); });
}

void CsmaMac::attempt_transmit() {
  TxQueue* qp = current_queue();
  if (qp == nullptr) {  // head consumed by a drop path mid-cycle
    busy_ = false;
    return;
  }
  TxQueue& q = *qp;

  if (medium_.busy(self_, sim_.now())) {
    ++cca_failures_;
    ++nb_;
    be_ = std::min(be_ + 1, cfg_.csma.max_be);
    if (nb_ > cfg_.csma.max_backoffs) {
      // Channel-access failure: the contention budget is spent, the
      // packet is lost locally just like an exhausted retry budget. Only
      // attempts that actually hit the air feed the estimator — a packet
      // dropped before its first transmission records nothing.
      ++attempt_drops_;
      Entry& e = q.front();
      if (e.attempts_done > 0)
        estimator_.record_packet(e.next_hop, e.attempts_done);
      q.pop_front();
      next_cycle();
      return;
    }
    start_backoff();
    return;
  }

  Entry& e = q.front();
  const bool first_attempt = (e.attempts_done == 0);
  const core::LinkView link = estimator_.view(e.next_hop, sim_.now());
  const core::Joules tx_e = energy_.tx_energy(e.packet->size_bits());

  PreXmitDecision d;
  d.max_attempts = cfg_.default_max_attempts;
  if (pre_xmit_)
    d = pre_xmit_(*e.packet, e.next_hop, link, tx_e, first_attempt);
  if (d.drop) {
    ++budget_drops_;
    finish_head(q, /*delivered=*/false);
    next_cycle();
    return;
  }
  if (first_attempt) {
    e.max_attempts =
        d.max_attempts > 0 ? d.max_attempts : cfg_.default_max_attempts;
    if (attempt_trace_ && e.packet->is_data())
      attempt_trace_(sim_.now(), *e.packet, e.max_attempts);
  }

  ++transmissions_;
  ++e.attempts_done;
  estimator_.record_slot_used(sim_.now());
  energy_.charge_tx(self_, e.packet->size_bits());

  const double air = energy_.config().fixed_overhead_s +
                     energy_.airtime_s(e.packet->size_bits());
  const sim::Time start = sim_.now();
  const sim::Time end = start + air;
  const CsmaMedium::TxId txid = medium_.begin_tx(self_, e.next_hop, start, end);
  // Fading loss is drawn now; the collision verdict accumulates on the
  // medium record (a hidden terminal may start mid-air) and is read half
  // a unit after the transmission ends.
  // The head ring is captured here: an ACK enqueued while this data
  // frame is in the air must not redirect the completion to the control
  // ring.
  const bool lost_ch = channel_.transmission_lost(self_, e.next_hop, start);
  sim_.schedule(air + 0.5 * unit_, [this, qp, txid, lost_ch] {
    finish_tx(qp, txid, lost_ch);
  });
}

void CsmaMac::finish_tx(TxQueue* q, CsmaMedium::TxId txid, bool lost_ch) {
  const bool collided = medium_.finish_tx(txid);
  Entry& e = q->front();
  const bool lost = lost_ch || collided;
  estimator_.record_attempt(e.next_hop, lost);

  if (!lost) {
    core::PacketPtr delivered = std::move(e.packet);
    const core::NodeId from = self_;
    const core::NodeId to = e.next_hop;
    finish_head(*q, /*delivered=*/true);
    if (dispatch_) {
      // The network lands the delivery half a unit from now (one whole
      // unit after the airtime ended) and charges the receive energy at
      // execution time.
      dispatch_(0.5 * unit_, std::move(delivered), from, to);
    } else {
      // No dispatch seam (raw-fabric tests): deliver inline.
      energy_.charge_rx(to, delivered->size_bits());
      if (deliver_) deliver_(std::move(delivered), from, to);
    }
  } else if (e.attempts_done >= e.max_attempts) {
    ++attempt_drops_;
    finish_head(*q, /*delivered=*/false);
  }
  // else: the packet stays at the head and re-contends.

  next_cycle();
}

void CsmaMac::next_cycle() {
  nb_ = 0;
  be_ = cfg_.csma.min_be;
  if (current_queue() != nullptr) {
    start_backoff();
  } else {
    busy_ = false;
  }
}

}  // namespace jtp::mac
