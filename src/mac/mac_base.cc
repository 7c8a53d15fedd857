#include "mac/mac_base.h"

#include <algorithm>
#include <utility>

namespace jtp::mac {

MacBase::MacBase(sim::Simulator& sim, phy::Channel& channel,
                 phy::EnergyModel& energy, core::NodeId self,
                 const MacConfig& cfg)
    : sim_(sim),
      channel_(channel),
      energy_(energy),
      self_(self),
      cfg_(cfg),
      estimator_(cfg.estimator) {}

bool MacBase::enqueue(core::PacketPtr p, core::NodeId next_hop) {
  TxQueue& q = p->is_ack() ? ctrl_queue_ : queue_;
  if (q.size() >= cfg_.queue_capacity_packets) {
    ++queue_drops_;
    return false;  // `p` goes out of scope: the slot is recycled
  }
  q.push_back(Entry{std::move(p), next_hop, 0, 0});
  kick();
  return true;
}

MacBase::TxQueue* MacBase::current_queue() {
  if (!ctrl_queue_.empty()) return &ctrl_queue_;
  if (!queue_.empty()) return &queue_;
  return nullptr;
}

void MacBase::finish_head(TxQueue& q, bool delivered) {
  Entry& e = q.front();
  estimator_.record_packet(e.next_hop,
                           e.attempts_done > 0 ? e.attempts_done : 1);
  if (delivered) ++deliveries_;
  q.pop_front();
}

SlottedMac::SlottedMac(sim::Simulator& sim, phy::Channel& channel,
                       phy::EnergyModel& energy, core::NodeId self,
                       const MacConfig& cfg)
    : MacBase(sim, channel, energy, self, cfg) {}

void SlottedMac::schedule_next_tx() {
  if (tx_scheduled_ || (queue_.empty() && ctrl_queue_.empty())) return;
  // One transmission per owned slot: never reuse the slot we just used.
  const sim::Time now = sim_.now();
  std::uint64_t from = now <= 0 ? 0 : slot_at(now);
  if (slot_start(from) < now) ++from;
  from = std::max(from, min_slot_);
  const std::uint64_t slot = next_owned_slot_from(from);
  tx_scheduled_ = true;
  sim_.at(slot_start(slot), [this, slot] {
    tx_scheduled_ = false;
    min_slot_ = slot + 1;
    transmit_head();
  });
}

void SlottedMac::transmit_head() {
  TxQueue* qp = current_queue();
  if (qp == nullptr) return;
  TxQueue& q = *qp;
  Entry& e = q.front();
  const bool first_attempt = (e.attempts_done == 0);
  const core::LinkView link = estimator_.view(e.next_hop, sim_.now());
  const core::Joules tx_e = energy_.tx_energy(e.packet->size_bits());

  PreXmitDecision d;
  d.max_attempts = cfg_.default_max_attempts;
  if (pre_xmit_)
    d = pre_xmit_(*e.packet, e.next_hop, link, tx_e, first_attempt);
  if (d.drop) {
    // Energy budget exceeded (Algorithm 1 line 3): the slot goes unused.
    ++budget_drops_;
    finish_head(q, /*delivered=*/false);
    schedule_next_tx();
    return;
  }
  if (first_attempt) {
    e.max_attempts =
        d.max_attempts > 0 ? d.max_attempts : cfg_.default_max_attempts;
    if (attempt_trace_ && e.packet->is_data())
      attempt_trace_(sim_.now(), *e.packet, e.max_attempts);
  }

  // The attempt occupies this node's slot and costs transmit energy
  // whether or not the receiver decodes it.
  ++transmissions_;
  ++e.attempts_done;
  estimator_.record_slot_used(sim_.now());
  energy_.charge_tx(self_, e.packet->size_bits());

  const bool lost = channel_.transmission_lost(self_, e.next_hop, sim_.now());
  estimator_.record_attempt(e.next_hop, lost);

  if (!lost) {
    // The handle moves out of the queue entry and rides the delivery
    // event; no packet bytes are copied on a successful hop.
    core::PacketPtr delivered = std::move(e.packet);
    const core::NodeId from = self_;
    const core::NodeId to = e.next_hop;
    finish_head(q, /*delivered=*/true);
    // Hand to the fabric at the end of the slot (one airtime later).
    if (dispatch_) {
      // The network schedules the delivery and charges the receive
      // energy at delivery-execution time.
      dispatch_(slot_duration(), std::move(delivered), from, to);
    } else {
      energy_.charge_rx(to, delivered->size_bits());
      sim_.schedule(slot_duration(), [this, p = std::move(delivered), from,
                                      to]() mutable {
        if (deliver_) deliver_(std::move(p), from, to);
      });
    }
  } else if (e.attempts_done >= e.max_attempts) {
    // Attempt budget exhausted: local loss. Recovery, if the application
    // wants it, happens via SNACK + caches or the source (paper §4).
    ++attempt_drops_;
    finish_head(q, /*delivered=*/false);
  }
  // else: the packet stays at the head for the next owned slot.

  schedule_next_tx();
}

}  // namespace jtp::mac
