// Environment interfaces for JTP's "shared code" (paper §1, §6).
//
// The paper runs identical protocol code under OPNET and on Linux/JAVeLEN
// radios via thin adaptation layers. We keep that property: everything in
// core/ talks to the outside world only through these interfaces; the
// simulator adapter lives in net/, and a different host (e.g. a real
// socket/timerfd backend) could be swapped in without touching core/.
#pragma once

#include <cstdint>
#include <utility>

#include "core/packet.h"
#include "core/packet_pool.h"
#include "sim/small_fn.h"

namespace jtp::core {

using TimerId = std::uint64_t;

// Clock + timer + packet-slot service. The pool is part of the
// environment because packets belong to the simulation instance the
// endpoint is plugged into (one pool per Env, one Env per Simulator,
// one Simulator per thread).
class Env {
 public:
  virtual ~Env() = default;
  virtual double now() const = 0;
  // Timer callables used to cross this seam as std::function, whose
  // 16-byte small-object buffer forced a heap allocation for any timer
  // capturing more than `this` — before the event pool ever saw the
  // callable, invisibly to the pool stats. schedule() is now a template
  // forwarder: the callable is type-erased once, directly into the
  // host's 48-byte inline sim::SmallFn storage, so every in-tree
  // transport timer is allocation-free end to end. The virtual seam
  // underneath is schedule_fn().
  template <typename F>
  TimerId schedule(double delay_s, F&& fn) {
    return schedule_fn(delay_s, sim::SmallFn(std::forward<F>(fn)));
  }
  virtual void cancel(TimerId id) = 0;
  virtual PacketPool& packet_pool() = 0;

  // Virtual seam under schedule(): host-specific timer arming for an
  // already-type-erased callable.
  virtual TimerId schedule_fn(double delay_s, sim::SmallFn fn) = 0;
};

// Where an end-point hands packets for transmission (the node's network
// layer / MAC queue). Packets move by pooled handle; a sink that drops
// the handle drops the packet (the slot is recycled automatically).
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void send(PacketPtr p) = 0;
};

// What iJTP needs to know about the outgoing link, supplied by the MAC's
// link estimator (paper §2.2.2).
struct LinkView {
  double loss_rate = 0.0;           // estimated per-transmission loss prob
  double available_rate_pps = 0.0;  // idle capacity toward the next hop
  double avg_attempts = 1.0;        // mean MAC-level transmissions/packet
};

}  // namespace jtp::core
