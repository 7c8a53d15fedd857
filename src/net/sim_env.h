// Adapter: sim::Simulator as the core::Env the shared protocol code needs.
// This is the OPNET/Linux "adaptation layer" analogue from the paper (§6).
//
// The packet pool is owned by whoever aggregates the Simulator and the
// SimEnv, and must be declared *before* the Simulator there: pending
// delivery events hold packet handles, and destroying the Simulator
// releases them back into the pool.
#pragma once

#include "core/env.h"
#include "sim/simulator.h"

namespace jtp::net {

class SimEnv final : public core::Env {
 public:
  SimEnv(sim::Simulator& sim, core::PacketPool& pool)
      : sim_(sim), pool_(pool) {}

  double now() const override { return sim_.now(); }
  core::TimerId schedule_fn(double delay_s, sim::SmallFn fn) override {
    return sim_.schedule(delay_s, std::move(fn));
  }
  void cancel(core::TimerId id) override { sim_.cancel(id); }
  core::PacketPool& packet_pool() override { return pool_; }

 private:
  sim::Simulator& sim_;
  core::PacketPool& pool_;
};

}  // namespace jtp::net
