// Spatial-reuse TDMA: interference-aware slot reuse.
//
// Classic TDMA hands every node one slot per n-slot frame, so per-node
// capacity collapses as 1/(n·slot) no matter how large the field grows.
// Here the frame has one slot per *color* of the 2-hop interference graph
// (mac/interference.h): far-apart nodes share a slot and transmit
// concurrently, collision-free by the coloring property, so capacity is a
// function of local density (the chromatic bound), not of n.
//
// The coloring is synced lazily off the topology's generation counter: a
// static field colors once; under mobility the schedule syncs its
// InterferenceColorer only when the MAC consults it after a position
// change, and greedy re-runs only where the link graph changed (usually
// nowhere: a 1 m waypoint step rarely makes or breaks a link), with a
// result identical to a fresh pass. The slot permutation over colors
// reuses TdmaSchedule, seeded like the classic schedule so runs stay
// deterministic across recolors; it is rebuilt only when the color count
// changes. MacStats is the observable contract: recolors (generation
// syncs), colors_used, max_color, reuse_factor.
#pragma once

#include <cstdint>
#include <optional>

#include "mac/interference.h"
#include "mac/mac_base.h"
#include "mac/tdma_schedule.h"
#include "phy/topology.h"

namespace jtp::mac {

// The shared, lazily-recolored slot structure (one per fabric). Slot
// *times* are fixed by slot_duration alone; a recolor only changes the
// frame length and the slot -> color ownership map, so in-flight slot
// indices stay meaningful across recolors.
class ReuseSchedule {
 public:
  ReuseSchedule(const phy::Topology& topo, double slot_duration_s,
                std::uint64_t seed, double range_margin);

  // Syncs the coloring if the topology generation changed since the last
  // sync.
  void ensure() const;

  double slot_duration() const { return slot_s_; }
  std::uint64_t slot_at(sim::Time t) const;
  sim::Time slot_start(std::uint64_t slot) const;

  // First slot whose owning color is `node`'s color, index >= from_slot.
  // Refreshes the coloring first.
  std::uint64_t next_owned_slot_from(core::NodeId node,
                                     std::uint64_t from_slot) const;

  // Per-node capacity: one packet per frame of colors_used slots.
  double node_capacity_pps() const;
  double frame_duration() const;

  std::uint32_t color_of(core::NodeId node) const;
  MacStats stats() const;

 private:
  const phy::Topology& topo_;
  double slot_s_;
  std::uint64_t seed_;

  mutable InterferenceColorer colorer_;
  mutable std::optional<TdmaSchedule> slots_;  // permutation over colors
  mutable std::uint64_t colored_gen_;
  mutable std::uint64_t recolors_ = 1;  // the construction-time coloring
};

// One node's spatial-reuse MAC: the shared slot-timed loop bound to the
// color schedule. Its estimator capacity tracks the current frame length
// (refreshed after every lazy recolor).
class ReuseTdmaMac final : public SlottedMac {
 public:
  ReuseTdmaMac(sim::Simulator& sim, const ReuseSchedule& schedule,
               phy::Channel& channel, phy::EnergyModel& energy,
               core::NodeId self, MacConfig cfg = {});

 protected:
  std::uint64_t slot_at(sim::Time t) override { return schedule_.slot_at(t); }
  sim::Time slot_start(std::uint64_t slot) override {
    return schedule_.slot_start(slot);
  }
  double slot_duration() override { return schedule_.slot_duration(); }
  std::uint64_t next_owned_slot_from(std::uint64_t from_slot) override;

 private:
  const ReuseSchedule& schedule_;
};

}  // namespace jtp::mac
