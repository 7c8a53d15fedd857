// Node placement and range-based connectivity.
//
// Builders for the paper's three scenario families: linear chains (§6.1.1),
// connected random fields (§6.1.2), and the 14-node indoor testbed
// (Table 2). Positions are mutable to support mobility.
//
// Connectivity queries are served by a uniform spatial grid whose cell
// side equals the radio range: every neighbor of a node lies in the 3x3
// cell block around it, so neighbors()/connected() cost O(cell occupancy)
// per node instead of a full scan — the difference between paper-scale
// (n ~ 25) and production-scale (n ~ 1000) control planes. set_position
// updates the grid incrementally and bumps a generation counter.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/types.h"

namespace jtp::sim {
class Rng;
}

namespace jtp::phy {

struct Position {
  double x = 0.0;
  double y = 0.0;
};

double distance(const Position& a, const Position& b);

class Topology;

// Ascending per-node lists of the nodes within `radius`, kept current
// under churn. The first sync queries every node and stamps each with
// version 1; later ones re-query only the nodes Topology::moved_since
// names (every node after a move-ring overflow), patch each changed pair
// into both ends and, if any pair changed, bump version() and stamp both
// ends of each changed pair with it. A consumer that remembers the version
// it last read finds the changed nodes as changed_at(id) > seen; a move
// that makes or breaks no pair changes neither. Topology::links() is the
// index at R that the routing view and the spatial-reuse colorer share.
class NeighborIndex {
 public:
  explicit NeighborIndex(double radius) : radius_(radius) {}

  // Brings the lists up to `topo`'s generation (always the same topology).
  void sync(const Topology& topo);

  double radius() const { return radius_; }
  const std::vector<core::NodeId>& operator[](core::NodeId id) const {
    return lists_[id];
  }
  std::uint64_t version() const { return version_; }
  // The version of the last sync that changed `id`'s list (0: never).
  std::uint64_t changed_at(core::NodeId id) const { return changed_at_[id]; }

 private:
  // Diffs lists_[id] against fresh_, patching and stamping both ends of
  // each changed pair; returns whether any pair changed.
  bool patch(core::NodeId id, std::uint64_t version);

  double radius_;
  std::uint64_t synced_gen_ = 0;
  std::uint64_t version_ = 0;
  std::vector<std::vector<core::NodeId>> lists_;  // empty until first sync
  std::vector<std::uint64_t> changed_at_;
  std::vector<core::NodeId> movers_, fresh_;  // scratch
};

class Topology {
 public:
  Topology(std::size_t n_nodes, double radio_range_m);

  std::size_t size() const { return pos_.size(); }
  double radio_range() const { return range_; }

  const Position& position(core::NodeId id) const { return pos_.at(id); }
  void set_position(core::NodeId id, Position p);

  // Monotonic change counter: bumped by every set_position. Two reads
  // returning the same value guarantee no position changed in between.
  std::uint64_t generation() const { return generation_; }

  // Fills `out` with the distinct nodes whose position changed in
  // (gen, generation()], ascending. The answer comes from a bounded ring
  // of recent moves (one entry per generation, capacity ~4n), so a
  // NeighborIndex that syncs regularly re-queries only these nodes'
  // lists. Returns false when the window is no longer covered by the
  // ring — the caller must treat that as "every node may have moved".
  bool moved_since(std::uint64_t gen, std::vector<core::NodeId>& out) const;

  // Capacity of the move ring (generations of history moved_since can
  // reconstruct). Exposed for tests pinning the overflow fallback.
  std::size_t move_history_capacity() const { return move_ring_.size(); }

  bool in_range(core::NodeId a, core::NodeId b) const;
  std::vector<core::NodeId> neighbors(core::NodeId id) const;

  // Allocation-free variant: clears `out` and fills it with the in-range
  // ids, ascending (the order the routing tie-breaks, and therefore the
  // committed baselines, depend on).
  void neighbors_into(core::NodeId id, std::vector<core::NodeId>& out) const {
    within_into(id, range_, out);
  }

  // The same query for any radius: every other node with
  // distance(position(id), position(j)) <= radius, ascending.
  void within_into(core::NodeId id, double radius,
                   std::vector<core::NodeId>& out) const;

  // The radio-range graph: the same lists neighbors_into returns, synced
  // lazily on each call (a write, so a topology stays on one thread).
  const NeighborIndex& links() const {
    links_.sync(*this);
    return links_;
  }

  // True if the range graph is a single connected component.
  bool connected() const;

  // --- builders ---
  // Chain of n nodes spaced `spacing` apart (spacing < range).
  static Topology linear(std::size_t n, double spacing_m, double range_m);

  // Uniform random placement in a square field; resamples until connected
  // (the field must be sized so connectivity holds w.h.p. — see
  // exp::random_field_side_m).
  static Topology random_connected(std::size_t n, double field_m,
                                   double range_m, sim::Rng& rng,
                                   int max_tries = 200);

 private:
  // Packed (cell-x, cell-y) pair; cell side = radio range.
  using CellKey = std::uint64_t;
  static CellKey pack_cell(std::int64_t cx, std::int64_t cy);
  CellKey cell_of(const Position& p) const;

  std::vector<Position> pos_;
  double range_;
  std::uint64_t generation_ = 0;
  // Ring of recent movers, indexed by generation % capacity: generation
  // bumps exactly once per set_position, so the ring always holds the
  // movers of the last `capacity` generations with no head pointer.
  std::vector<core::NodeId> move_ring_;
  std::unordered_map<CellKey, std::vector<core::NodeId>> cells_;
  std::vector<CellKey> cell_key_;  // per node: the cell it is filed under
  mutable NeighborIndex links_;    // within range_
};

}  // namespace jtp::phy
