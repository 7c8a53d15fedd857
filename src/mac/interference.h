// Greedy coloring of the 2-hop interference graph.
//
// Two nodes conflict — must not transmit in the same slot — when a
// concurrent transmission by one could collide at a receiver of the
// other. With unit-disk connectivity that is the classic 2-hop rule:
//   conflict(a, b)  iff  dist(a, b) <= margin·R           (carrier range)
//                    or  ∃w ∉ {a,b}: dist(a,w) <= R and dist(b,w) <= R
//                                                         (hidden terminal)
// where R is the radio range and margin >= 1 optionally widens the direct
// check for conservative interference models. A proper coloring of this
// graph is a collision-free slot assignment: if a transmits to neighbor r
// while same-colored b transmits elsewhere, then r (a common-neighbor
// witness) cannot be in range of b, so the reception is clean.
//
// The coloring is greedy in node-id order: every node takes the smallest
// color none of its lower-id conflict partners holds. That is
// deterministic, uses at most Δ+1 colors, and — because a node's color
// depends only on its lower-id partners' colors — can be maintained
// exactly under churn. InterferenceColorer keeps the coloring between
// syncs and reads phy::NeighborIndex lists: Topology::links() at R, plus
// its own index at margin·R when margin > 1. A sync seeds the nodes they
// stamped since it last looked and replays greedy in ascending id order
// from them, following color changes upward. The result is always the
// coloring a from-scratch pass would produce, bit for bit; a move that
// changes no link re-evaluates no node.
#pragma once

#include <cstdint>
#include <vector>

#include "phy/topology.h"

namespace jtp::mac {

struct Coloring {
  std::vector<std::uint32_t> color;  // per node, in [0, colors_used)
  std::size_t colors_used = 0;
};

class InterferenceColorer {
 public:
  // Colors `topo` with the direct conflict range margin·R (margin values
  // below 1 behave as 1: direct neighbors always conflict). `topo` must
  // outlive the colorer.
  InterferenceColorer(const phy::Topology& topo, double range_margin);

  // Brings the coloring up to the topology's current generation. Returns
  // the number of nodes whose color was re-evaluated: 0 when no link (and
  // no margin·R pair) changed.
  std::size_t sync();

  const std::vector<std::uint32_t>& colors() const { return color_; }
  std::size_t colors_used() const { return count_.size(); }

 private:
  void seed(core::NodeId id);
  // Calls fn(u) for each conflict partner u of v; u may repeat.
  template <typename Fn>
  void for_each_partner(core::NodeId v, Fn&& fn) const;
  // Greedy over the queued nodes in ascending id order; returns how many
  // it evaluated.
  std::size_t replay();

  const phy::Topology& topo_;
  const phy::NeighborIndex& links_;  // topo_.links(), synced by sync()
  phy::NeighborIndex direct_;        // within margin·R (>= R)
  bool wide_;  // margin·R > R: direct_ differs from the links
  std::uint64_t links_seen_ = 0;   // links_.version() at the last sync
  std::uint64_t direct_seen_ = 0;  // direct_.version() at the last sync
  std::vector<std::uint32_t> color_;
  std::vector<std::size_t> count_;  // nodes per color; no trailing zeros

  // Scratch, kept across syncs so steady state does not allocate.
  std::vector<core::NodeId> seeds_;  // min-heap of queued ids
  std::vector<std::uint8_t> queued_;
  std::vector<std::uint64_t> color_mark_;  // color -> evaluation stamp
  std::uint64_t stamp_ = 0;
};

// One-shot coloring of `topo` (a colorer's initial full pass).
// Deterministic for a given topology.
Coloring color_interference(const phy::Topology& topo, double range_margin);

}  // namespace jtp::mac
