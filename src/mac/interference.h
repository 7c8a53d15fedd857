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
// exactly under churn. InterferenceColorer keeps the per-node neighbor
// lists and the coloring between topology generations; a sync re-queries
// only the nodes Topology::moved_since names, patches the changed list
// entries into both endpoints, and replays greedy in ascending id order
// from the nodes whose partner set changed, following color changes
// upward. The result is always the coloring a from-scratch pass would
// produce, bit for bit; a move that changes no link re-evaluates no node.
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
  // no margin·R pair) changed, every node after a full rebuild (the move
  // ring no longer covers the window since the last sync).
  std::size_t sync();

  const std::vector<std::uint32_t>& colors() const { return color_; }
  std::size_t colors_used() const { return count_.size(); }

 private:
  using List = std::vector<core::NodeId>;

  // Re-queries a mover's list(s) against the current positions and records
  // or seeds the nodes whose conflict partners may have changed.
  void refresh(core::NodeId id);
  // Diffs `lists[id]` against the ascending `fresh_`, patching both ends of
  // each changed pair; calls on_change(partner) for each.
  template <typename OnChange>
  void patch(std::vector<List>& lists, core::NodeId id, OnChange&& on_change);
  // Re-queries every list and queues every node.
  void rebuild_all();
  void seed(core::NodeId id);
  // Calls fn(u) for each conflict partner u of v; u may repeat.
  template <typename Fn>
  void for_each_partner(core::NodeId v, Fn&& fn) const;
  // Greedy over the queued nodes in ascending id order; returns how many
  // it evaluated.
  std::size_t replay();

  const phy::Topology& topo_;
  double range_;
  double direct_;  // margin·R, >= R
  bool wide_;      // direct_ > R: the direct lists differ from the links

  std::uint64_t synced_gen_ = 0;
  std::vector<List> links_;         // per node, ascending: within R
  std::vector<List> direct_lists_;  // per node, ascending: within margin·R
  std::vector<std::uint32_t> color_;
  std::vector<std::size_t> count_;  // nodes per color; no trailing zeros

  // Scratch, kept across syncs so steady state does not allocate.
  List movers_, fresh_, touched_;
  List seeds_;  // min-heap of queued ids
  std::vector<std::uint8_t> queued_;
  std::vector<std::uint64_t> color_mark_;  // color -> evaluation stamp
  std::uint64_t stamp_ = 0;
};

// One-shot coloring of `topo` (a colorer's initial full pass).
// Deterministic for a given topology.
Coloring color_interference(const phy::Topology& topo, double range_margin);

}  // namespace jtp::mac
