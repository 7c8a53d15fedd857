// Link-state routing with possibly-stale topology views (paper §2, [29]).
//
// JAVeLEN runs an energy-conserving link-state protocol that gives every
// node a local, *possibly inaccurate*, view of the topology. JTP consumes
// exactly three things from it: the next hop toward a destination, an
// estimate of the remaining path length H_i (used by the reliability math,
// eq. 4), and route symmetry (ACKs retrace the data path, which is what
// lets caches observe them).
//
// We model the protocol's outcome rather than its packet exchange: the
// service snapshots the real connectivity graph every `refresh_interval_s`
// and answers all queries from the latest snapshot. Between refreshes the
// view goes stale exactly the way a periodic link-state flood would. The
// flood's own traffic is excluded from energy accounting, consistent with
// the paper's metric ("we will not consider the energy consumed for
// network maintenance by the lower layers").
//
// Scale model: a refresh captures the view (below), not an all-pairs
// recompute. Rows are keyed by *destination* and hold hop counts only:
// row(d)[v] is the number of hops from v to d, filled by one BFS rooted at
// d the first time d is queried against the current view, and kept until
// a link is made or broken (the link version of Topology::links()). Every
// query JTP makes has a fixed destination (next hop toward a packet's
// dst, remaining hops H_i to it), so one row serves every forwarder on
// every path into d. A static 1000-node field therefore pays one BFS per
// flow endpoint, once — refreshes on an unchanged link graph are no-ops.
// RoutingStats is the observable contract for that claim, mirroring
// sim::PoolStats for the data-plane pools.
//
// Tie-break. next_hop(at, d) is the lowest-id neighbor v of `at` with
// row(d)[v] == row(d)[at] - 1, the first hop a BFS rooted at `at` (FIFO,
// ascending lists, first-discovery parents) would give. Proof: (1) such a
// BFS dequeues each level in lexicographic order of tree paths, so its
// path to d is the lexicographically least shortest path; (2) the first
// hop of that path is the least neighbor one hop closer to d; (3) links
// are symmetric (distance <= R), so "closer" is read from d's own BFS.
// Routes, and so every committed baseline, are those of source-rooted
// rows; tests/routing_test.cc checks every pair against a source-rooted
// BFS on a lattice, random fields and a split field.
//
// Rows live in one slab. slot_of_[d] maps a destination to its slot on
// its first query, and the slot is kept for the router's lifetime, so
// memory grows with the number of distinct flow endpoints (n ints each),
// not with n².
//
// The view itself is a CSR (compressed sparse row) adjacency: one
// ascending neighbor list per node, flattened from Topology::links() at
// construction and at every refresh that sees a new link version. BFS
// then scans flat arrays, and next_hop scans `at`'s list in ascending
// order. A capture also bumps an epoch, which invalidates every cached
// row at once; each row rebuilds on its next query. Patching rows in
// place instead was measured not to pay end to end (docs/ARCHITECTURE.md,
// "Lazy-only routing").
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/types.h"
#include "phy/topology.h"
#include "sim/simulator.h"

namespace jtp::routing {

struct RoutingConfig {
  double refresh_interval_s = 5.0;  // staleness bound of the view
};

// Control-plane work accounting. In steady state on a static topology,
// `snapshots` and `rows_built` stop moving while `row_reuses` keeps
// counting — a growing `rows_built` under an unchanged topology means
// some path recomputes needlessly.
struct RoutingStats {
  std::uint64_t refreshes = 0;   // view syncs (periodic + forced + ctor)
  std::uint64_t snapshots = 0;   // syncs that saw a new link version
  std::uint64_t rows_built = 0;  // per-destination BFS row computations
  std::uint64_t row_reuses = 0;  // queries served from an existing row
};

class LinkStateRouting {
 public:
  LinkStateRouting(sim::Simulator& sim, const phy::Topology& topo,
                   RoutingConfig cfg = {});

  // Starts periodic snapshot refreshes.
  void start();

  // Syncs the view to the live topology (periodic timer, tests). Cheap
  // when no link was made or broken since the last capture.
  void refresh();

  // Next hop from `at` toward `dst` per `at`'s current view.
  // nullopt if the view has no path.
  std::optional<core::NodeId> next_hop(core::NodeId at,
                                       core::NodeId dst) const;

  // Estimated remaining hops from `at` to `dst` (>= 1 when reachable).
  std::optional<int> hops(core::NodeId at, core::NodeId dst) const;

  // Full path per the current view (for tests and traces).
  std::optional<std::vector<core::NodeId>> path(core::NodeId src,
                                                core::NodeId dst) const;

  const RoutingStats& stats() const { return stats_; }
  std::uint64_t refreshes() const { return stats_.refreshes; }
  const RoutingConfig& config() const { return cfg_; }

 private:
  // Flattens the live topology's links into the CSR view.
  void capture_view();

  // The hop-count row of destination `d` for the current view epoch,
  // built by one BFS from `d` if it is not valid yet. The pointer is valid
  // until the next row() call (the slab may grow).
  const int* row(core::NodeId d) const;

  sim::Simulator& sim_;
  const phy::Topology& topo_;
  RoutingConfig cfg_;

  // The view: the adjacency as of the last refresh that observed a
  // change. Node u's neighbors are adj_[adj_off_[u] .. adj_off_[u+1]),
  // ascending. Queries never touch the live topology, so lazy row builds
  // see exactly what an eager refresh-time recompute would have seen.
  std::vector<std::size_t> adj_off_;
  std::vector<core::NodeId> adj_;
  std::uint64_t view_version_ = 0;  // links().version() at the capture

  // Row slab: slot k holds dist_[k*n .. (k+1)*n), the hops from every
  // node to the destination d with slot_of_[d] == k (kNoSlot until d is
  // first queried). Slot k is valid iff slot_epoch_[k] == epoch_.
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  mutable std::vector<int> dist_;
  mutable std::vector<std::uint32_t> slot_of_;
  mutable std::vector<std::uint64_t> slot_epoch_;
  std::uint64_t epoch_ = 1;

  // BFS scratch (reused across rows; no steady-state allocation).
  mutable std::vector<core::NodeId> bfs_queue_;

  mutable RoutingStats stats_;
  bool started_ = false;
};

}  // namespace jtp::routing
