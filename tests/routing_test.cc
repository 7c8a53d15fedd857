#include "routing/link_state.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "phy/topology.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace jtp::routing {
namespace {

TEST(LinkStateRouting, LinearChainNextHops) {
  sim::Simulator sim;
  auto topo = phy::Topology::linear(5, 30.0, 40.0);
  LinkStateRouting r(sim, topo);
  EXPECT_EQ(r.next_hop(0, 4), 1u);
  EXPECT_EQ(r.next_hop(1, 4), 2u);
  EXPECT_EQ(r.next_hop(4, 0), 3u);
  EXPECT_EQ(r.hops(0, 4), 4);
  EXPECT_EQ(r.hops(2, 4), 2);
  EXPECT_EQ(r.hops(3, 3), 0);
}

TEST(LinkStateRouting, PathIsHopByHopConsistent) {
  sim::Simulator sim;
  auto topo = phy::Topology::linear(6, 30.0, 40.0);
  LinkStateRouting r(sim, topo);
  const auto p = r.path(0, 5);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(*p, (std::vector<core::NodeId>{0, 1, 2, 3, 4, 5}));
}

TEST(LinkStateRouting, SymmetricRoutesOnChain) {
  sim::Simulator sim;
  auto topo = phy::Topology::linear(7, 30.0, 40.0);
  LinkStateRouting r(sim, topo);
  auto fwd = r.path(0, 6);
  auto rev = r.path(6, 0);
  ASSERT_TRUE(fwd && rev);
  std::reverse(rev->begin(), rev->end());
  EXPECT_EQ(*fwd, *rev);
}

TEST(LinkStateRouting, UnreachableReturnsNullopt) {
  sim::Simulator sim;
  phy::Topology topo(3, 40.0);
  topo.set_position(0, {0, 0});
  topo.set_position(1, {30, 0});
  topo.set_position(2, {500, 0});  // isolated
  LinkStateRouting r(sim, topo);
  EXPECT_FALSE(r.next_hop(0, 2).has_value());
  EXPECT_FALSE(r.hops(0, 2).has_value());
  EXPECT_FALSE(r.path(0, 2).has_value());
}

TEST(LinkStateRouting, StaleViewUntilRefresh) {
  sim::Simulator sim;
  auto topo = phy::Topology::linear(3, 30.0, 40.0);
  RoutingConfig cfg;
  cfg.refresh_interval_s = 10.0;
  LinkStateRouting r(sim, topo, cfg);
  r.start();
  EXPECT_EQ(r.hops(0, 2), 2);
  // Break the chain; the view must not notice until the next refresh.
  topo.set_position(1, {1000, 0});
  EXPECT_EQ(r.hops(0, 2), 2);  // stale
  sim.run_until(10.5);         // refresh fired
  EXPECT_FALSE(r.hops(0, 2).has_value());
}

TEST(LinkStateRouting, PeriodicRefreshKeepsRunning) {
  sim::Simulator sim;
  auto topo = phy::Topology::linear(3, 30.0, 40.0);
  RoutingConfig cfg;
  cfg.refresh_interval_s = 1.0;
  LinkStateRouting r(sim, topo, cfg);
  r.start();
  sim.run_until(10.5);
  EXPECT_GE(r.refreshes(), 10u);
}

TEST(LinkStateRouting, GridShortestPaths) {
  sim::Simulator sim;
  // 3x3 grid, spacing 30, range 40 (no diagonals: 42.4 > 40).
  phy::Topology topo(9, 40.0);
  for (core::NodeId i = 0; i < 9; ++i)
    topo.set_position(i, {30.0 * (i % 3), 30.0 * (i / 3)});
  LinkStateRouting r(sim, topo);
  EXPECT_EQ(r.hops(0, 8), 4);  // manhattan distance in hops
  EXPECT_EQ(r.hops(0, 2), 2);
  const auto next = r.next_hop(0, 8);
  ASSERT_TRUE(next.has_value());
  EXPECT_TRUE(*next == 1 || *next == 3);
}

TEST(LinkStateRouting, NextHopToSelfIsNull) {
  sim::Simulator sim;
  auto topo = phy::Topology::linear(3, 30.0, 40.0);
  LinkStateRouting r(sim, topo);
  EXPECT_FALSE(r.next_hop(1, 1).has_value());
}

TEST(LinkStateRouting, RejectsBadRefresh) {
  sim::Simulator sim;
  auto topo = phy::Topology::linear(3, 30.0, 40.0);
  RoutingConfig cfg;
  cfg.refresh_interval_s = 0.0;
  EXPECT_THROW(LinkStateRouting(sim, topo, cfg), std::invalid_argument);
}

// --- lazy-row equivalence ---------------------------------------------------

phy::Topology random_field(std::size_t n, double side, sim::Rng& rng) {
  phy::Topology t(n, 40.0);
  for (core::NodeId i = 0; i < n; ++i)
    t.set_position(i, {rng.uniform(0.0, side), rng.uniform(0.0, side)});
  return t;
}

// The oracle: a freshly constructed router answers every query from an
// up-to-date view, with rows built in plain query order. The lazy router
// must agree on next_hop/hops/path for every pair, no matter which rows
// its past interleavings already materialized.
void expect_matches_fresh(const LinkStateRouting& r,
                          const phy::Topology& topo, const char* context) {
  sim::Simulator fresh_sim;
  LinkStateRouting fresh(fresh_sim, topo);
  const auto n = topo.size();
  for (core::NodeId s = 0; s < n; ++s) {
    for (core::NodeId d = 0; d < n; ++d) {
      EXPECT_EQ(r.next_hop(s, d), fresh.next_hop(s, d))
          << context << ": next_hop(" << s << "," << d << ")";
      EXPECT_EQ(r.hops(s, d), fresh.hops(s, d))
          << context << ": hops(" << s << "," << d << ")";
      EXPECT_EQ(r.path(s, d), fresh.path(s, d))
          << context << ": path(" << s << "," << d << ")";
    }
  }
}

TEST(LinkStateRouting, LazyRowsMatchFullRecomputeAcrossChurn) {
  sim::Rng rng(11);
  sim::Simulator sim;
  auto topo = random_field(30, 180.0, rng);
  LinkStateRouting r(sim, topo);
  expect_matches_fresh(r, topo, "initial");
  for (int round = 0; round < 20; ++round) {
    // Churn: move a few nodes, interleaved with queries that partially
    // materialize rows against the *stale* view (they must not leak into
    // the post-refresh answers).
    for (int m = 0; m < 3; ++m) {
      const auto id = static_cast<core::NodeId>(rng.integer(topo.size()));
      topo.set_position(id, {rng.uniform(0.0, 180.0),
                             rng.uniform(0.0, 180.0)});
      (void)r.next_hop(static_cast<core::NodeId>(rng.integer(topo.size())),
                       static_cast<core::NodeId>(rng.integer(topo.size())));
      (void)r.path(static_cast<core::NodeId>(rng.integer(topo.size())),
                   static_cast<core::NodeId>(rng.integer(topo.size())));
    }
    r.refresh();
    expect_matches_fresh(r, topo, "after refresh");
  }
}

// Random interleavings of small moves (wiggles that rarely change
// adjacency), range-crossing moves, teleports, mass churn, queries against
// stale views, and refreshes: after every refresh the rows rebuilt on
// demand must agree with a freshly built router on every pair. (The name
// predates lazy-only routing, when these inputs drove in-place repair.)
TEST(LinkStateRouting, IncrementalRepairMatchesFreshAcrossInterleavings) {
  sim::Rng rng(23);
  sim::Simulator sim;
  const double side = 200.0;
  auto topo = random_field(40, side, rng);
  LinkStateRouting r(sim, topo);
  auto pick = [&] { return static_cast<core::NodeId>(rng.integer(40)); };
  for (int round = 0; round < 60; ++round) {
    const int kind = static_cast<int>(rng.integer(4));
    const int moves = kind == 3 ? 25 : 3;  // kind 3 = mass churn round
    for (int m = 0; m < moves; ++m) {
      const auto id = pick();
      const auto p = topo.position(id);
      switch (kind) {
        case 0:  // wiggle: usually no adjacency change
          topo.set_position(id, {p.x + rng.uniform(-2.0, 2.0),
                                 p.y + rng.uniform(-2.0, 2.0)});
          break;
        case 1:  // one-cell hop: adjacency changes at the boundary
          topo.set_position(
              id, {p.x + (rng.bernoulli(0.5) ? 40.0 : -40.0), p.y});
          break;
        default:  // teleport
          topo.set_position(
              id, {rng.uniform(0.0, side), rng.uniform(0.0, side)});
          break;
      }
      (void)r.next_hop(pick(), pick());
      (void)r.hops(pick(), pick());
    }
    r.refresh();
    expect_matches_fresh(r, topo, "after move-kind refresh");
  }
}

// Small wiggles with interleaved queries: full invalidation on every
// generation change is the only sync path, and it must stay correct.
TEST(LinkStateRouting, FullRebuildModeStaysCorrect) {
  sim::Rng rng(29);
  sim::Simulator sim;
  auto topo = random_field(25, 160.0, rng);
  LinkStateRouting r(sim, topo);
  for (int round = 0; round < 10; ++round) {
    for (int m = 0; m < 3; ++m) {
      const auto id = static_cast<core::NodeId>(rng.integer(25));
      const auto p = topo.position(id);
      topo.set_position(id, {p.x + rng.uniform(-5.0, 5.0),
                             p.y + rng.uniform(-5.0, 5.0)});
      (void)r.next_hop(static_cast<core::NodeId>(rng.integer(25)),
                       static_cast<core::NodeId>(rng.integer(25)));
    }
    r.refresh();
    expect_matches_fresh(r, topo, "full-rebuild mode");
  }
  // Every refresh saw a new generation (construction + 10 rounds).
  EXPECT_EQ(r.stats().snapshots, 11u);
}

// A plain BFS over a topology's neighbors(), independent of the router:
// dist (-1 = unreachable) and the first hop toward each node, with ties
// broken by ascending neighbor id.
struct PlainBfs {
  std::vector<int> dist;
  std::vector<core::NodeId> first;
};

PlainBfs plain_bfs(const phy::Topology& t, core::NodeId s) {
  PlainBfs b{std::vector<int>(t.size(), -1),
             std::vector<core::NodeId>(t.size(), core::kInvalidNode)};
  std::vector<core::NodeId> queue{s};
  b.dist[s] = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const core::NodeId u = queue[head];
    for (const core::NodeId v : t.neighbors(u)) {
      if (b.dist[v] >= 0) continue;
      b.dist[v] = b.dist[u] + 1;
      b.first[v] = u == s ? v : b.first[u];
      queue.push_back(v);
    }
  }
  return b;
}

// The view is the adjacency as of the last refresh that saw a change: a
// row first built after later moves must still answer from refresh-time
// links. The oracle is a BFS over a Topology copy taken at the refresh,
// so a view read from the live topology at query time fails here.
TEST(LinkStateRouting, ViewIsCapturedAtRefreshTime) {
  sim::Rng rng(31);
  sim::Simulator sim;
  const std::size_t n = 40;
  const double side = 200.0;
  auto topo = random_field(n, side, rng);
  LinkStateRouting r(sim, topo);
  std::size_t stale_answers = 0;  // pairs where the live graph differs
  for (int round = 0; round < 20; ++round) {
    for (int m = 0; m < 5; ++m)
      topo.set_position(static_cast<core::NodeId>(rng.integer(n)),
                        {rng.uniform(0.0, side), rng.uniform(0.0, side)});
    r.refresh();
    const phy::Topology at_refresh = topo;
    // Materialize a few rows before the post-refresh moves.
    std::vector<bool> queried(n, false);
    for (int q = 0; q < 5; ++q) {
      const auto s = static_cast<core::NodeId>(rng.integer(n));
      (void)r.next_hop(s, 0);
      queried[s] = true;
    }
    // Links change after the refresh; no refresh follows.
    for (int m = 0; m < 10; ++m)
      topo.set_position(static_cast<core::NodeId>(rng.integer(n)),
                        {rng.uniform(0.0, side), rng.uniform(0.0, side)});
    for (core::NodeId s = 0; s < n; ++s) {
      if (queried[s]) continue;
      const auto want = plain_bfs(at_refresh, s);
      const auto live = plain_bfs(topo, s);
      for (core::NodeId d = 0; d < n; ++d) {
        const auto hops = want.dist[d] < 0
                              ? std::nullopt
                              : std::optional<int>(want.dist[d]);
        const auto next = want.first[d] == core::kInvalidNode
                              ? std::nullopt
                              : std::optional<core::NodeId>(want.first[d]);
        EXPECT_EQ(r.hops(s, d), hops)
            << "round " << round << ": hops(" << s << "," << d << ")";
        EXPECT_EQ(r.next_hop(s, d), next)
            << "round " << round << ": next_hop(" << s << "," << d << ")";
        if (live.dist[d] != want.dist[d] || live.first[d] != want.first[d])
          ++stale_answers;
      }
    }
  }
  // The post-refresh moves must have changed answers, or the test would
  // not tell a refresh-time view from a live one.
  EXPECT_GT(stale_answers, 0u);
}

// Destination-rooted rows must give exactly the routes of source-rooted
// rows: for every (at, dst), next_hop is the first hop of a plain BFS
// rooted at `at` (FIFO, ascending neighbors, first-discovery parents),
// hops is its distance, and path follows those first hops. The lattice has
// many equal-length paths, so any other tie-break (say, the highest-id
// closer neighbor) fails here; the split field covers unreachable pairs.
TEST(LinkStateRouting, DestinationRowsMatchSourceRootedBfs) {
  auto expect_source_rooted = [](const phy::Topology& topo,
                                 const char* context) {
    sim::Simulator sim;
    LinkStateRouting r(sim, topo);
    const auto n = static_cast<core::NodeId>(topo.size());
    std::vector<PlainBfs> from;
    for (core::NodeId s = 0; s < n; ++s) from.push_back(plain_bfs(topo, s));
    for (core::NodeId at = 0; at < n; ++at) {
      for (core::NodeId dst = 0; dst < n; ++dst) {
        const PlainBfs& b = from[at];
        const auto hops = b.dist[dst] < 0 ? std::nullopt
                                          : std::optional<int>(b.dist[dst]);
        const auto next = b.first[dst] == core::kInvalidNode
                              ? std::nullopt
                              : std::optional<core::NodeId>(b.first[dst]);
        std::optional<std::vector<core::NodeId>> path;
        if (hops) {
          path.emplace(1, at);
          while (path->back() != dst)
            path->push_back(from[path->back()].first[dst]);
        }
        EXPECT_EQ(r.hops(at, dst), hops)
            << context << ": hops(" << at << "," << dst << ")";
        EXPECT_EQ(r.next_hop(at, dst), next)
            << context << ": next_hop(" << at << "," << dst << ")";
        EXPECT_EQ(r.path(at, dst), path)
            << context << ": path(" << at << "," << dst << ")";
      }
    }
    // One row per destination, however many sources asked.
    EXPECT_EQ(r.stats().rows_built, topo.size()) << context;
  };

  // 6x6 lattice, spacing 30, range 40: no diagonals, so most pairs have
  // several shortest paths.
  phy::Topology lattice(36, 40.0);
  for (core::NodeId i = 0; i < 36; ++i)
    lattice.set_position(i, {30.0 * (i % 6), 30.0 * (i / 6)});
  expect_source_rooted(lattice, "lattice");

  sim::Rng rng(37);
  for (int f = 0; f < 4; ++f)
    expect_source_rooted(random_field(40, 180.0, rng), "random field");

  // Two components: ids interleaved across a gap wider than the range.
  phy::Topology split(30, 40.0);
  for (core::NodeId i = 0; i < 30; ++i)
    split.set_position(i, {(i % 2 ? 400.0 : 0.0) + rng.uniform(0.0, 90.0),
                           rng.uniform(0.0, 90.0)});
  expect_source_rooted(split, "split field");
}

TEST(LinkStateRouting, RowsBuildOnlyForQueriedDestinations) {
  sim::Simulator sim;
  auto topo = phy::Topology::linear(50, 30.0, 40.0);
  LinkStateRouting r(sim, topo);
  EXPECT_EQ(r.stats().rows_built, 0u);  // construction computes nothing
  (void)r.next_hop(0, 49);
  (void)r.hops(0, 49);
  EXPECT_EQ(r.stats().rows_built, 1u);
  EXPECT_EQ(r.stats().row_reuses, 1u);
  // Rows are keyed by destination: another source toward 49 shares the
  // row instead of building its own.
  EXPECT_EQ(r.next_hop(20, 49), 21u);
  EXPECT_EQ(r.hops(20, 49), 29);
  EXPECT_EQ(r.stats().rows_built, 1u);
  EXPECT_EQ(r.stats().row_reuses, 3u);
  (void)r.next_hop(7, 3);
  EXPECT_EQ(r.stats().rows_built, 2u);
  // Refresh on an unchanged topology must keep every row.
  r.refresh();
  r.refresh();
  (void)r.next_hop(0, 49);
  (void)r.next_hop(7, 3);
  EXPECT_EQ(r.stats().rows_built, 2u);
  EXPECT_EQ(r.stats().snapshots, 1u);
  // Any position write bumps the generation, even one that changes no
  // edge. Until the next refresh the stale row keeps serving; after it,
  // the next query rebuilds the row, which is then reused again.
  topo.set_position(10, {10.0 * 30.0, 1.0});
  (void)r.next_hop(0, 49);
  EXPECT_EQ(r.stats().rows_built, 2u);
  r.refresh();
  EXPECT_EQ(r.stats().snapshots, 2u);
  (void)r.next_hop(0, 49);
  (void)r.next_hop(0, 49);
  EXPECT_EQ(r.stats().rows_built, 3u);
  // Breaking the chain near its end: both rows rebuild against the new
  // view on their first query.
  topo.set_position(45, {45.0 * 30.0, 500.0});
  r.refresh();
  EXPECT_FALSE(r.next_hop(0, 49).has_value());
  EXPECT_EQ(r.next_hop(7, 3), 6u);
  EXPECT_EQ(r.stats().rows_built, 5u);
}

}  // namespace
}  // namespace jtp::routing
