#include "phy/topology.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sim/random.h"

namespace jtp::phy {
namespace {

TEST(Topology, LinearChainIsConnectedAndMultiHop) {
  const auto t = Topology::linear(5, 30.0, 40.0);
  EXPECT_TRUE(t.connected());
  // Neighbors only: no hop-skipping.
  EXPECT_TRUE(t.in_range(0, 1));
  EXPECT_FALSE(t.in_range(0, 2));
  EXPECT_EQ(t.neighbors(2), (std::vector<core::NodeId>{1, 3}));
  EXPECT_EQ(t.neighbors(0), (std::vector<core::NodeId>{1}));
}

TEST(Topology, LinearRejectsDegenerateSpacing) {
  EXPECT_THROW(Topology::linear(5, 45.0, 40.0), std::invalid_argument);
  // range >= 2*spacing would let the chain skip hops
  EXPECT_THROW(Topology::linear(5, 15.0, 40.0), std::invalid_argument);
}

TEST(Topology, DistanceIsEuclidean) {
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(distance({1, 1}, {1, 1}), 0.0);
}

TEST(Topology, InRangeIsSymmetricAndIrreflexive) {
  const auto t = Topology::linear(4, 30.0, 40.0);
  for (core::NodeId a = 0; a < 4; ++a) {
    EXPECT_FALSE(t.in_range(a, a));
    for (core::NodeId b = 0; b < 4; ++b)
      EXPECT_EQ(t.in_range(a, b), t.in_range(b, a));
  }
}

TEST(Topology, RandomConnectedIsConnected) {
  sim::Rng rng(5);
  for (int i = 0; i < 5; ++i) {
    const auto t = Topology::random_connected(15, 150.0, 40.0, rng);
    EXPECT_TRUE(t.connected());
    EXPECT_EQ(t.size(), 15u);
  }
}

TEST(Topology, RandomConnectedImpossibleFieldThrows) {
  sim::Rng rng(5);
  // Nodes cannot stay connected w.h.p. in an enormous sparse field.
  EXPECT_THROW(Topology::random_connected(10, 100000.0, 40.0, rng, 5),
               std::runtime_error);
}

TEST(Topology, MovingNodeChangesConnectivity) {
  auto t = Topology::linear(3, 30.0, 40.0);
  EXPECT_TRUE(t.in_range(0, 1));
  t.set_position(1, {500.0, 0.0});
  EXPECT_FALSE(t.in_range(0, 1));
  EXPECT_FALSE(t.connected());
}

TEST(Topology, RejectsBadConstruction) {
  EXPECT_THROW(Topology(0, 10.0), std::invalid_argument);
  EXPECT_THROW(Topology(3, 0.0), std::invalid_argument);
}

TEST(Topology, GenerationBumpsOnEverySetPosition) {
  auto t = Topology::linear(3, 30.0, 40.0);
  const auto g0 = t.generation();
  t.set_position(1, {31.0, 0.0});
  EXPECT_EQ(t.generation(), g0 + 1);
  // Same position again still counts: generation tracks writes, and
  // in-range state depends on exact coordinates, not grid cells.
  t.set_position(1, {31.0, 0.0});
  EXPECT_EQ(t.generation(), g0 + 2);
}

// --- grid-index properties -------------------------------------------------
// The spatial index must be invisible: neighbors() has to agree with the
// O(n^2) definition (all in_range ids, ascending) on any placement,
// including after mobility-style churn and on negative coordinates.

std::vector<core::NodeId> brute_force_neighbors(const Topology& t,
                                                core::NodeId id) {
  std::vector<core::NodeId> out;
  for (core::NodeId j = 0; j < t.size(); ++j)
    if (t.in_range(id, j)) out.push_back(j);
  return out;
}

void expect_index_matches_brute_force(const Topology& t,
                                      const char* context) {
  std::vector<core::NodeId> scratch;
  for (core::NodeId i = 0; i < t.size(); ++i) {
    EXPECT_EQ(t.neighbors(i), brute_force_neighbors(t, i))
        << context << ": node " << i;
    t.neighbors_into(i, scratch);
    EXPECT_EQ(scratch, brute_force_neighbors(t, i))
        << context << " (into): node " << i;
  }
}

TEST(TopologyGridIndex, NeighborsMatchBruteForceOnRandomFields) {
  sim::Rng rng(42);
  for (const std::size_t n : {2u, 7u, 40u, 150u}) {
    Topology t(n, 40.0);
    const double side = 40.0 * std::sqrt(static_cast<double>(n));
    for (core::NodeId i = 0; i < n; ++i)
      t.set_position(i, {rng.uniform(0.0, side), rng.uniform(0.0, side)});
    expect_index_matches_brute_force(t, "fresh placement");
  }
}

TEST(TopologyGridIndex, NeighborsMatchBruteForceAfterChurn) {
  sim::Rng rng(7);
  const std::size_t n = 60;
  Topology t(n, 40.0);
  for (core::NodeId i = 0; i < n; ++i)
    t.set_position(i, {rng.uniform(0.0, 300.0), rng.uniform(0.0, 300.0)});
  // Mobility-style churn: small steps, long jumps, and excursions to
  // negative coordinates (cells left, emptied, re-entered).
  for (int round = 0; round < 200; ++round) {
    const auto id = static_cast<core::NodeId>(rng.integer(n));
    const auto& p = t.position(id);
    if (round % 5 == 0) {
      t.set_position(id, {rng.uniform(-120.0, 420.0),
                          rng.uniform(-120.0, 420.0)});
    } else {
      t.set_position(id, {p.x + rng.uniform(-10.0, 10.0),
                          p.y + rng.uniform(-10.0, 10.0)});
    }
  }
  expect_index_matches_brute_force(t, "after churn");
}

TEST(TopologyGridIndex, WithinMatchesBruteForceAtAnyRadius) {
  // Radii wider than the cell side reach past the 3x3 block; narrower
  // ones filter inside it. Negative coordinates included.
  sim::Rng rng(17);
  const std::size_t n = 80;
  Topology t(n, 40.0);
  for (core::NodeId i = 0; i < n; ++i)
    t.set_position(i, {rng.uniform(-150.0, 200.0), rng.uniform(-200.0, 150.0)});
  std::vector<core::NodeId> got;
  for (const double radius : {20.0, 40.0, 60.0, 119.5, 120.0}) {
    for (core::NodeId i = 0; i < n; ++i) {
      std::vector<core::NodeId> want;
      for (core::NodeId j = 0; j < n; ++j)
        if (j != i && distance(t.position(i), t.position(j)) <= radius)
          want.push_back(j);
      t.within_into(i, radius, got);
      EXPECT_EQ(got, want) << "radius " << radius << ", node " << i;
    }
  }
}

TEST(TopologyMovedSince, ReportsDistinctMoversAscending) {
  Topology t(10, 40.0);
  const std::uint64_t gen = t.generation();
  t.set_position(5, {10.0, 0.0});
  t.set_position(2, {20.0, 0.0});
  t.set_position(5, {30.0, 0.0});  // repeat mover: reported once
  std::vector<core::NodeId> moved;
  ASSERT_TRUE(t.moved_since(gen, moved));
  EXPECT_EQ(moved, (std::vector<core::NodeId>{2, 5}));
}

TEST(TopologyMovedSince, CurrentGenerationYieldsEmptySet) {
  Topology t(4, 40.0);
  t.set_position(1, {5.0, 5.0});
  std::vector<core::NodeId> moved{99};
  ASSERT_TRUE(t.moved_since(t.generation(), moved));
  EXPECT_TRUE(moved.empty());
}

TEST(TopologyMovedSince, FutureGenerationIsUnanswerable) {
  Topology t(4, 40.0);
  std::vector<core::NodeId> moved;
  EXPECT_FALSE(t.moved_since(t.generation() + 1, moved));
}

TEST(TopologyMovedSince, OverflowReturnsFalseAtExactBoundary) {
  Topology t(4, 40.0);
  const std::size_t cap = t.move_history_capacity();
  const std::uint64_t gen = t.generation();
  std::vector<core::NodeId> moved;
  // Fill the ring exactly: still answerable.
  for (std::size_t i = 0; i < cap; ++i)
    t.set_position(static_cast<core::NodeId>(i % 4),
                   {static_cast<double>(i), 0.0});
  ASSERT_TRUE(t.moved_since(gen, moved));
  EXPECT_EQ(moved.size(), 4u);
  // One more move pushes the window past the ring: unanswerable.
  t.set_position(0, {1.0, 1.0});
  EXPECT_FALSE(t.moved_since(gen, moved));
  // A narrower window inside the ring still works.
  ASSERT_TRUE(t.moved_since(t.generation() - 1, moved));
  EXPECT_EQ(moved, (std::vector<core::NodeId>{0}));
}

TEST(TopologyMovedSince, CopyCarriesItsOwnHistory) {
  Topology t(4, 40.0);
  t.set_position(3, {10.0, 0.0});
  const Topology copy = t;
  const std::uint64_t gen = copy.generation();
  t.set_position(1, {20.0, 0.0});  // original moves on; copy is frozen
  std::vector<core::NodeId> moved;
  ASSERT_TRUE(copy.moved_since(gen, moved));
  EXPECT_TRUE(moved.empty());
  std::vector<core::NodeId> orig_moved;
  ASSERT_TRUE(t.moved_since(gen, orig_moved));
  EXPECT_EQ(orig_moved, (std::vector<core::NodeId>{1}));
}

// Every other node within `radius` of each node, ascending, by full scan.
std::vector<std::vector<core::NodeId>> brute_lists(const Topology& t,
                                                   double radius) {
  std::vector<std::vector<core::NodeId>> out(t.size());
  for (core::NodeId i = 0; i < t.size(); ++i)
    for (core::NodeId j = 0; j < t.size(); ++j)
      if (j != i && distance(t.position(i), t.position(j)) <= radius)
        out[i].push_back(j);
  return out;
}

// Seeded churn: sub-metre wiggles (rarely change a pair), placements
// exactly R or 1.5R from another node, teleports, and every tenth round a
// burst of wiggles longer than the move ring (the index re-queries every
// node). After each sync both indexes hold the brute-force lists, the
// version moves iff some pair changed, and exactly the nodes whose lists
// changed carry the new version.
TEST(NeighborIndex, MatchesBruteForceUnderChurnWithOverflow) {
  constexpr std::size_t kN = 60;
  constexpr double kR = 40.0;
  sim::Rng rng(23);
  Topology t(kN, kR);
  for (core::NodeId i = 0; i < kN; ++i)
    t.set_position(i, {rng.uniform(-120.0, 120.0), rng.uniform(-120.0, 120.0)});
  NeighborIndex wide(1.5 * kR);
  wide.sync(t);
  const NeighborIndex* const indexes[] = {&t.links(), &wide};
  auto pick = [&] { return static_cast<core::NodeId>(rng.integer(kN)); };
  std::size_t quiet = 0, changed = 0;
  for (int round = 0; round < 80; ++round) {
    std::vector<std::vector<std::vector<core::NodeId>>> before;
    std::vector<std::vector<std::uint64_t>> stamps;
    for (const NeighborIndex* idx : indexes) {
      before.push_back(brute_lists(t, idx->radius()));
      stamps.emplace_back();
      for (core::NodeId i = 0; i < kN; ++i)
        stamps.back().push_back(idx->changed_at(i));
    }
    const std::uint64_t versions[] = {indexes[0]->version(),
                                      indexes[1]->version()};
    const bool burst = round % 10 == 9;
    const std::size_t moves =
        burst ? t.move_history_capacity() + 1 : 1 + rng.integer(3);
    for (std::size_t m = 0; m < moves; ++m) {
      const core::NodeId id = pick();
      const Position p = t.position(id);
      const int kind = burst ? 0 : round % 3;
      if (kind == 0) {
        t.set_position(id, {p.x + rng.uniform(-0.5, 0.5), p.y});
      } else if (kind == 1) {
        const core::NodeId other = (id + 1 + pick() % (kN - 1)) % kN;
        const Position q = t.position(other);
        t.set_position(id, {q.x + (rng.integer(2) ? kR : 1.5 * kR), q.y});
      } else {
        t.set_position(id, {rng.uniform(-120.0, 120.0),
                            rng.uniform(-120.0, 120.0)});
      }
    }
    t.links();
    wide.sync(t);
    for (std::size_t k = 0; k < 2; ++k) {
      const NeighborIndex& idx = *indexes[k];
      const auto want = brute_lists(t, idx.radius());
      const bool any = want != before[k];
      EXPECT_EQ(idx.version(), versions[k] + (any ? 1 : 0)) << round;
      for (core::NodeId i = 0; i < kN; ++i) {
        ASSERT_EQ(idx[i], want[i]) << "radius " << idx.radius() << ", round "
                                   << round << ", node " << i;
        EXPECT_EQ(idx.changed_at(i),
                  want[i] != before[k][i] ? idx.version() : stamps[k][i])
            << "radius " << idx.radius() << ", round " << round;
      }
      ++(any ? changed : quiet);
    }
  }
  EXPECT_GT(quiet, 10u);    // the wiggles exercised the no-change path
  EXPECT_GT(changed, 10u);  // and the other moves changed pairs
}

TEST(TopologyGridIndex, RangeBoundaryIsInclusiveAcrossCells) {
  // Two nodes exactly one range apart land in different cells; the index
  // must keep the <= boundary the scan had.
  Topology t(2, 40.0);
  t.set_position(0, {0.0, 0.0});
  t.set_position(1, {40.0, 0.0});
  EXPECT_TRUE(t.in_range(0, 1));
  EXPECT_EQ(t.neighbors(0), (std::vector<core::NodeId>{1}));
  t.set_position(1, {40.0000001, 0.0});
  EXPECT_TRUE(t.neighbors(0).empty());
}

}  // namespace
}  // namespace jtp::phy
