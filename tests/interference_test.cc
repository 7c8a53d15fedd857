// Safety and accounting of the 2-hop interference coloring behind the
// spatial-reuse TDMA MAC.
//
// The property that makes slot reuse collision-free: no two nodes that
// could interfere at any receiver share a color. The tests pin it with a
// brute-force conflict oracle on random fields (including translated
// fields with negative coordinates and post-churn layouts), plus the two
// analytic extremes — a clique needs n colors (reuse factor exactly 1)
// and a sparse chain needs exactly 3 (reuse > 1). The incremental
// colorer is pinned against a fresh pass after every sync under seeded
// churn, and a fresh pass against a brute-force greedy.
#include "mac/interference.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "mac/reuse_tdma.h"
#include "phy/topology.h"
#include "sim/random.h"

namespace jtp::mac {
namespace {

// Brute-force oracle for the conflict relation the coloring must respect.
bool conflicts_bf(const phy::Topology& topo, core::NodeId a, core::NodeId b,
                  double margin) {
  const double r = topo.radio_range();
  if (phy::distance(topo.position(a), topo.position(b)) <=
      std::max(margin, 1.0) * r)
    return true;
  for (core::NodeId w = 0; w < topo.size(); ++w) {
    if (w == a || w == b) continue;
    if (phy::distance(topo.position(a), topo.position(w)) <= r &&
        phy::distance(topo.position(b), topo.position(w)) <= r)
      return true;
  }
  return false;
}

void expect_proper(const phy::Topology& topo, const Coloring& c,
                   double margin) {
  ASSERT_EQ(c.color.size(), topo.size());
  std::uint32_t max_seen = 0;
  for (core::NodeId a = 0; a < topo.size(); ++a) {
    max_seen = std::max(max_seen, c.color[a]);
    for (core::NodeId b = a + 1; b < topo.size(); ++b) {
      if (conflicts_bf(topo, a, b, margin)) {
        EXPECT_NE(c.color[a], c.color[b])
            << "nodes " << a << " and " << b << " interfere yet share color "
            << c.color[a];
      }
    }
  }
  EXPECT_EQ(c.colors_used, static_cast<std::size_t>(max_seen) + 1);
}

// Greedy in id order straight from the definition, over the brute-force
// conflict relation.
Coloring greedy_bf(const phy::Topology& topo, double margin) {
  Coloring c;
  c.color.assign(topo.size(), 0);
  for (core::NodeId a = 0; a < topo.size(); ++a) {
    std::vector<bool> used(topo.size() + 1, false);
    for (core::NodeId b = 0; b < a; ++b)
      if (conflicts_bf(topo, a, b, margin)) used[c.color[b]] = true;
    std::uint32_t k = 0;
    while (used[k]) ++k;
    c.color[a] = k;
    c.colors_used = std::max<std::size_t>(c.colors_used, k + 1);
  }
  return c;
}

// Every pair (a < b) within `radius`: the link graph at R, the direct
// conflict graph at margin·R.
std::vector<std::pair<core::NodeId, core::NodeId>> pairs_within(
    const phy::Topology& topo, double radius) {
  std::vector<std::pair<core::NodeId, core::NodeId>> out;
  for (core::NodeId a = 0; a < topo.size(); ++a)
    for (core::NodeId b = a + 1; b < topo.size(); ++b)
      if (phy::distance(topo.position(a), topo.position(b)) <= radius)
        out.emplace_back(a, b);
  return out;
}

phy::Topology random_field(std::size_t n, double side, std::uint64_t seed) {
  sim::Rng rng(seed);
  auto prng = rng.derive("placement");
  return phy::Topology::random_connected(n, side, 40.0, prng);
}

TEST(InterferenceColoring, SafeOnRandomFields) {
  for (std::uint64_t seed : {1ULL, 7ULL, 42ULL, 1234ULL}) {
    auto topo = random_field(60, 250.0, seed);
    expect_proper(topo, color_interference(topo, 1.0), 1.0);
  }
}

TEST(InterferenceColoring, SafeUnderWidenedCarrierMargin) {
  auto topo = random_field(50, 220.0, 9);
  for (double margin : {1.0, 1.5, 2.0, 3.0})
    expect_proper(topo, color_interference(topo, margin), margin);
}

TEST(InterferenceColoring, TranslationInvariantAcrossNegativeCoords) {
  // The conflict graph only depends on pairwise distances, so shifting
  // the whole field — across the origin, into negative coordinates —
  // must reproduce the identical coloring (this also pins the grid's
  // negative-coordinate cell packing).
  auto topo = random_field(40, 200.0, 5);
  phy::Topology shifted = topo;
  for (core::NodeId i = 0; i < topo.size(); ++i) {
    const auto p = topo.position(i);
    shifted.set_position(i, {p.x - 137.5, p.y - 212.25});
  }
  const auto a = color_interference(topo, 1.0);
  const auto b = color_interference(shifted, 1.0);
  expect_proper(shifted, b, 1.0);
  EXPECT_EQ(a.color, b.color);
  EXPECT_EQ(a.colors_used, b.colors_used);
}

TEST(InterferenceColoring, SafeAfterChurn) {
  auto topo = random_field(50, 220.0, 11);
  sim::Rng rng(99);
  for (int round = 0; round < 5; ++round) {
    for (int moves = 0; moves < 10; ++moves) {
      const auto id =
          static_cast<core::NodeId>(rng.integer(topo.size()));
      const auto p = topo.position(id);
      topo.set_position(id, {p.x + rng.uniform(-30.0, 30.0),
                             p.y + rng.uniform(-30.0, 30.0)});
    }
    expect_proper(topo, color_interference(topo, 1.0), 1.0);
  }
}

TEST(InterferenceColoring, EqualsBruteForceGreedy) {
  for (double margin : {1.0, 1.5, 3.0}) {
    auto topo = random_field(45, 230.0, 31);
    EXPECT_EQ(color_interference(topo, margin).color,
              greedy_bf(topo, margin).color)
        << "margin " << margin;
    for (core::NodeId i = 0; i < topo.size(); ++i) {
      const auto p = topo.position(i);
      topo.set_position(i, {p.x - 180.0, p.y - 95.5});
    }
    const auto shifted = color_interference(topo, margin);
    const auto want = greedy_bf(topo, margin);
    EXPECT_EQ(shifted.color, want.color) << "shifted, margin " << margin;
    EXPECT_EQ(shifted.colors_used, want.colors_used);
  }
}

// Seeded churn against a fresh pass after every sync. Each round applies
// one to three moves of one kind: a sub-metre wiggle (almost never changes
// a pair), a placement a hair inside, on, or outside R or margin·R of
// another node (a single boundary crossing), a one-cell hop (R along an
// axis), or a teleport anywhere in a field that straddles the origin.
// Every tenth round is instead a burst longer than the move ring, which
// forces the full resync.
void churn_matches_fresh(double margin, std::uint64_t seed) {
  constexpr std::size_t kN = 40;
  constexpr double kR = 40.0;
  constexpr double kHalf = 110.0;
  const double direct = std::max(margin, 1.0) * kR;
  sim::Rng rng(seed);
  phy::Topology topo(kN, kR);
  for (core::NodeId i = 0; i < kN; ++i)
    topo.set_position(i, {rng.uniform(-kHalf, kHalf),
                          rng.uniform(-kHalf, kHalf)});
  InterferenceColorer colorer(topo, margin);
  EXPECT_EQ(colorer.sync(), 0u);  // nothing moved since construction

  auto pick = [&] { return static_cast<core::NodeId>(rng.integer(kN)); };
  std::size_t quiet = 0, local = 0;
  for (int round = 0; round < 120; ++round) {
    const auto links_before = pairs_within(topo, kR);
    const auto direct_before = pairs_within(topo, direct);
    const bool burst = round % 10 == 9;
    if (burst) {
      for (std::size_t i = 0; i <= topo.move_history_capacity(); ++i) {
        const core::NodeId id = pick();
        const auto p = topo.position(id);
        topo.set_position(id, {p.x + rng.uniform(-0.5, 0.5), p.y});
      }
    }
    const int kind = round % 4;
    const int moves = burst ? 0 : 1 + static_cast<int>(rng.integer(3));
    for (int m = 0; m < moves; ++m) {
      const core::NodeId id = pick();
      const auto p = topo.position(id);
      if (kind == 0) {
        topo.set_position(id, {p.x + rng.uniform(-0.5, 0.5),
                               p.y + rng.uniform(-0.5, 0.5)});
      } else if (kind == 1) {
        core::NodeId other = pick();
        if (other == id) other = (other + 1) % kN;
        const auto q = topo.position(other);
        const double radius = rng.integer(2) ? kR : direct;
        const double nudge = 0.01 * (static_cast<double>(rng.integer(3)) - 1);
        const double d = radius + nudge;  // inside, exactly on, or outside
        if (rng.integer(2)) {  // axis-aligned: lands exactly on the boundary
          topo.set_position(id, {q.x + d, q.y});
        } else {
          const double a = rng.uniform(0.0, 6.283185307179586);
          topo.set_position(id, {q.x + d * std::cos(a), q.y + d * std::sin(a)});
        }
      } else if (kind == 2) {
        const double step = rng.integer(2) ? kR : -kR;
        topo.set_position(id, rng.integer(2) ? phy::Position{p.x + step, p.y}
                                             : phy::Position{p.x, p.y + step});
      } else {
        topo.set_position(id, {rng.uniform(-kHalf, kHalf),
                               rng.uniform(-kHalf, kHalf)});
      }
    }

    const std::size_t evaluated = colorer.sync();
    const Coloring fresh = color_interference(topo, margin);
    ASSERT_EQ(colorer.colors(), fresh.color)
        << "margin " << margin << ", round " << round;
    ASSERT_EQ(colorer.colors_used(), fresh.colors_used);
    expect_proper(topo, fresh, margin);
    if (burst) {
      EXPECT_EQ(evaluated, kN) << "overflow must resync every node";
    } else if (pairs_within(topo, kR) == links_before &&
               pairs_within(topo, direct) == direct_before) {
      EXPECT_EQ(evaluated, 0u) << "round " << round << " changed no pair";
      ++quiet;
    } else if (evaluated < kN) {
      ++local;
    }
  }
  EXPECT_GT(quiet, 10u);  // the wiggles exercised the no-change path
  EXPECT_GT(local, 10u);  // and changed pairs mostly stayed local
}

TEST(InterferenceColorer, MatchesFreshPassUnderChurnAtMargin1) {
  churn_matches_fresh(1.0, 101);
}

TEST(InterferenceColorer, MatchesFreshPassUnderChurnAtMargin1_5) {
  churn_matches_fresh(1.5, 202);
}

TEST(InterferenceColorer, MatchesFreshPassUnderChurnAtMargin3) {
  churn_matches_fresh(3.0, 303);
}

TEST(InterferenceColoring, CliqueNeedsNColors) {
  // Everyone within everyone's range: no reuse is possible, the frame
  // degenerates to classic TDMA and the reuse factor is exactly 1.
  constexpr std::size_t kN = 12;
  phy::Topology topo(kN, 40.0);
  sim::Rng rng(3);
  for (core::NodeId i = 0; i < kN; ++i)
    topo.set_position(i, {rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)});
  const auto c = color_interference(topo, 1.0);
  expect_proper(topo, c, 1.0);
  EXPECT_EQ(c.colors_used, kN);

  ReuseSchedule sched(topo, 0.01, 7, 1.0);
  const MacStats st = sched.stats();
  EXPECT_EQ(st.colors_used, kN);
  EXPECT_EQ(st.max_color, kN - 1);
  EXPECT_DOUBLE_EQ(st.reuse_factor, 1.0);
}

TEST(InterferenceColoring, SparseChainNeedsThreeColors) {
  // 30 m spacing, 40 m range: only adjacent nodes hear each other, and
  // nodes two apart share a witness — the conflict graph is the cube of
  // a path, which greedy colors with exactly 3. Far-apart nodes reuse
  // slots, so the reuse factor beats 1.
  const auto topo = phy::Topology::linear(12, 30.0, 40.0);
  const auto c = color_interference(topo, 1.0);
  expect_proper(topo, c, 1.0);
  EXPECT_EQ(c.colors_used, 3u);

  ReuseSchedule sched(topo, 0.01, 7, 1.0);
  const MacStats st = sched.stats();
  EXPECT_EQ(st.colors_used, 3u);
  EXPECT_DOUBLE_EQ(st.reuse_factor, 4.0);
  EXPECT_GT(st.reuse_factor, 1.0);
}

TEST(ReuseSchedule, RecolorsOnlyWhenTopologyGenerationChanges) {
  auto topo = random_field(30, 180.0, 21);
  ReuseSchedule sched(topo, 0.01, 7, 1.0);
  EXPECT_EQ(sched.stats().recolors, 1u);  // the construction-time coloring
  sched.ensure();
  sched.ensure();
  EXPECT_EQ(sched.stats().recolors, 1u);  // no churn => no recolor
  const auto p = topo.position(4);
  topo.set_position(4, {p.x + 5.0, p.y});
  EXPECT_EQ(sched.stats().recolors, 2u);  // stats() itself ensures
  EXPECT_EQ(sched.stats().recolors, 2u);
}

TEST(ReuseSchedule, FrameFollowsColorCountAcrossMoves) {
  // The 3-colored chain gains a fourth color when its last node moves
  // next to nodes 0 and 1: its conflict partners 0, 1 and 2 (via witness
  // 1) hold all three colors. Moving it back restores three.
  auto topo = phy::Topology::linear(12, 30.0, 40.0);
  ReuseSchedule sched(topo, 0.01, 7, 1.0);
  EXPECT_EQ(sched.stats().colors_used, 3u);
  EXPECT_DOUBLE_EQ(sched.frame_duration(), 0.03);
  EXPECT_DOUBLE_EQ(sched.node_capacity_pps(), 1.0 / 0.03);

  const auto home = topo.position(11);
  topo.set_position(11, {15.0, 10.0});
  EXPECT_EQ(sched.stats().colors_used, 4u);
  EXPECT_EQ(sched.color_of(11), 3u);
  EXPECT_DOUBLE_EQ(sched.frame_duration(), 0.04);
  EXPECT_DOUBLE_EQ(sched.node_capacity_pps(), 1.0 / 0.04);
  // Conflicting nodes own disjoint slots of the longer frame.
  std::vector<std::uint64_t> owned;
  for (core::NodeId id : {0u, 1u, 2u, 11u})
    owned.push_back(sched.next_owned_slot_from(id, 40));
  std::sort(owned.begin(), owned.end());
  EXPECT_EQ(std::adjacent_find(owned.begin(), owned.end()), owned.end());
  EXPECT_LT(owned.back(), 44u);  // all within one 4-slot frame

  topo.set_position(11, home);
  EXPECT_EQ(sched.stats().colors_used, 3u);
  EXPECT_DOUBLE_EQ(sched.frame_duration(), 0.03);
  EXPECT_DOUBLE_EQ(sched.node_capacity_pps(), 1.0 / 0.03);
  EXPECT_EQ(sched.stats().recolors, 3u);
}

TEST(ReuseSchedule, SlotTimesAreFrameIndependent) {
  // slot_start is pure slot arithmetic: a recolor that changes the frame
  // length must not move slot boundaries (in-flight MAC timers rely on
  // this).
  auto topo = random_field(30, 180.0, 23);
  ReuseSchedule sched(topo, 0.01, 7, 1.0);
  EXPECT_DOUBLE_EQ(sched.slot_start(17), 0.17);
  const auto p = topo.position(2);
  topo.set_position(2, {p.x + 40.0, p.y});
  sched.ensure();
  EXPECT_DOUBLE_EQ(sched.slot_start(17), 0.17);
  EXPECT_EQ(sched.slot_at(0.171), 17u);
  EXPECT_THROW(sched.slot_at(-0.01), std::invalid_argument);
}

TEST(ReuseSchedule, OwnedSlotsFollowColors) {
  const auto topo = phy::Topology::linear(9, 30.0, 40.0);
  ReuseSchedule sched(topo, 0.01, 7, 1.0);
  // Nodes 0 and 3 are 90 m apart — independent, same color under the
  // 3-coloring of the chain; they own exactly the same slots.
  EXPECT_EQ(sched.color_of(0), sched.color_of(3));
  for (std::uint64_t from : {0ULL, 5ULL, 100ULL})
    EXPECT_EQ(sched.next_owned_slot_from(0, from),
              sched.next_owned_slot_from(3, from));
  // Conflicting neighbors never share a slot.
  EXPECT_NE(sched.color_of(0), sched.color_of(1));
  EXPECT_THROW(sched.color_of(99), std::out_of_range);
}

}  // namespace
}  // namespace jtp::mac
