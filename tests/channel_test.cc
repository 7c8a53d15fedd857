#include "phy/channel.h"

#include <gtest/gtest.h>

namespace jtp::phy {
namespace {

ChannelConfig cfg(double bad_frac = 0.10, double bad_dwell = 3.0) {
  ChannelConfig c;
  c.loss_good = 0.02;
  c.loss_bad = 0.45;
  c.bad_fraction = bad_frac;
  c.mean_bad_dwell_s = bad_dwell;
  return c;
}

TEST(Channel, GoodDwellMatchesBadFraction) {
  Channel ch(cfg(0.10, 3.0), sim::Rng(1));
  // bad 10% of time, mean bad dwell 3s => mean good dwell 27s.
  EXPECT_NEAR(ch.mean_good_dwell_s(), 27.0, 1e-9);
}

TEST(Channel, FadingDisabledAlwaysGood) {
  auto c = cfg();
  c.fading_enabled = false;
  Channel ch(c, sim::Rng(1));
  for (double t = 0; t < 1000; t += 10) {
    EXPECT_FALSE(ch.in_bad_state(0, 1, t));
    EXPECT_DOUBLE_EQ(ch.loss_probability(0, 1, t), 0.02);
  }
}

TEST(Channel, LongRunBadFractionApproximatelyHolds) {
  Channel ch(cfg(), sim::Rng(7));
  int bad = 0;
  const int samples = 40000;
  for (int i = 0; i < samples; ++i)
    if (ch.in_bad_state(0, 1, i * 0.5)) ++bad;
  EXPECT_NEAR(static_cast<double>(bad) / samples, 0.10, 0.03);
}

TEST(Channel, LossProbabilityMatchesState) {
  Channel ch(cfg(), sim::Rng(3));
  for (double t = 0; t < 500; t += 0.7) {
    const double p = ch.loss_probability(0, 1, t);
    if (ch.in_bad_state(0, 1, t))
      EXPECT_DOUBLE_EQ(p, 0.45);
    else
      EXPECT_DOUBLE_EQ(p, 0.02);
  }
}

TEST(Channel, LinksFadeIndependently) {
  Channel ch(cfg(0.4, 5.0), sim::Rng(11));
  int differ = 0;
  for (int i = 0; i < 1000; ++i)
    if (ch.in_bad_state(0, 1, i * 1.0) != ch.in_bad_state(2, 3, i * 1.0))
      ++differ;
  EXPECT_GT(differ, 50);
}

TEST(Channel, LinkIsUndirected) {
  Channel ch(cfg(0.5, 5.0), sim::Rng(13));
  for (int i = 0; i < 200; ++i)
    EXPECT_EQ(ch.in_bad_state(0, 1, i * 2.0), ch.in_bad_state(1, 0, i * 2.0));
}

TEST(Channel, TransmissionLossFrequencyInGoodState) {
  auto c = cfg();
  c.fading_enabled = false;
  c.loss_good = 0.1;
  Channel ch(c, sim::Rng(17));
  int lost = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    if (ch.transmission_lost(0, 1, 0.0)) ++lost;
  EXPECT_NEAR(static_cast<double>(lost) / n, 0.1, 0.02);
}

TEST(Channel, TimeMovesForwardLazily) {
  Channel ch(cfg(), sim::Rng(19));
  ch.in_bad_state(0, 1, 1.0);
  // Querying far in the future advances through many flips safely.
  EXPECT_NO_THROW(ch.in_bad_state(0, 1, 100000.0));
}

TEST(Channel, StatsCountLinksAndLookups) {
  Channel ch(cfg(), sim::Rng(5));
  // 8 undirected links, both directions exercised.
  for (core::NodeId a = 0; a < 8; ++a) {
    (void)ch.transmission_lost(a, a + 1, 1.0);
    (void)ch.transmission_lost(a + 1, a, 1.0);
  }
  const ChannelStats st = ch.stats();
  EXPECT_EQ(st.dwell_links, 8u);    // (a,b) and (b,a) share dwell state
  EXPECT_EQ(st.loss_streams, 16u);  // but draw from directed streams
}

TEST(Channel, DeterministicUnderPermutedCreationOrder) {
  // Two replicas of the same channel touch the same links in opposite
  // orders. Every per-link stream is derived from the master rng by key,
  // so neither dwell timelines nor loss draws may depend on creation
  // order — a property the committed baselines rest on.
  Channel fwd(cfg(), sim::Rng(11));
  Channel rev(cfg(), sim::Rng(11));
  const int kLinks = 12;
  for (int i = 0; i < kLinks; ++i)
    (void)fwd.in_bad_state(i, i + 1, 0.0);
  for (int i = kLinks - 1; i >= 0; --i)
    (void)rev.in_bad_state(i, i + 1, 0.0);
  // Dwell timelines agree at arbitrary later times.
  for (int i = 0; i < kLinks; ++i)
    for (double t : {1.0, 17.0, 250.0, 4000.0})
      EXPECT_EQ(fwd.in_bad_state(i, i + 1, t), rev.in_bad_state(i, i + 1, t))
          << "link " << i << " at t=" << t;
  // Loss draws agree per directed stream when the interleaving differs:
  // fwd drains link 0 then link 5; rev alternates.
  Channel f2(cfg(), sim::Rng(13));
  Channel r2(cfg(), sim::Rng(13));
  std::vector<bool> f0, f5, r0, r5;
  for (int k = 0; k < 64; ++k) f0.push_back(f2.transmission_lost(0, 1, 5.0));
  for (int k = 0; k < 64; ++k) f5.push_back(f2.transmission_lost(5, 6, 5.0));
  for (int k = 0; k < 64; ++k) {
    r5.push_back(r2.transmission_lost(5, 6, 5.0));
    r0.push_back(r2.transmission_lost(0, 1, 5.0));
  }
  EXPECT_EQ(f0, r0);
  EXPECT_EQ(f5, r5);
}

TEST(Channel, RejectsBadConfig) {
  auto c = cfg();
  c.bad_fraction = 1.0;
  EXPECT_THROW(Channel(c, sim::Rng(1)), std::invalid_argument);
  c = cfg();
  c.mean_bad_dwell_s = 0.0;
  EXPECT_THROW(Channel(c, sim::Rng(1)), std::invalid_argument);
}

}  // namespace
}  // namespace jtp::phy
