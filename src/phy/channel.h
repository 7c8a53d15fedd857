// Per-link loss process: two-state Gilbert–Elliott model.
//
// The paper's linear-topology experiments alternate each link's average
// pathloss between a good state (low loss) and a bad state (high loss),
// with the link in the bad state ~10% of the time and a mean bad dwell of
// 3 s (§6.1.1). Dwell times are exponential; state is advanced lazily at
// query time, so idle links cost nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>

#include "core/types.h"
#include "sim/random.h"
#include "sim/time.h"

namespace jtp::phy {

struct ChannelConfig {
  double loss_good = 0.02;      // per-transmission loss prob, good state
  double loss_bad = 0.45;       // per-transmission loss prob, bad state
  double bad_fraction = 0.10;   // long-run share of time in bad state
  double mean_bad_dwell_s = 3.0;
  bool fading_enabled = true;   // false => always good (testbed regime)
};

// Sizes of the two lazily-created per-link state tables.
struct ChannelStats {
  std::size_t dwell_links = 0;   // undirected links with fading state
  std::size_t loss_streams = 0;  // directed links with a loss stream
};

class Channel {
 public:
  Channel(ChannelConfig cfg, sim::Rng rng);

  // Current loss probability of directed link (a -> b) at time `now`.
  double loss_probability(core::NodeId a, core::NodeId b, sim::Time now);

  // True in the bad state (for tests/traces).
  bool in_bad_state(core::NodeId a, core::NodeId b, sim::Time now);

  // Draws the fate of one transmission attempt on (a -> b).
  bool transmission_lost(core::NodeId a, core::NodeId b, sim::Time now);

  const ChannelConfig& config() const { return cfg_; }
  double mean_good_dwell_s() const;

  ChannelStats stats() const { return {links_.size(), loss_.size()}; }

 private:
  // Dwell (fading) state of an undirected link. Its rng feeds *only*
  // the flip timeline, so the sequence of (state, next_flip) pairs is a
  // pure function of the link key and the clock — advancing lazily at
  // different query times replays the identical timeline.
  struct LinkState {
    bool bad = false;
    sim::Time next_flip = 0.0;
    sim::Rng rng{0};
  };
  LinkState& state_for(core::NodeId a, core::NodeId b);
  void advance(LinkState& s, sim::Time now);

  // Per-attempt loss draws come from a separate stream keyed by the
  // *directed* link (a -> b), so one link's draws never shift another's.
  sim::Rng& loss_rng_for(core::NodeId a, core::NodeId b);

  ChannelConfig cfg_;
  sim::Rng master_;
  // Links are undirected for fading purposes: the key packs the sorted
  // (low, high) pair into one word. Per-link state is created lazily on
  // first query (idle links cost nothing) and derived from the master
  // rng by key, so neither creation order nor table layout can perturb
  // determinism.
  std::unordered_map<std::uint64_t, LinkState> links_;
  std::unordered_map<std::uint64_t, sim::Rng> loss_;  // directed key
};

}  // namespace jtp::phy
