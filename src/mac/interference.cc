#include "mac/interference.h"

#include <algorithm>
#include <functional>

namespace jtp::mac {

InterferenceColorer::InterferenceColorer(const phy::Topology& topo,
                                         double range_margin)
    : topo_(topo),
      links_(topo.links()),
      direct_(std::max(range_margin, 1.0) * topo.radio_range()),
      wide_(direct_.radius() > topo.radio_range()) {
  const std::size_t n = topo_.size();
  // Placeholder colors: with nothing seen yet, the first sync seeds every
  // node with a partner and replays them in id order (a node reads only
  // lower ids' colors, final by then); nodes without partners keep 0.
  color_.assign(n, 0);
  count_.assign(1, n);
  // A node has fewer than n lower-id partners, so its color is below n.
  color_mark_.assign(n, 0);
  queued_.assign(n, 0);
  sync();
}

std::size_t InterferenceColorer::sync() {
  topo_.links();  // brings links_ current
  if (wide_) direct_.sync(topo_);
  // A changed link (a, b) can change the conflict relation between a or b
  // and any current neighbor of the other end (b is their witness), and
  // between a and b themselves: seed both ends and both neighborhoods. A
  // margin·R pair only decides its own conflict: seed the two ends.
  if (links_.version() != links_seen_ || direct_.version() != direct_seen_) {
    for (core::NodeId t = 0; t < topo_.size(); ++t) {
      if (wide_ && direct_.changed_at(t) > direct_seen_) seed(t);
      if (links_.changed_at(t) <= links_seen_) continue;
      seed(t);
      for (const core::NodeId u : links_[t]) seed(u);
    }
    links_seen_ = links_.version();
    direct_seen_ = direct_.version();
  }
  return replay();
}

void InterferenceColorer::seed(core::NodeId id) {
  if (queued_[id]) return;
  queued_[id] = 1;
  seeds_.push_back(id);
  std::push_heap(seeds_.begin(), seeds_.end(), std::greater<>());
}

template <typename Fn>
void InterferenceColorer::for_each_partner(core::NodeId v, Fn&& fn) const {
  for (const core::NodeId u : wide_ ? direct_[v] : links_[v]) fn(u);
  for (const core::NodeId w : links_[v])
    for (const core::NodeId u : links_[w])
      if (u != v) fn(u);
}

std::size_t InterferenceColorer::replay() {
  // Ascending id order makes this the from-scratch greedy: when v is
  // popped, every lower id already holds its final color (a changed color
  // only ever queues higher ids), and v's own color is the smallest one no
  // lower-id partner holds. Nodes never queued keep both their partner set
  // and their lower partners' colors, hence their color.
  std::size_t evaluated = 0;
  while (!seeds_.empty()) {
    std::pop_heap(seeds_.begin(), seeds_.end(), std::greater<>());
    const core::NodeId v = seeds_.back();
    seeds_.pop_back();
    queued_[v] = 0;
    ++evaluated;
    ++stamp_;
    for_each_partner(v, [&](core::NodeId u) {
      if (u < v) color_mark_[color_[u]] = stamp_;
    });
    std::uint32_t c = 0;
    while (color_mark_[c] == stamp_) ++c;
    if (c == color_[v]) continue;
    --count_[color_[v]];
    if (c >= count_.size()) count_.resize(c + 1, 0);
    ++count_[c];
    color_[v] = c;
    for_each_partner(v, [&](core::NodeId u) {
      if (u > v) seed(u);
    });
  }
  // Greedy colors are dense, so the color count is the highest used + 1.
  while (!count_.empty() && count_.back() == 0) count_.pop_back();
  return evaluated;
}

Coloring color_interference(const phy::Topology& topo, double range_margin) {
  const InterferenceColorer colorer(topo, range_margin);
  return Coloring{colorer.colors(), colorer.colors_used()};
}

}  // namespace jtp::mac
