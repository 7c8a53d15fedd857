#include "mac/interference.h"

#include <algorithm>
#include <functional>

namespace jtp::mac {

InterferenceColorer::InterferenceColorer(const phy::Topology& topo,
                                         double range_margin)
    : topo_(topo),
      range_(topo.radio_range()),
      direct_(std::max(range_margin, 1.0) * topo.radio_range()),
      wide_(direct_ > range_) {
  rebuild_all();
  synced_gen_ = topo_.generation();
  replay();
}

std::size_t InterferenceColorer::sync() {
  if (!topo_.moved_since(synced_gen_, movers_)) {
    rebuild_all();
  } else {
    touched_.clear();
    for (const core::NodeId m : movers_) refresh(m);
    // A changed link (a, b) can change the conflict relation between a or
    // b and any current neighbor of the other end (b is their witness), and
    // between a and b themselves: seed both ends and both neighborhoods.
    std::sort(touched_.begin(), touched_.end());
    touched_.erase(std::unique(touched_.begin(), touched_.end()),
                   touched_.end());
    for (const core::NodeId t : touched_) {
      seed(t);
      for (const core::NodeId u : links_[t]) seed(u);
    }
  }
  synced_gen_ = topo_.generation();
  return replay();
}

void InterferenceColorer::refresh(core::NodeId id) {
  topo_.within_into(id, range_, fresh_);
  patch(links_, id, [&](core::NodeId x) {
    touched_.push_back(id);
    touched_.push_back(x);
  });
  if (!wide_) return;
  // A margin·R pair only decides its own conflict: seed the two ends.
  topo_.within_into(id, direct_, fresh_);
  patch(direct_lists_, id, [&](core::NodeId x) {
    seed(id);
    seed(x);
  });
}

template <typename OnChange>
void InterferenceColorer::patch(std::vector<List>& lists, core::NodeId id,
                                OnChange&& on_change) {
  // Merge of two ascending lists. Entries are patched into the partner's
  // list too, so when the partner is itself a mover its own refresh sees
  // the pair already consistent and reports it only once.
  List& old = lists[id];
  std::size_t i = 0, j = 0;
  while (i < old.size() || j < fresh_.size()) {
    if (j == fresh_.size() || (i < old.size() && old[i] < fresh_[j])) {
      List& other = lists[old[i]];
      other.erase(std::lower_bound(other.begin(), other.end(), id));
      on_change(old[i++]);
    } else if (i == old.size() || fresh_[j] < old[i]) {
      List& other = lists[fresh_[j]];
      other.insert(std::lower_bound(other.begin(), other.end(), id), id);
      on_change(fresh_[j++]);
    } else {
      ++i;
      ++j;
    }
  }
  old = fresh_;
}

void InterferenceColorer::rebuild_all() {
  const std::size_t n = topo_.size();
  links_.resize(n);
  for (core::NodeId id = 0; id < n; ++id)
    topo_.within_into(id, range_, links_[id]);
  if (wide_) {
    direct_lists_.resize(n);
    for (core::NodeId id = 0; id < n; ++id)
      topo_.within_into(id, direct_, direct_lists_[id]);
  }
  // Placeholder colors: replay re-evaluates every node in id order, and a
  // node only reads the colors of lower ids, which are final by then.
  color_.assign(n, 0);
  count_.assign(1, n);
  // A node has fewer than n lower-id partners, so its color is below n.
  color_mark_.assign(n, 0);
  stamp_ = 0;
  queued_.assign(n, 0);
  seeds_.clear();
  for (core::NodeId id = 0; id < n; ++id) seed(id);
}

void InterferenceColorer::seed(core::NodeId id) {
  if (queued_[id]) return;
  queued_[id] = 1;
  seeds_.push_back(id);
  std::push_heap(seeds_.begin(), seeds_.end(), std::greater<>());
}

template <typename Fn>
void InterferenceColorer::for_each_partner(core::NodeId v, Fn&& fn) const {
  for (const core::NodeId u : wide_ ? direct_lists_[v] : links_[v]) fn(u);
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
