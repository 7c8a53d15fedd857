#include "routing/link_state.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace jtp::routing {

namespace {
constexpr int kUnreachable = std::numeric_limits<int>::max();
}

LinkStateRouting::LinkStateRouting(sim::Simulator& sim,
                                   const phy::Topology& topo,
                                   RoutingConfig cfg)
    : sim_(sim), topo_(topo), cfg_(cfg) {
  if (cfg.refresh_interval_s <= 0)
    throw std::invalid_argument("LinkStateRouting: bad refresh interval");
  capture_view();
  slot_of_.assign(topo_.size(), kNoSlot);  // no row until first queried
  stats_.refreshes = 1;  // construction takes the first view
  stats_.snapshots = 1;
}

void LinkStateRouting::start() {
  if (started_) return;
  started_ = true;
  struct Rearm {
    LinkStateRouting* self;
    double period;
    void operator()() const {
      self->refresh();
      self->sim_.schedule(period, Rearm{self, period});
    }
  };
  sim_.schedule(cfg_.refresh_interval_s, Rearm{this, cfg_.refresh_interval_s});
}

void LinkStateRouting::refresh() {
  ++stats_.refreshes;
  if (topo_.generation() == view_gen_) return;  // view already current
  ++stats_.snapshots;
  capture_view();
  ++epoch_;  // invalidates every row without touching them
}

void LinkStateRouting::capture_view() {
  const std::size_t n = topo_.size();
  adj_off_.resize(n + 1);
  adj_.clear();
  std::vector<core::NodeId> nbrs;
  for (core::NodeId u = 0; u < n; ++u) {
    adj_off_[u] = adj_.size();
    topo_.neighbors_into(u, nbrs);
    adj_.insert(adj_.end(), nbrs.begin(), nbrs.end());
  }
  adj_off_[n] = adj_.size();
  view_gen_ = topo_.generation();
}

const int* LinkStateRouting::row(core::NodeId d) const {
  const std::size_t n = topo_.size();
  std::uint32_t slot = slot_of_[d];
  if (slot == kNoSlot) {
    slot = static_cast<std::uint32_t>(slot_epoch_.size());
    slot_of_[d] = slot;
    slot_epoch_.push_back(0);  // epoch_ starts at 1: not valid yet
    dist_.resize(dist_.size() + n);
  }
  int* dist = dist_.data() + static_cast<std::size_t>(slot) * n;
  if (slot_epoch_[slot] == epoch_) {
    ++stats_.row_reuses;
    return dist;
  }
  std::fill(dist, dist + n, kUnreachable);
  // BFS over the view's unit-cost range graph, rooted at the destination:
  // links are symmetric, so dist[v] is the hop count from v to d.
  dist[d] = 0;
  bfs_queue_.clear();
  bfs_queue_.push_back(d);
  for (std::size_t head = 0; head < bfs_queue_.size(); ++head) {
    const core::NodeId u = bfs_queue_[head];
    const int du = dist[u] + 1;
    for (std::size_t k = adj_off_[u]; k < adj_off_[u + 1]; ++k) {
      const core::NodeId v = adj_[k];
      if (dist[v] != kUnreachable) continue;
      dist[v] = du;
      bfs_queue_.push_back(v);
    }
  }
  slot_epoch_[slot] = epoch_;
  ++stats_.rows_built;
  return dist;
}

std::optional<core::NodeId> LinkStateRouting::next_hop(core::NodeId at,
                                                       core::NodeId dst) const {
  const std::size_t n = topo_.size();
  if (at >= n || dst >= n) return std::nullopt;
  if (at == dst) return std::nullopt;
  const int* dist = row(dst);
  if (dist[at] == kUnreachable) return std::nullopt;
  // The lowest-id neighbor one hop closer (see the header's tie-break).
  const int closer = dist[at] - 1;
  for (std::size_t k = adj_off_[at]; k < adj_off_[at + 1]; ++k)
    if (dist[adj_[k]] == closer) return adj_[k];
  return std::nullopt;  // not reached: a finite-distance node has a closer one
}

std::optional<int> LinkStateRouting::hops(core::NodeId at,
                                          core::NodeId dst) const {
  const std::size_t n = topo_.size();
  if (at >= n || dst >= n) return std::nullopt;
  const int d = row(dst)[at];
  if (d == kUnreachable) return std::nullopt;
  return d;
}

std::optional<std::vector<core::NodeId>> LinkStateRouting::path(
    core::NodeId src, core::NodeId dst) const {
  const std::size_t n = topo_.size();
  if (src >= n || dst >= n) return std::nullopt;
  std::vector<core::NodeId> p{src};
  core::NodeId cur = src;
  while (cur != dst) {
    const auto h = next_hop(cur, dst);
    if (!h) return std::nullopt;
    p.push_back(*h);
    cur = *h;
  }
  return p;
}

}  // namespace jtp::routing
