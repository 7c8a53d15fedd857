#include "sim/simulator.h"

#include <cassert>

namespace jtp::sim {

std::uint64_t Simulator::run_until(Time t) {
  std::uint64_t ran = 0;
  while (!queue_.empty() && queue_.next_time() <= t) {
    auto ev = queue_.pop();
    assert(ev.at >= now_);
    now_ = ev.at;
    ctx_ = ev.exec_owner;
    ev.fn();
    ++executed_;
    ++ran;
  }
  ctx_ = 0;
  if (now_ < t && t < std::numeric_limits<Time>::max()) now_ = t;
  return ran;
}

void Simulator::reset() {
  queue_.clear();
  now_ = kTimeZero;
  executed_ = 0;
  ctx_ = 0;
  seq_.clear();
}

}  // namespace jtp::sim
