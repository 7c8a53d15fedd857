// Layer-boundary spans for the benchmark's traced run.
//
// A Span times one call into a layer. Spans nest: each open span knows
// its parent, so a span's self time is its duration minus the time its
// child spans covered (a pre-xmit hook fired from inside a MAC enqueue
// counts once, under the hook). Totals live in SpanStat objects owned by
// the caller and are read when the run ends. Single-threaded by design:
// every workload runs at shards=1 in one thread.
#pragma once

#include <chrono>
#include <cstdint>

namespace perfbench {

inline double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanStat {
  std::uint64_t calls = 0;
  double total_s = 0.0;
  double child_s = 0.0;
  double self_s() const { return total_s - child_s; }
};

class Span {
 public:
  explicit Span(SpanStat& stat) : stat_(stat), parent_(top_) {
    top_ = this;
    t0_ = wall_now();
  }
  ~Span() {
    const double dt = wall_now() - t0_;
    ++stat_.calls;
    stat_.total_s += dt;
    stat_.child_s += child_s_;
    if (parent_ != nullptr) parent_->child_s_ += dt;
    top_ = parent_;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  static inline Span* top_ = nullptr;
  SpanStat& stat_;
  Span* parent_;
  double t0_ = 0.0;
  double child_s_ = 0.0;
};

}  // namespace perfbench
