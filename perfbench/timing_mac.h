// A timing decorator for any registered MAC discipline.
//
// Registered once under mac::Mac::kExt (the registry's extension slot), the
// TimedMacFactory builds the workload's real discipline from the registry
// and hands the Network a fabric whose per-node MACs forward every call to
// the real ones, wrapping the data-path entry points in spans: enqueue,
// the iJTP pre-xmit hook (paper Algorithm 1) and the delivery dispatch /
// deliver hooks. The wrapped MACs draw no randomness and schedule nothing,
// so a traced run computes exactly what the untraced run computes; the
// benchmark checks that by comparing result digests.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "mac/registry.h"
#include "spans.h"

namespace perfbench {

struct MacSpans {
  SpanStat enqueue;
  SpanStat pre_xmit;
  SpanStat dispatch;  // dispatch seam and plain deliver hook together
};

// Which discipline the decorator wraps and where its spans accumulate.
// Owned by the benchmark; set `inner` before each exp::build.
struct MacTraceTarget {
  jtp::mac::Mac inner = jtp::mac::Mac::kTdma;
  MacSpans spans;
};

class TimedMac final : public jtp::mac::MacIface {
 public:
  TimedMac(jtp::mac::MacIface& inner, MacSpans& spans)
      : inner_(inner), spans_(spans) {}
  // The hooks handed to the inner MAC capture `this`.
  TimedMac(const TimedMac&) = delete;
  TimedMac& operator=(const TimedMac&) = delete;

  void set_pre_xmit(PreXmitHook hook) override {
    if (!hook) return inner_.set_pre_xmit(nullptr);
    inner_.set_pre_xmit([this, hook = std::move(hook)](
                            jtp::core::Packet& p, jtp::core::NodeId next,
                            const jtp::core::LinkView& link,
                            jtp::core::Joules tx_energy, bool first) {
      Span s(spans_.pre_xmit);
      return hook(p, next, link, tx_energy, first);
    });
  }
  void set_deliver(DeliverHook hook) override {
    if (!hook) return inner_.set_deliver(nullptr);
    inner_.set_deliver([this, hook = std::move(hook)](
                           jtp::core::PacketPtr&& p, jtp::core::NodeId from,
                           jtp::core::NodeId to) {
      Span s(spans_.dispatch);
      hook(std::move(p), from, to);
    });
  }
  void set_dispatch(jtp::mac::DeliveryDispatch hook) override {
    if (!hook) return inner_.set_dispatch(nullptr);
    inner_.set_dispatch([this, hook = std::move(hook)](
                            double delay_s, jtp::core::PacketPtr&& p,
                            jtp::core::NodeId from, jtp::core::NodeId to) {
      Span s(spans_.dispatch);
      hook(delay_s, std::move(p), from, to);
    });
  }
  void set_attempt_trace(AttemptBudgetTrace t) override {
    inner_.set_attempt_trace(std::move(t));
  }

  bool enqueue(jtp::core::PacketPtr p, jtp::core::NodeId next_hop) override {
    Span s(spans_.enqueue);
    return inner_.enqueue(std::move(p), next_hop);
  }

  jtp::core::NodeId self() const override { return inner_.self(); }
  jtp::mac::LinkEstimator& estimator() override { return inner_.estimator(); }
  const jtp::mac::LinkEstimator& estimator() const override {
    return inner_.estimator();
  }
  std::size_t queue_length() const override { return inner_.queue_length(); }
  std::size_t data_queue_length() const override {
    return inner_.data_queue_length();
  }
  std::uint64_t queue_drops() const override { return inner_.queue_drops(); }
  std::uint64_t attempt_exhausted_drops() const override {
    return inner_.attempt_exhausted_drops();
  }
  std::uint64_t energy_budget_drops() const override {
    return inner_.energy_budget_drops();
  }
  std::uint64_t transmissions() const override {
    return inner_.transmissions();
  }
  std::uint64_t deliveries() const override { return inner_.deliveries(); }
  bool migration_idle() const override { return inner_.migration_idle(); }

 private:
  jtp::mac::MacIface& inner_;
  MacSpans& spans_;
};

class TimedFabric final : public jtp::mac::MacFabric {
 public:
  TimedFabric(std::unique_ptr<jtp::mac::MacFabric> inner, MacSpans& spans)
      : inner_(std::move(inner)) {
    macs_.reserve(inner_->size());
    for (jtp::core::NodeId id = 0; id < inner_->size(); ++id)
      macs_.push_back(std::make_unique<TimedMac>(inner_->mac_of(id), spans));
  }

  jtp::mac::MacIface& mac_of(jtp::core::NodeId id) override {
    return *macs_.at(id);
  }
  std::size_t size() const override { return macs_.size(); }
  double node_capacity_pps() const override {
    return inner_->node_capacity_pps();
  }
  double frame_duration_s() const override {
    return inner_->frame_duration_s();
  }
  jtp::mac::MacStats stats() const override { return inner_->stats(); }

 private:
  std::unique_ptr<jtp::mac::MacFabric> inner_;
  std::vector<std::unique_ptr<TimedMac>> macs_;
};

class TimedMacFactory final : public jtp::mac::MacFactory {
 public:
  explicit TimedMacFactory(MacTraceTarget& target) : target_(target) {}

  std::unique_ptr<jtp::mac::MacFabric> make(
      const jtp::mac::MacContext& ctx) const override {
    auto inner = jtp::mac::MacRegistry::instance()
                     .info(target_.inner)
                     .factory->make(ctx);
    return std::make_unique<TimedFabric>(std::move(inner), target_.spans);
  }

 private:
  MacTraceTarget& target_;
};

}  // namespace perfbench
