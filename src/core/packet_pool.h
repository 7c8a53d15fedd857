// PacketPool: freelist-recycled packet slots with RAII handles.
//
// The delivery pipeline moves packets by PacketPtr — a unique-ownership
// handle into a pool slot — instead of copying ~multi-hundred-byte
// Packet values through MAC queues and delivery events. Endpoints
// acquire a slot when they create a packet; the handle then rides the
// whole path (node send -> MAC transmit ring -> delivery event -> next
// node) untouched, and the slot returns to the freelist when the packet
// is consumed or dropped. In the steady state the pool allocates no new
// slots; PoolStats::high_water pins the claim.
//
// Threading/lifetime: a pool belongs to one simulation (one Network /
// one Env), which belongs to one thread — pools are never shared across
// threads. The pool must outlive every handle, including handles
// captured in still-pending simulator events; aggregates therefore
// declare the pool before the Simulator (see net::Network).
#pragma once

#include <cassert>
#include <memory>
#include <utility>
#include <vector>

#include "core/packet.h"
#include "sim/stats.h"

namespace jtp::core {

using sim::PoolStats;

class PacketPool;

// Unique handle to a pooled Packet. Move-only; releasing (destruction or
// reassignment) returns the slot to its pool.
class PacketPtr {
 public:
  PacketPtr() = default;
  PacketPtr(PacketPtr&& o) noexcept : p_(o.p_), pool_(o.pool_) {
    o.p_ = nullptr;
    o.pool_ = nullptr;
  }
  PacketPtr& operator=(PacketPtr&& o) noexcept {
    if (this != &o) {
      release();
      p_ = o.p_;
      pool_ = o.pool_;
      o.p_ = nullptr;
      o.pool_ = nullptr;
    }
    return *this;
  }
  PacketPtr(const PacketPtr&) = delete;
  PacketPtr& operator=(const PacketPtr&) = delete;
  ~PacketPtr() { release(); }

  explicit operator bool() const { return p_ != nullptr; }
  Packet& operator*() const { return *p_; }
  Packet* operator->() const { return p_; }
  Packet* get() const { return p_; }

  void reset() { release(); }

 private:
  friend class PacketPool;
  PacketPtr(Packet* p, PacketPool* pool) : p_(p), pool_(pool) {}
  inline void release();

  Packet* p_ = nullptr;
  PacketPool* pool_ = nullptr;
};

class PacketPool {
 public:
  PacketPool() = default;
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;
  ~PacketPool() {
    assert(stats_.in_use == 0 && "packet handles outlived their pool");
  }

  // A fresh default-initialized packet.
  PacketPtr make() {
    Packet* p = acquire();
    *p = Packet{};
    return PacketPtr(p, this);
  }
  // Move a stack-built packet into a pooled slot.
  PacketPtr make(Packet&& proto) {
    Packet* p = acquire();
    *p = std::move(proto);
    return PacketPtr(p, this);
  }
  // Clone (e.g. a cached header being re-sent).
  PacketPtr make(const Packet& proto) {
    Packet* p = acquire();
    *p = proto;
    return PacketPtr(p, this);
  }
  PacketPtr make(const PacketHeader& h) {
    Packet* p = acquire();
    static_cast<PacketHeader&>(*p) = h;
    p->ack.reset();
    return PacketPtr(p, this);
  }

  const PoolStats& stats() const { return stats_; }
  std::size_t chunk_count() const { return chunks_.size(); }

 private:
  friend class PacketPtr;
  static constexpr std::size_t kChunkPackets = 64;

  Packet* acquire() {
    if (free_.empty()) {
      chunks_.push_back(std::make_unique<Packet[]>(kChunkPackets));
      Packet* base = chunks_.back().get();
      free_.reserve(chunks_.size() * kChunkPackets);
      for (std::size_t i = 0; i < kChunkPackets; ++i)
        free_.push_back(base + i);
      stats_.capacity += kChunkPackets;
      ++stats_.heap_allocs;
    } else {
      ++stats_.reuses;
    }
    Packet* p = free_.back();
    free_.pop_back();
    ++stats_.in_use;
    if (stats_.in_use > stats_.high_water) stats_.high_water = stats_.in_use;
    return p;
  }

  void release(Packet* p) {
    assert(stats_.in_use > 0);
    --stats_.in_use;
    free_.push_back(p);
  }

  std::vector<std::unique_ptr<Packet[]>> chunks_;
  std::vector<Packet*> free_;
  PoolStats stats_;
};

inline void PacketPtr::release() {
  if (p_ != nullptr) {
    pool_->release(p_);
    p_ = nullptr;
    pool_ = nullptr;
  }
}

}  // namespace jtp::core
