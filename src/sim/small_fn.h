// SmallFn: a move-only, type-erased void() callable with inline storage,
// built for the event hot path.
//
// A std::function<void()>'s small-object buffer (16 bytes in libstdc++)
// is too small for the delivery closures, so an event loop built on it
// heap-allocates once per event. SmallFn stores up to kInlineBytes of
// capture inline — sized so every in-tree closure (the largest is the
// MAC delivery closure: this + a pooled packet handle + two node ids)
// fits — and rejects a larger callable at compile time, so building,
// moving and destroying a SmallFn never allocates.
#pragma once

#include <cassert>
#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace jtp::sim {

class SmallFn {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  SmallFn() noexcept {}

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, SmallFn>>>
  explicit SmallFn(F&& f) {
    static_assert(std::is_invocable_r_v<void, D&>,
                  "SmallFn callable must be invocable as void()");
    static_assert(sizeof(D) <= kInlineBytes,
                  "SmallFn callable capture exceeds kInlineBytes");
    static_assert(alignof(D) <= alignof(std::max_align_t),
                  "over-aligned captures are not supported");
    static_assert(std::is_nothrow_move_constructible_v<D>,
                  "SmallFn callable must be nothrow-movable");
    ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
    vt_ = &vtable<D>;
  }

  SmallFn(SmallFn&& o) noexcept { steal(o); }
  SmallFn& operator=(SmallFn&& o) noexcept {
    if (this != &o) {
      reset();
      steal(o);
    }
    return *this;
  }
  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;
  ~SmallFn() { reset(); }

  explicit operator bool() const { return vt_ != nullptr; }

  void operator()() {
    assert(vt_ != nullptr);
    vt_->invoke(buf_);
  }

  // Destroys the held callable and leaves the SmallFn empty.
  void reset() noexcept {
    if (vt_ == nullptr) return;
    vt_->destroy(buf_);
    vt_ = nullptr;
  }

 private:
  struct VTable {
    void (*invoke)(void*);
    // Move-construct the callable from `src` storage into `dst` storage
    // and destroy the source.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
  };

  template <typename D>
  static constexpr VTable vtable = {
      [](void* p) { (*static_cast<D*>(p))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) D(std::move(*static_cast<D*>(src)));
        static_cast<D*>(src)->~D();
      },
      [](void* p) noexcept { static_cast<D*>(p)->~D(); }};

  void steal(SmallFn& o) noexcept {
    vt_ = o.vt_;
    if (vt_ == nullptr) return;
    vt_->relocate(buf_, o.buf_);
    o.vt_ = nullptr;
  }

  const VTable* vt_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
};

}  // namespace jtp::sim
