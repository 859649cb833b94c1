#pragma once

// A move-only `void()` callable with a small-buffer optimization.
//
// The event kernel stores one callback per scheduled event; with
// std::function every capture beyond two pointers costs a heap allocation
// on the hottest path in the simulator. UniqueFunction keeps captures up
// to kInlineBytes in-place (enough for every kernel-internal callback:
// periodic ticks, transport timers, relay forwards) and falls back to the
// heap only for oversized captures. Move-only: event callbacks are
// consumed exactly once, so copyability buys nothing but restrictions on
// what can be captured.

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace msim {

class UniqueFunction {
 public:
  /// Sized for the largest hot-path capture (relay forward: this + server +
  /// user id + timestamp + shared message ref) with headroom.
  static constexpr std::size_t kInlineBytes = 64;

  UniqueFunction() = default;
  UniqueFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, UniqueFunction> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  UniqueFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      invoke_ = [](void* p) { (*static_cast<Fn*>(p))(); };
      manage_ = [](Op op, void* self, void* other) {
        switch (op) {
          case Op::Destroy:
            static_cast<Fn*>(self)->~Fn();
            break;
          case Op::MoveTo:
            ::new (other) Fn(std::move(*static_cast<Fn*>(self)));
            static_cast<Fn*>(self)->~Fn();
            break;
        }
      };
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      invoke_ = [](void* p) { (**static_cast<Fn**>(p))(); };
      manage_ = [](Op op, void* self, void* other) {
        switch (op) {
          case Op::Destroy:
            delete *static_cast<Fn**>(self);
            break;
          case Op::MoveTo:
            ::new (other) Fn*(*static_cast<Fn**>(self));
            break;
        }
      };
    }
  }

  UniqueFunction(UniqueFunction&& other) noexcept { moveFrom(other); }

  UniqueFunction& operator=(UniqueFunction&& other) noexcept {
    if (this != &other) {
      reset();
      moveFrom(other);
    }
    return *this;
  }

  UniqueFunction& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  UniqueFunction(const UniqueFunction&) = delete;
  UniqueFunction& operator=(const UniqueFunction&) = delete;

  ~UniqueFunction() { reset(); }

  void operator()() { invoke_(buf_); }

  [[nodiscard]] explicit operator bool() const { return invoke_ != nullptr; }

  void reset() noexcept {
    if (manage_ != nullptr) manage_(Op::Destroy, buf_, nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

 private:
  enum class Op { Destroy, MoveTo };

  void moveFrom(UniqueFunction& other) noexcept {
    if (other.manage_ != nullptr) other.manage_(Op::MoveTo, other.buf_, buf_);
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes]{};
  void (*invoke_)(void*){nullptr};
  void (*manage_)(Op, void*, void*){nullptr};
};

}  // namespace msim
