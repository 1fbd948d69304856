// Small-buffer-optimized move-only callback for the event calendar.
//
// The engine's hot path schedules and fires hundreds of millions of events
// per wall-clock minute; a std::function per event means a heap allocation
// for any capture larger than the (implementation-defined, typically 16-byte)
// small-object buffer plus virtual dispatch through a copyable wrapper we
// never copy. InplaceCallback stores up to kInlineSize bytes of capture
// in-line (enough for the kernel's and device models' event lambdas — see
// tests/inplace_callback_test.cc) and falls back to the heap only for
// oversized captures, so steady-state scheduling performs zero allocations.

#ifndef SRC_SIM_INPLACE_CALLBACK_H_
#define SRC_SIM_INPLACE_CALLBACK_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace wdmlat::sim {

class InplaceCallback {
 public:
  // Sized for the engine's clients: kernel events capture {this, object*},
  // device models a handful of pointers/integers, and a
  // whole std::function (32 bytes on libstdc++) still fits, so forwarding
  // an existing std::function stays inline too.
  static constexpr std::size_t kInlineSize = 48;
  static constexpr std::size_t kInlineAlign = alignof(std::max_align_t);

  template <typename F>
  static constexpr bool kFitsInline = sizeof(std::decay_t<F>) <= kInlineSize &&
                                      alignof(std::decay_t<F>) <= kInlineAlign &&
                                      std::is_nothrow_move_constructible_v<std::decay_t<F>>;

  InplaceCallback() = default;
  InplaceCallback(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InplaceCallback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  InplaceCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    Construct(std::forward<F>(f));
  }

  // Destroy the current callable (if any) and construct `f` in place —
  // the zero-relocation path the engine uses to build a callback directly
  // inside its pool slot.
  template <typename F>
  void emplace(F&& f) {
    reset();
    if constexpr (std::is_same_v<std::decay_t<F>, InplaceCallback>) {
      MoveFrom(f);
    } else {
      Construct(std::forward<F>(f));
    }
  }

  InplaceCallback(InplaceCallback&& other) noexcept { MoveFrom(other); }
  InplaceCallback& operator=(InplaceCallback&& other) noexcept {
    if (this != &other) {
      reset();
      MoveFrom(other);
    }
    return *this;
  }
  InplaceCallback& operator=(std::nullptr_t) {
    reset();
    return *this;
  }
  InplaceCallback(const InplaceCallback&) = delete;
  InplaceCallback& operator=(const InplaceCallback&) = delete;
  ~InplaceCallback() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  // Destroy the held callable (releasing captured state) without invoking it.
  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  // Precondition: non-empty. The callable stays held (and may be invoked
  // again); callers that need captured state released move the callback out
  // first or reset() afterwards.
  void operator()() { ops_->invoke(storage_); }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    // Move-construct `dst` from `src`, then destroy `src`.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* storage);
  };

  template <typename Fn>
  struct InlineOps {
    static void Invoke(void* storage) { (*std::launder(reinterpret_cast<Fn*>(storage)))(); }
    static void Relocate(void* dst, void* src) {
      Fn* from = std::launder(reinterpret_cast<Fn*>(src));
      ::new (dst) Fn(std::move(*from));
      from->~Fn();
    }
    static void Destroy(void* storage) { std::launder(reinterpret_cast<Fn*>(storage))->~Fn(); }
    static constexpr Ops kOps{&Invoke, &Relocate, &Destroy};
  };

  template <typename Fn>
  struct HeapOps {
    static Fn* Ptr(void* storage) { return *reinterpret_cast<Fn**>(storage); }
    static void Invoke(void* storage) { (*Ptr(storage))(); }
    static void Relocate(void* dst, void* src) {
      *reinterpret_cast<Fn**>(dst) = Ptr(src);  // pointer steal; src is dropped
    }
    static void Destroy(void* storage) { delete Ptr(storage); }
    static constexpr Ops kOps{&Invoke, &Relocate, &Destroy};
  };

  template <typename F>
  void Construct(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (kFitsInline<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &InlineOps<Fn>::kOps;
    } else {
      *reinterpret_cast<Fn**>(storage_) = new Fn(std::forward<F>(f));
      ops_ = &HeapOps<Fn>::kOps;
    }
  }

  void MoveFrom(InplaceCallback& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(kInlineAlign) unsigned char storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace wdmlat::sim

#endif  // SRC_SIM_INPLACE_CALLBACK_H_
