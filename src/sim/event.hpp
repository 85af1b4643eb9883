#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

/// Pooled-event building blocks for the simulation kernel.
///
/// `EventFn` is the kernel's callback type: a move-only, type-erased
/// callable with 56 bytes of inline capture storage plus one pointer to its
/// operations, one 64-B cache line that fills an event-slab slot. Every
/// hot-path event (network delivery, execution completion) and every
/// per-receiver timer (the PNA's guarded timers, a churn dwell) fits, so
/// scheduling performs zero heap allocations in the common case. Larger or
/// throwing-move callables fall back to the heap transparently.
namespace oddci::sim {

/// Handle to a pending one-shot event. Encodes `(generation << 32 | slot)`
/// into the kernel's slab of pooled event slots; a stale handle (already
/// executed or cancelled, possibly with the slot since reused) is detected
/// by the generation tag and rejected in O(1).
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

/// Priorities for same-timestamp ordering. Network deliveries run before
/// timers so state observed by timers is up to date. `kGlobal` is a lone
/// shard's global task (ShardedSimulation::post_global): it runs at the
/// start of its instant, as a global task at a window boundary runs before
/// that boundary's events under several shards.
enum class EventPriority : int {
  kGlobal = -50,
  kDelivery = 0,
  kDefault = 10,
  kTimer = 20,
};

/// Event-slab callback. Sized so `[this, token, std::function]`
/// (8 + 8 + 32 bytes) and every kernel-internal capture stay inline.
class EventFn {
 public:
  /// Inline capture capacity.
  static constexpr std::size_t kInlineSize = 56;

  /// Whether a callable of type F is stored inline (no heap allocation).
  template <typename F>
  static constexpr bool kStoresInline =
      sizeof(std::decay_t<F>) <= kInlineSize &&
      alignof(std::decay_t<F>) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<std::decay_t<F>>;

  EventFn() = default;
  EventFn(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using D = std::decay_t<F>;
    if constexpr (kStoresInline<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  EventFn(EventFn&& other) noexcept { adopt(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      adopt(other);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  void operator()() { ops_->invoke(storage_); }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    /// Move-construct into `dst` from `src` storage, destroying `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage);
  };

  template <typename D>
  static constexpr Ops kInlineOps = {
      [](void* s) { (*std::launder(reinterpret_cast<D*>(s)))(); },
      [](void* dst, void* src) noexcept {
        D* from = std::launder(reinterpret_cast<D*>(src));
        ::new (dst) D(std::move(*from));
        from->~D();
      },
      [](void* s) { std::launder(reinterpret_cast<D*>(s))->~D(); },
  };

  template <typename D>
  static constexpr Ops kHeapOps = {
      [](void* s) { (**std::launder(reinterpret_cast<D**>(s)))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) D*(*std::launder(reinterpret_cast<D**>(src)));
      },
      [](void* s) { delete *std::launder(reinterpret_cast<D**>(s)); },
  };

  void adopt(EventFn& other) noexcept {
    if (other.ops_ != nullptr) {
      ops_ = other.ops_;
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

static_assert(sizeof(EventFn) == 64, "EventFn fills one cache line");

}  // namespace oddci::sim
