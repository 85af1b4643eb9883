#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

/// Pooled-event building blocks for the simulation kernel.
///
/// `BasicEventFn<N>` is the kernel's callback type: a move-only,
/// type-erased callable with inline storage for captures up to N bytes,
/// plus one pointer to its operations. Two sizes exist. `EventFn` (56 B
/// inline, one 64-B cache line) fills an event-slab slot: every hot-path
/// event (network delivery, carousel acquisition, execution completion)
/// fits, so scheduling performs zero heap allocations in the common case.
/// `TimerFn` (24 B inline, 32 B in all) leaves a 64-B wheel timer room for
/// its metadata; the per-receiver timers (heartbeat, guarded PNA timers,
/// announcement fan-out) fit it. Larger or throwing-move callables fall
/// back to the heap transparently.
namespace oddci::sim {

/// Handle to a pending one-shot event. Encodes `(generation << 32 | slot)`
/// into the kernel's slab of pooled event slots; a stale handle (already
/// executed or cancelled, possibly with the slot since reused) is detected
/// by the generation tag and rejected in O(1).
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

/// Priorities for same-timestamp ordering. Network deliveries run before
/// periodic timers so state observed by timers is up to date. `kInternal`
/// is reserved for kernel bookkeeping (timer-wheel cascade events) which
/// must run before any user event at the same timestamp. `kGlobal` is a
/// lone shard's global task (ShardedSimulation::post_global): it runs at
/// the start of its instant, as a global task at a window boundary runs
/// before that boundary's events under several shards.
enum class EventPriority : int {
  kInternal = -100,
  kGlobal = -50,
  kDelivery = 0,
  kDefault = 10,
  kTimer = 20,
};

template <std::size_t kInline>
class BasicEventFn;

template <typename F>
inline constexpr bool kIsBasicEventFn = false;
template <std::size_t N>
inline constexpr bool kIsBasicEventFn<BasicEventFn<N>> = true;

template <std::size_t kInline>
class BasicEventFn {
 public:
  /// Inline capture capacity.
  static constexpr std::size_t kInlineSize = kInline;

  /// Whether a callable of type F is stored inline (no heap allocation).
  template <typename F>
  static constexpr bool kStoresInline =
      sizeof(std::decay_t<F>) <= kInlineSize &&
      alignof(std::decay_t<F>) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<std::decay_t<F>>;

  BasicEventFn() = default;
  BasicEventFn(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, BasicEventFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  BasicEventFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using D = std::decay_t<F>;
    if constexpr (kIsBasicEventFn<D>) {
      if (!f) return;  // another size's empty callback stays empty
    }
    if constexpr (kStoresInline<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  BasicEventFn(BasicEventFn&& other) noexcept { adopt(other); }
  BasicEventFn& operator=(BasicEventFn&& other) noexcept {
    if (this != &other) {
      reset();
      adopt(other);
    }
    return *this;
  }
  BasicEventFn(const BasicEventFn&) = delete;
  BasicEventFn& operator=(const BasicEventFn&) = delete;
  ~BasicEventFn() { reset(); }

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

  void adopt(BasicEventFn& other) noexcept {
    if (other.ops_ != nullptr) {
      ops_ = other.ops_;
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

/// Event-slab callback. Sized so `[this, token, std::function]`
/// (8 + 8 + 32 bytes) and every kernel-internal capture stay inline.
using EventFn = BasicEventFn<56>;
/// Timer-wheel callback: `[this, id, generation]` and
/// `[context, generation, [this]]` (three words) stay inline.
using TimerFn = BasicEventFn<24>;

static_assert(sizeof(EventFn) == 64, "EventFn fills one cache line");
static_assert(sizeof(TimerFn) == 32, "TimerFn is half a cache line");

}  // namespace oddci::sim
