#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/event.hpp"
#include "sim/slot_pool.hpp"
#include "sim/time.hpp"

/// Hierarchical timer wheel for recurring and far-future work.
///
/// The kernel's binary heap is ideal for the near-future delivery hot path
/// but pays O(log n) per operation and one heap entry per pending timer.
/// With a million receivers heartbeating every 30 s, that is a million
/// resident heap entries churned continuously. The wheel instead buckets
/// timers by expiry tick across `kLevels` levels of 64 slots each (tick
/// quantum 1.024 ms; level l spans 64^(l+1) ticks), giving O(1) insert,
/// cancel, and periodic re-arm.
///
/// Exactness and determinism are preserved by *promotion*: the wheel arms
/// a single kernel event (EventPriority::kInternal) at the next occupied
/// tick boundary; when it fires, due buckets cascade down and level-0
/// timers are promoted onto the main event heap at their exact deadline
/// with their configured priority. Firing times are therefore exact to the
/// microsecond, and a fixed seed replays the identical trajectory. Timers
/// that expire at the same timestamp run in a deterministic but
/// unspecified order relative to each other (bucket cascade order, not
/// scheduling order) — callers must not rely on cross-timer tie-breaks.
namespace oddci::sim {

class Simulation;

/// Generation-tagged handle, same encoding scheme as EventId.
using TimerId = std::uint64_t;
inline constexpr TimerId kInvalidTimer = 0;

class TimerWheel {
 public:
  explicit TimerWheel(Simulation& simulation);

  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  /// Arm a timer for absolute time `deadline` (must be >= now()). A
  /// positive `period` makes the timer re-arm itself every `period` after
  /// each expiry (first expiry at `deadline`); zero makes it one-shot.
  /// `fn` is built in place in the timer's slot: a capture of up to 24
  /// bytes (TimerFn) allocates nothing.
  template <typename F>
  TimerId schedule_at(SimTime deadline, F&& fn,
                      SimTime period = SimTime::zero(),
                      EventPriority priority = EventPriority::kTimer) {
    check_schedule(deadline, period, priority);
    return arm(timers_.emplace(std::forward<F>(fn)), deadline, period,
               priority);
  }

  /// Arm a timer `delay` from now (must be >= 0).
  template <typename F>
  TimerId schedule_in(SimTime delay, F&& fn,
                      SimTime period = SimTime::zero(),
                      EventPriority priority = EventPriority::kTimer) {
    return schedule_at(deadline_in(delay), std::forward<F>(fn), period,
                       priority);
  }

  /// Disarm. O(1). Returns false if the timer already expired (one-shot),
  /// was already cancelled, or never existed. Safe to call from within the
  /// timer's own callback (stops a periodic timer's future expiries). A
  /// bucketed timer is cancelled lazily: its callback is released now, its
  /// slot when its bucket is next walked.
  bool cancel(TimerId id);

  /// True while armed (including while its callback is executing).
  [[nodiscard]] bool active(TimerId id) const;

  /// Number of armed timers (bucketed + promoted + firing); lazily
  /// cancelled timers awaiting reclaim are not counted.
  [[nodiscard]] std::size_t active_timers() const { return active_count_; }

  /// Heap blocks holding the timers (SlotPool chunks).
  [[nodiscard]] std::size_t slab_chunks() const { return timers_.chunks(); }

 private:
  /// 2^10 us = 1.024 ms per tick.
  static constexpr int kTickBits = 10;
  static constexpr int kSlotBits = 6;
  static constexpr std::uint64_t kSlots = 1ull << kSlotBits;
  static constexpr std::uint64_t kSlotMask = kSlots - 1;
  /// 8 levels span 64^8 ticks (~9,000 simulated years); anything beyond is
  /// clamped into the top level and re-cascades.
  static constexpr int kLevels = 8;
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  enum class State : std::uint8_t {
    kQueued,     ///< linked into a wheel bucket
    kPromoted,   ///< handed to the main event heap at its exact deadline
    kFiring,     ///< callback currently executing
    kCancelled,  ///< cancelled from within its own callback
    kDropped,    ///< cancelled while bucketed; reclaimed by the bucket walk
  };

  /// One 64-byte cache line per timer: the 32-byte callback, then the
  /// metadata a bucket walk reads. The slot's generation lives in the
  /// pool's side array.
  struct alignas(64) Timer {
    template <typename F>
    explicit Timer(F&& f) : fn(std::forward<F>(f)) {}

    TimerFn fn;
    SimTime deadline;
    SimTime period;
    /// Event slot of the heap event while kPromoted. That event is pending
    /// by construction (firing moves the timer to kFiring, cancelling
    /// frees it), so its generation is implied.
    std::uint32_t promoted = 0;
    std::uint32_t next = kNil;  ///< bucket list link
    std::uint8_t level = 0;
    std::uint8_t slot = 0;
    std::int8_t priority = 0;
    State state = State::kQueued;
  };
  static_assert(sizeof(Timer) == 64, "Timer fills one cache line");

  void check_schedule(SimTime deadline, SimTime period,
                      EventPriority priority) const;
  [[nodiscard]] SimTime deadline_in(SimTime delay) const;
  /// Validate and bucket the freshly emplaced timer `index`.
  TimerId arm(std::uint32_t index, SimTime deadline, SimTime period,
              EventPriority priority);

  [[nodiscard]] std::uint64_t now_tick() const;
  [[nodiscard]] static std::uint64_t tick_of(SimTime t) {
    return static_cast<std::uint64_t>(t.micros()) >> kTickBits;
  }

  /// Free an armed timer's slot.
  void release(std::uint32_t index);

  /// Bucket (or promote) timer `index` relative to the current tick.
  void place(std::uint32_t index, std::uint64_t current_tick);
  void enqueue(std::uint32_t index, int level, std::uint32_t slot);
  /// Empty bucket (level, slot) and return its list head.
  std::uint32_t detach(int level, std::uint32_t slot);
  void promote(std::uint32_t index);

  /// Fire a promoted timer: run the callback, then re-arm (periodic) or
  /// release (one-shot / cancelled mid-callback).
  void fire(std::uint32_t index, std::uint32_t generation);

  /// Process every bucket due at `tick`, then re-arm the cascade event.
  void advance(std::uint64_t tick);

  /// Earliest tick at which a bucket needs promoting or cascading, or
  /// UINT64_MAX when the wheel is empty.
  [[nodiscard]] std::uint64_t next_due_tick(std::uint64_t current_tick) const;

  /// (Re-)arm the kernel cascade event for the next due tick.
  void rearm(std::uint64_t current_tick);
  void rearm_at(std::uint64_t due);

  Simulation& simulation_;
  SlotPool<Timer> timers_;
  std::size_t active_count_ = 0;

  std::uint32_t head_[kLevels][kSlots];
  std::uint32_t tail_[kLevels][kSlots];
  /// Armed (not dropped) timers per bucket. A bucket is occupied exactly
  /// while this is non-zero, so lazily cancelled timers never move the
  /// cascade schedule.
  std::uint32_t armed_[kLevels][kSlots] = {};
  std::uint64_t occupied_[kLevels] = {};

  EventId cascade_event_ = kInvalidEvent;
  std::uint64_t cascade_tick_ = UINT64_MAX;
  bool advancing_ = false;
};

}  // namespace oddci::sim
