#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event.hpp"
#include "sim/slot_pool.hpp"
#include "sim/time.hpp"
#include "sim/timer_wheel.hpp"

/// Deterministic discrete-event simulation kernel.
///
/// Events are `(time, priority, sequence)`-ordered: ties at equal time break
/// first on explicit priority (lower runs first), then on scheduling order,
/// so a fixed seed replays the exact same trajectory.
///
/// Engineered for million-node populations: callbacks live in a chunked
/// pool of 64-byte `EventFn` slots (inline storage, no heap allocation for
/// common captures, growth without copies), the heap holds 24-byte entries,
/// `cancel()` is an O(1) generation check with lazy heap deletion, and
/// recurring work (heartbeats, monitor loops, churn arrivals) goes through
/// a hierarchical timer wheel instead of churning the heap. See
/// timer_wheel.hpp for the wheel's ordering caveat.
namespace oddci::obs {
class KernelProfiler;
}  // namespace oddci::obs

namespace oddci::sim {

class Simulation {
 public:
  using Callback = EventFn;

  Simulation();
  ~Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule `cb` at absolute time `t` (must be >= now()).
  /// Throws std::invalid_argument on scheduling into the past or on a
  /// priority outside [-128, 127].
  EventId schedule_at(SimTime t, Callback cb,
                      EventPriority priority = EventPriority::kDefault);

  /// Schedule `cb` after `delay` (must be >= 0).
  EventId schedule_in(SimTime delay, Callback cb,
                      EventPriority priority = EventPriority::kDefault);

  /// Cancel a pending event. O(1). Returns false if it already ran, was
  /// already cancelled, or never existed.
  bool cancel(EventId id);

  /// One-shot or periodic timer via the hierarchical wheel: O(1) insert
  /// and re-arm regardless of population size. Use for delays of seconds
  /// and beyond or for recurring work; exact-time deliveries on the hot
  /// path should stay on schedule_at/schedule_in. `fn` is built in place
  /// in the timer (TimerFn: up to 24 bytes of capture stay inline).
  template <typename F>
  TimerId schedule_timer_at(SimTime deadline, F&& fn,
                            SimTime period = SimTime::zero(),
                            EventPriority priority = EventPriority::kTimer) {
    return wheel_->schedule_at(deadline, std::forward<F>(fn), period,
                               priority);
  }
  template <typename F>
  TimerId schedule_timer_in(SimTime delay, F&& fn,
                            SimTime period = SimTime::zero(),
                            EventPriority priority = EventPriority::kTimer) {
    return wheel_->schedule_in(delay, std::forward<F>(fn), period,
                               priority);
  }
  bool cancel_timer(TimerId id) { return wheel_->cancel(id); }
  [[nodiscard]] bool timer_active(TimerId id) const {
    return wheel_->active(id);
  }
  [[nodiscard]] TimerWheel& timers() { return *wheel_; }

  /// Run until the event queue drains or stop() is called.
  void run();

  /// Run until simulated time reaches `t` (events at exactly `t` run).
  /// The clock is left at `t` even if the queue drains earlier.
  void run_until(SimTime t);

  /// Conservative-window variant for the sharded kernel: execute events
  /// strictly *before* `end` and leave the clock at `end`. Events at
  /// exactly `end` belong to the next window (they may be ordered against
  /// cross-shard mail drained at the `end` boundary). stop() breaks out
  /// with the clock at the last executed event.
  void run_window(SimTime end);

  /// Time of the earliest pending event (tombstones skimmed), or
  /// SimTime::max() when the heap is empty. Armed wheel timers are covered
  /// by their cascade event, so this is a safe lower bound on the next
  /// thing this kernel will do.
  [[nodiscard]] SimTime next_event_time();

  /// Execute the single next event. Returns false if the queue is empty.
  bool step();

  /// Request the current run()/run_until() to return after the current
  /// event completes.
  void stop() { stopping_ = true; }

  /// No pending heap events. Armed wheel timers keep the kernel non-empty
  /// through their cascade event.
  [[nodiscard]] bool empty() const { return live_events_ == 0; }
  [[nodiscard]] std::size_t pending_events() const { return live_events_; }

  [[nodiscard]] std::uint64_t events_executed() const {
    return events_executed_;
  }
  [[nodiscard]] std::uint64_t events_scheduled() const { return next_seq_; }
  [[nodiscard]] std::uint64_t events_cancelled() const {
    return events_cancelled_;
  }
  /// Heap blocks holding event slots and timer slots (SlotPool chunks of
  /// 4,096): the kernel's only allocations that grow with the population.
  /// Neither is handed back, so each reads the high-water mark.
  [[nodiscard]] std::size_t event_chunks() const { return slots_.chunks(); }
  [[nodiscard]] std::size_t timer_chunks() const {
    return wheel_->slab_chunks();
  }

  /// Attach a wall-clock profiler: run()/run_until()/run_window() bodies
  /// are attributed to `shard`'s execute phase (two steady_clock reads per
  /// call — nothing per event). Null detaches. The profiler never touches
  /// sim state, so a seeded trajectory is identical with or without it.
  void set_profiler(obs::KernelProfiler* profiler, std::uint32_t shard) {
    profiler_ = profiler;
    profiler_shard_ = shard;
  }

 private:
  friend class TimerWheel;

  /// Pooled callback slot: the 64-byte callback alone. Its generation (odd
  /// while pending) lives in the pool's dense side array, so skimming a
  /// tombstone reads 4 bytes, not the slot.
  using EventSlot = EventFn;
  static_assert(sizeof(EventSlot) == 64, "EventSlot fills one cache line");

  /// Heap entry, 24 bytes. `key` packs the priority above the scheduling
  /// sequence, (priority + 128) << 56 | seq, so ordering by (time, key) is
  /// ordering by (time, priority, seq). Cancelled events leave a tombstone
  /// that is dropped lazily when it reaches the top (its slot generation no
  /// longer matches).
  struct Entry {
    SimTime time;
    std::uint64_t key;
    std::uint32_t slot;
    std::uint32_t generation;

    // std::priority_queue is a max-heap, so the comparator is reversed:
    // "greater" entries pop later.
    bool operator<(const Entry& other) const {
      if (time != other.time) return time > other.time;
      return key > other.key;
    }
  };
  static_assert(sizeof(Entry) == 24, "heap entry is three words");

  static constexpr int kSeqBits = 56;

  [[nodiscard]] bool entry_live(const Entry& e) const {
    return slots_.generation(e.slot) == e.generation;
  }

  /// Drops tombstones at the heap top; returns false when the heap is
  /// drained. On true, the top entry is live.
  bool skim_top();

  /// Pop the (live) top entry, move its callback out, and free the slot.
  EventFn take_top(Entry& out);

  /// Cancel the pending event in `slot` (a promoted wheel timer keeps only
  /// the slot of its heap event, which is pending by construction).
  void cancel_slot(std::uint32_t slot) { cancel(slots_.id(slot)); }

  SimTime now_;
  bool stopping_ = false;
  obs::KernelProfiler* profiler_ = nullptr;
  std::uint32_t profiler_shard_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_executed_ = 0;
  std::uint64_t events_cancelled_ = 0;
  std::size_t live_events_ = 0;

  std::vector<Entry> heap_;
  SlotPool<EventSlot> slots_;

  std::unique_ptr<TimerWheel> wheel_;
};

/// A repeating timer with a fixed period, implemented as an owning RAII
/// handle over a wheel timer. Destruction or cancel() stops future ticks;
/// moves transfer ownership, so cancelling a moved-from handle is a no-op
/// and never disturbs the live timer.
class PeriodicTask {
 public:
  PeriodicTask() = default;

  /// Starts ticking at absolute time `start` and then every `period`.
  /// The callback runs with EventPriority::kTimer and is built in place in
  /// the wheel timer.
  template <typename F>
  PeriodicTask(Simulation& simulation, SimTime start, SimTime period,
               F&& on_tick)
      : simulation_(&simulation),
        id_(simulation.schedule_timer_at(start, std::forward<F>(on_tick),
                                         positive(period),
                                         EventPriority::kTimer)) {}

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;
  PeriodicTask(PeriodicTask&& other) noexcept;
  PeriodicTask& operator=(PeriodicTask&& other) noexcept;
  ~PeriodicTask();

  void cancel();
  [[nodiscard]] bool active() const;

 private:
  /// `period`, or std::invalid_argument unless it is positive.
  static SimTime positive(SimTime period);

  Simulation* simulation_ = nullptr;
  TimerId id_ = kInvalidTimer;
};

}  // namespace oddci::sim
