#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event.hpp"
#include "sim/slot_pool.hpp"
#include "sim/time.hpp"

/// Deterministic discrete-event simulation kernel.
///
/// Events are `(time, priority, sequence)`-ordered: ties at equal time break
/// first on explicit priority (lower runs first), then on scheduling order,
/// so a fixed seed replays the exact same trajectory. Every event follows
/// this one contract, timers and `PeriodicTask` ticks included; only work
/// that a component batches behind one event of its own (a heartbeat
/// cadence serve, a broadcast audience's queues) orders itself inside it.
///
/// Engineered for million-node populations: callbacks live in a chunked
/// pool of 64-byte `EventFn` slots (inline storage, no heap allocation for
/// common captures, growth without copies), the heap holds 24-byte entries,
/// and `cancel()` is an O(1) generation check with lazy heap deletion. The
/// one timer stream that grows with the population, the heartbeats, waits
/// in a per-shard `Cadence` (cadence.hpp) behind one event.
namespace oddci::obs {
class KernelProfiler;
}  // namespace oddci::obs

namespace oddci::sim {

class Simulation {
 public:
  using Callback = EventFn;

  Simulation() = default;
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

  /// schedule_in at EventPriority::kTimer. The kernel's timer probe
  /// (`sim.timer_event_ns`, bench/oddci_bench/probes.cpp) measures the
  /// kernel under this name, so it stays; components pass their priority
  /// to schedule_at/schedule_in instead.
  EventId schedule_timer_in(SimTime delay, Callback cb) {
    return schedule_in(delay, std::move(cb), EventPriority::kTimer);
  }

  /// Cancel a pending event. O(1). Returns false if it already ran, was
  /// already cancelled, or never existed. The heap entry stays behind as a
  /// tombstone until its time surfaces (24 B; see DESIGN.md §6).
  bool cancel(EventId id);

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
  /// SimTime::max() when the heap is empty.
  [[nodiscard]] SimTime next_event_time();

  /// Execute the single next event. Returns false if the queue is empty.
  bool step();

  /// Request the current run()/run_until() to return after the current
  /// event completes.
  void stop() { stopping_ = true; }

  /// No pending events.
  [[nodiscard]] bool empty() const { return live_events_ == 0; }
  [[nodiscard]] std::size_t pending_events() const { return live_events_; }

  [[nodiscard]] std::uint64_t events_executed() const {
    return events_executed_;
  }
  [[nodiscard]] std::uint64_t events_scheduled() const { return next_seq_; }
  [[nodiscard]] std::uint64_t events_cancelled() const {
    return events_cancelled_;
  }
  /// Heap blocks holding event slots (SlotPool chunks of 4,096): with the
  /// heap's buffer, the kernel's only allocations that grow with the
  /// pending events. Chunks are not handed back, so this reads the
  /// high-water mark.
  [[nodiscard]] std::size_t event_chunks() const { return slots_.chunks(); }

  /// Attach a wall-clock profiler: run()/run_until()/run_window() bodies
  /// are attributed to `shard`'s execute phase (two steady_clock reads per
  /// call — nothing per event). Null detaches. The profiler never touches
  /// sim state, so a seeded trajectory is identical with or without it.
  void set_profiler(obs::KernelProfiler* profiler, std::uint32_t shard) {
    profiler_ = profiler;
    profiler_shard_ = shard;
  }

 private:
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
};

/// A repeating timer with a fixed period: an owning RAII handle over one
/// kernel event at EventPriority::kTimer that re-arms itself after each
/// tick, at `deadline += period` (exact arithmetic). Destruction or
/// cancel() stops future ticks; moves transfer ownership, so cancelling a
/// moved-from handle is a no-op and never disturbs the live timer.
///
/// The callback and the deadline live in a block shared by the handle and
/// the pending tick. A running tick holds the block, so its callback may
/// cancel, move-assign over or destroy its own handle: the tick then finds
/// the block cancelled, does not re-arm, and frees it on return.
class PeriodicTask {
 public:
  PeriodicTask() = default;

  /// Starts ticking at absolute time `start` and then every `period`.
  template <typename F>
  PeriodicTask(Simulation& simulation, SimTime start, SimTime period,
               F&& on_tick)
      : state_(std::make_shared<State>(simulation, start, positive(period),
                                       std::forward<F>(on_tick))) {
    arm(state_);
  }

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;
  PeriodicTask(PeriodicTask&& other) noexcept = default;
  PeriodicTask& operator=(PeriodicTask&& other) noexcept;
  ~PeriodicTask() { cancel(); }

  void cancel();
  /// Until cancel() (also while its own tick runs).
  [[nodiscard]] bool active() const { return state_ != nullptr; }

 private:
  struct State {
    State(Simulation& sim, SimTime start, SimTime every, EventFn fn)
        : simulation(sim), deadline(start), period(every),
          on_tick(std::move(fn)) {}

    Simulation& simulation;
    SimTime deadline;
    SimTime period;
    EventFn on_tick;
    EventId pending = kInvalidEvent;  ///< the next tick's event
    bool cancelled = false;
  };

  /// `period`, or std::invalid_argument unless it is positive.
  static SimTime positive(SimTime period);
  /// Schedule the tick at `state->deadline`.
  static void arm(std::shared_ptr<State> state);

  std::shared_ptr<State> state_;
};

}  // namespace oddci::sim
