#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/event.hpp"
#include "sim/time.hpp"

/// Same-period timer set: the heartbeat cadence of one shard's agents.
///
/// A kernel event per beat would keep one heap entry and one 64-B event
/// slot per agent pending at all times. A stream of timers that share one
/// period needs no heap: a beat fired at t and re-queued at t + period
/// sorts after every beat already queued for that period, so a FIFO keeps
/// the stream in deadline order. The cadence holds
///
///   - one FIFO per distinct period, of 16-byte (deadline, slot,
///     generation) entries;
///   - a small min-heap for first beats, whose deadlines (a phase draw)
///     may fall anywhere;
///   - a table of 16-byte handle slots (target, generation, lane). The
///     generation is odd while the slot is armed, so a cancel is O(1) and
///     lazy: the cancelled beat's entry is dropped when it reaches the
///     head of its queue;
///   - one kernel event, at EventPriority::kTimer, at the earliest head.
///
/// The event serves every entry due at its instant: it calls the
/// cadence's fire function on the entry's target and re-queues the entry
/// at deadline + period. Since a FIFO knows its order ahead of time, each
/// serve prefetches the slots and targets of the next few entries of the
/// lane, so their cache misses overlap the current beat. Firing times are
/// exact to the microsecond.
///
/// Same-instant order: due first beats run before due steady beats, first
/// beats by slot index; lanes run in the order their periods were first
/// armed, and within a lane beats keep the order in which they ran one
/// period earlier. A beat armed for the current instant while the event
/// serves runs in the same serve. All of them run inside one kernel event,
/// so a beat's zero-delay kernel events run after every beat of the
/// instant.
namespace oddci::sim {

class Simulation;

class Cadence {
 public:
  /// What a beat does with its target. One function serves the whole
  /// cadence, so an entry carries no callback of its own.
  using Fire = void (*)(void* target);
  /// Slot index + 1 of one arming (kNone: not armed).
  using Handle = std::uint32_t;
  static constexpr Handle kNone = 0;

  /// `simulation` must outlive the cadence.
  Cadence(Simulation& simulation, Fire fire_fn);
  ~Cadence();
  Cadence(const Cadence&) = delete;
  Cadence& operator=(const Cadence&) = delete;

  /// Fire `target` at `first` and then every `period`. Throws
  /// std::invalid_argument on a null target, a first deadline in the past
  /// or a period that is not positive.
  Handle arm(void* target, SimTime first, SimTime period);

  /// Disarm: the target is not fired again, also when the cancel comes
  /// from within its own fire. O(1). Returns false for kNone and for a
  /// handle whose slot is free. A handle names one arming until it is
  /// cancelled; a later arm() may reuse its slot, so the owner drops a
  /// handle once it has cancelled it.
  bool cancel(Handle handle);

  /// Period of an armed handle.
  [[nodiscard]] SimTime period(Handle handle) const {
    return lanes_[slots_[handle - 1].lane].period;
  }
  /// Instant of the pending serve, SimTime::max() when none is pending
  /// (and while a serve runs). Beats due at that instant have not fired.
  [[nodiscard]] SimTime next_serve() const { return event_at_; }
  /// Armed handles.
  [[nodiscard]] std::size_t armed() const { return armed_; }
  [[nodiscard]] Fire fire() const { return fire_; }
  [[nodiscard]] const Simulation& simulation() const { return simulation_; }

 private:
  struct Entry {
    SimTime deadline;
    std::uint32_t slot;
    std::uint32_t generation;
  };
  static_assert(sizeof(Entry) == 16, "a queued beat is two words");

  struct Slot {
    void* target = nullptr;
    std::uint32_t generation = 0;  ///< odd while armed
    std::uint32_t lane = 0;        ///< free: the next free slot
  };
  static_assert(sizeof(Slot) == 16, "a handle slot is two words");

  /// Ring of entries in deadline order; its capacity doubles when full.
  class Fifo {
   public:
    [[nodiscard]] bool empty() const { return size_ == 0; }
    [[nodiscard]] std::size_t size() const { return size_; }
    /// The entry `ahead` places behind the front (ahead < size()).
    [[nodiscard]] const Entry& at(std::size_t ahead) const {
      return ring_[(head_ + ahead) & (ring_.size() - 1)];
    }
    void pop() {
      head_ = (head_ + 1) & (ring_.size() - 1);
      --size_;
    }
    void push(const Entry& entry);
    void clear() { head_ = size_ = 0; }

   private:
    std::vector<Entry> ring_;  ///< power-of-two size
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };

  struct Lane {
    SimTime period;
    Fifo queue;
  };

  /// earliest() results besides a lane index.
  static constexpr std::size_t kFirstBeats = SIZE_MAX - 1;
  static constexpr std::size_t kDrained = SIZE_MAX;
  /// Prefetch distance, in entries of the lane being served.
  static constexpr std::size_t kAhead = 8;
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  [[nodiscard]] bool stale(const Entry& entry) const {
    return slots_[entry.slot].generation != entry.generation;
  }
  [[nodiscard]] const Entry& head(std::size_t source) const {
    return source == kFirstBeats ? first_.front() : lanes_[source].queue.at(0);
  }
  /// Drop stale heads, then name the queue whose head is due first:
  /// kFirstBeats, a lane index, or kDrained.
  std::size_t earliest();
  void pop(std::size_t source);
  void push_first(const Entry& entry);

  /// Serve every entry due now, then move the event to the next head.
  void serve();
  void schedule(SimTime at);

  Simulation& simulation_;
  Fire fire_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  std::size_t armed_ = 0;
  /// First beats, a min-heap on (deadline, slot). Released when drained.
  std::vector<Entry> first_;
  std::vector<Lane> lanes_;

  EventId event_ = kInvalidEvent;
  SimTime event_at_ = SimTime::max();
  bool serving_ = false;
};

}  // namespace oddci::sim
