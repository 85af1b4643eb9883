#include "sim/timer_wheel.hpp"

#include <bit>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "sim/simulation.hpp"

namespace oddci::sim {

namespace {

// Bucket lists chain timers scattered across a slab that far exceeds cache
// at million-timer populations; overlapping the next node's fetch with the
// current node's processing hides most of that latency.
inline void prefetch(const void* p) {
#if defined(__GNUC__)
  __builtin_prefetch(p);
#else
  (void)p;
#endif
}

}  // namespace

TimerWheel::TimerWheel(Simulation& simulation) : simulation_(simulation) {
  std::memset(head_, 0xFF, sizeof(head_));  // all kNil
  std::memset(tail_, 0xFF, sizeof(tail_));
}

std::uint64_t TimerWheel::now_tick() const {
  return tick_of(simulation_.now());
}

void TimerWheel::check_schedule(SimTime deadline, SimTime period,
                                EventPriority priority) const {
  if (deadline < simulation_.now()) {
    throw std::invalid_argument("TimerWheel: scheduling into the past");
  }
  if (period < SimTime::zero()) {
    throw std::invalid_argument("TimerWheel: negative period");
  }
  const auto p = static_cast<int>(priority);
  if (p < -128 || p > 127) {
    throw std::invalid_argument("TimerWheel: priority outside [-128, 127]");
  }
}

SimTime TimerWheel::deadline_in(SimTime delay) const {
  if (delay < SimTime::zero()) {
    throw std::invalid_argument("TimerWheel: negative delay");
  }
  return simulation_.now() + delay;
}

TimerId TimerWheel::arm(std::uint32_t index, SimTime deadline, SimTime period,
                        EventPriority priority) {
  Timer& t = timers_[index];
  if (!t.fn) {
    timers_.erase(index);
    throw std::invalid_argument("TimerWheel: empty callback");
  }
  t.deadline = deadline;
  t.period = period;
  t.priority = static_cast<std::int8_t>(priority);
  ++active_count_;
  place(index, now_tick());
  return timers_.id(index);
}

void TimerWheel::release(std::uint32_t index) {
  timers_.erase(index);
  --active_count_;
}

void TimerWheel::enqueue(std::uint32_t index, int level, std::uint32_t slot) {
  Timer& t = timers_[index];
  t.state = State::kQueued;
  t.level = static_cast<std::uint8_t>(level);
  t.slot = static_cast<std::uint8_t>(slot);
  t.next = kNil;
  const std::uint32_t tail = tail_[level][slot];
  if (tail != kNil) {
    timers_[tail].next = index;
  } else {
    head_[level][slot] = index;
  }
  tail_[level][slot] = index;
  ++armed_[level][slot];
  occupied_[level] |= 1ull << slot;
}

std::uint32_t TimerWheel::detach(int level, std::uint32_t slot) {
  const std::uint32_t head = head_[level][slot];
  head_[level][slot] = kNil;
  tail_[level][slot] = kNil;
  armed_[level][slot] = 0;
  occupied_[level] &= ~(1ull << slot);
  return head;
}

void TimerWheel::promote(std::uint32_t index) {
  Timer& t = timers_[index];
  t.state = State::kPromoted;
  const std::uint32_t generation = timers_.generation(index);
  const EventId event = simulation_.schedule_at(
      t.deadline,
      [this, index, generation] { fire(index, generation); },
      static_cast<EventPriority>(t.priority));
  t.promoted = static_cast<std::uint32_t>(event & 0xFFFFFFFFu);
}

void TimerWheel::place(std::uint32_t index, std::uint64_t current_tick) {
  Timer& t = timers_[index];
  const std::uint64_t tick = tick_of(t.deadline);
  if (tick <= current_tick) {
    // Due within the current quantum: straight onto the main heap at the
    // exact deadline.
    promote(index);
  } else {
    std::uint64_t delta = tick - current_tick;
    // Clamp pathological far-future deadlines into the top level; they
    // re-cascade there until close enough.
    const std::uint64_t span = 1ull << (kSlotBits * kLevels);
    std::uint64_t place_tick = tick;
    if (delta >= span) {
      place_tick = current_tick + span - 1;
      delta = span - 1;
    }
    int level = 0;
    while (delta >= (kSlots << (kSlotBits * level))) {
      ++level;
    }
    const auto slot = static_cast<std::uint32_t>(
        (place_tick >> (kSlotBits * level)) & kSlotMask);
    enqueue(index, level, slot);
    // This bucket is processed exactly at its window-start tick, so the
    // wheel's next wake-up after the insert is min(cascade_tick_, own_due) —
    // an O(1) comparison, no level scan. advance() suppresses re-arms while
    // cascading and does a single full re-arm at the end.
    const std::uint64_t own_due =
        level == 0 ? place_tick
                   : (place_tick >> (kSlotBits * level)) << (kSlotBits * level);
    if (!advancing_ && own_due < cascade_tick_) {
      rearm_at(own_due);
    }
  }
}

std::uint64_t TimerWheel::next_due_tick(std::uint64_t current_tick) const {
  std::uint64_t due = UINT64_MAX;
  for (int level = 0; level < kLevels; ++level) {
    const std::uint64_t occ = occupied_[level];
    if (occ == 0) continue;
    const std::uint64_t base = current_tick >> (kSlotBits * level);
    const auto at = static_cast<std::uint32_t>(base & kSlotMask);
    // Bit k of the rotation = slot (at + k) & 63. Distance 0 is the current
    // slot itself, which holds wrapped-around timers due a full turn later
    // (its current window was already handled when we entered it) — it must
    // not mask nearer slots, so consider it separately from the rest.
    std::uint64_t rotated = std::rotr(occ, static_cast<int>(at));
    if ((rotated & 1ull) != 0) {
      const std::uint64_t tick = (base + kSlots) << (kSlotBits * level);
      if (tick < due) due = tick;
      rotated &= ~1ull;
    }
    if (rotated != 0) {
      const auto distance =
          static_cast<std::uint64_t>(std::countr_zero(rotated));
      const std::uint64_t tick = (base + distance) << (kSlotBits * level);
      if (tick < due) due = tick;
    }
  }
  return due;
}

void TimerWheel::rearm(std::uint64_t current_tick) {
  rearm_at(next_due_tick(current_tick));
}

void TimerWheel::rearm_at(std::uint64_t due) {
  if (due == cascade_tick_) return;
  if (cascade_event_ != kInvalidEvent) {
    simulation_.cancel(cascade_event_);
    cascade_event_ = kInvalidEvent;
  }
  cascade_tick_ = due;
  if (due == UINT64_MAX) return;
  cascade_event_ = simulation_.schedule_at(
      SimTime::from_micros(static_cast<std::int64_t>(due << kTickBits)),
      [this, due] { advance(due); }, EventPriority::kInternal);
}

void TimerWheel::advance(std::uint64_t tick) {
  cascade_event_ = kInvalidEvent;
  cascade_tick_ = UINT64_MAX;
  advancing_ = true;

  // Cascade due higher-level buckets top-down: re-placed timers land
  // strictly below their previous level (or promote immediately), so each
  // bucket is visited once. Dropped timers are reclaimed on the way.
  for (int level = kLevels - 1; level >= 1; --level) {
    const std::uint64_t window_mask = (1ull << (kSlotBits * level)) - 1;
    if ((tick & window_mask) != 0) continue;  // not a window boundary
    const auto slot = static_cast<std::uint32_t>(
        (tick >> (kSlotBits * level)) & kSlotMask);
    std::uint32_t index = detach(level, slot);
    while (index != kNil) {
      const Timer& t = timers_[index];
      const std::uint32_t next = t.next;
      if (next != kNil) prefetch(&timers_[next]);
      if (t.state == State::kDropped) {
        timers_.erase(index);
      } else {
        place(index, tick);
      }
      index = next;
    }
  }

  // Promote the level-0 bucket due at this tick, in bucket (FIFO) order.
  const auto slot0 = static_cast<std::uint32_t>(tick & kSlotMask);
  if ((occupied_[0] >> slot0) & 1ull) {
    std::uint32_t index = detach(0, slot0);
    while (index != kNil) {
      const Timer& t = timers_[index];
      const std::uint32_t next = t.next;
      if (next != kNil) prefetch(&timers_[next]);
      if (t.state == State::kDropped) {
        timers_.erase(index);
      } else {
        promote(index);
      }
      index = next;
    }
  }

  advancing_ = false;
  rearm(tick);
}

void TimerWheel::fire(std::uint32_t index, std::uint32_t generation) {
  // Stale (defensive; cancel also cancels the heap event).
  if (timers_.generation(index) != generation) return;
  // Slots never move, so the callback runs in place even when it arms
  // new timers.
  Timer& t = timers_[index];
  t.state = State::kFiring;
  t.fn();
  if (t.state == State::kCancelled) {
    release(index);  // cancelled from within its own callback
  } else if (t.period > SimTime::zero()) {
    t.deadline += t.period;
    place(index, now_tick());
  } else {
    release(index);
  }
}

bool TimerWheel::cancel(TimerId id) {
  if (!timers_.contains(id)) return false;
  const std::uint32_t index = SlotPool<Timer>::index_of(id);
  Timer& t = timers_[index];
  switch (t.state) {
    case State::kQueued:
      // Lazy: the bucket list keeps the node until its walk reclaims it
      // (or until the bucket holds nothing armed, which frees it now and
      // keeps the bucket's occupancy exact).
      t.fn.reset();
      t.state = State::kDropped;
      --active_count_;
      if (--armed_[t.level][t.slot] == 0) {
        std::uint32_t dropped = detach(t.level, t.slot);
        while (dropped != kNil) {
          const std::uint32_t next = timers_[dropped].next;
          timers_.erase(dropped);
          dropped = next;
        }
      }
      return true;
    case State::kPromoted:
      simulation_.cancel_slot(t.promoted);
      release(index);
      return true;
    case State::kFiring:
      // Mid-callback: mark; fire() releases the slot after the callback
      // returns (and suppresses any periodic re-arm).
      t.state = State::kCancelled;
      return true;
    case State::kCancelled:
    case State::kDropped:
      return false;
  }
  return false;
}

bool TimerWheel::active(TimerId id) const {
  if (!timers_.contains(id)) return false;
  const State state = timers_[SlotPool<Timer>::index_of(id)].state;
  return state == State::kQueued || state == State::kPromoted ||
         state == State::kFiring;
}

}  // namespace oddci::sim
