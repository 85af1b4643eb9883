// Property tests for the hierarchical timer wheel, checked against a naive
// reference scheduler (a flat multimap of deadlines). The wheel guarantees
// exact-microsecond firing times and deterministic replay; it does NOT
// guarantee any particular order between timers expiring at the same
// timestamp, so ties are compared as per-timestamp multisets.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <vector>

#include "naive_scheduler.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace oddci::sim {
namespace {

using reference::by_timestamp;
using reference::NaiveScheduler;

TEST(TimerWheel, OneShotFiresAtExactDeadline) {
  Simulation sim;
  std::int64_t fired_at = -1;
  sim.schedule_timer_in(SimTime::from_micros(123457),
                        [&] { fired_at = sim.now().micros(); });
  sim.run_until(SimTime::from_seconds(1));
  EXPECT_EQ(fired_at, 123457);  // exact, not rounded to a wheel tick
}

TEST(TimerWheel, DistinctDeadlinesFireInGlobalTimeOrder) {
  Simulation sim;
  util::Random rng(7);
  NaiveScheduler reference;
  std::vector<std::pair<std::int64_t, int>> fired;
  for (int id = 0; id < 500; ++id) {
    // Deadlines spread over ~2 hours so every wheel level participates.
    const auto deadline =
        SimTime::from_micros(1 + static_cast<std::int64_t>(
                                     rng.uniform(0.0, 7.2e9)));
    sim.schedule_timer_at(deadline, [&fired, &sim, id] {
      fired.emplace_back(sim.now().micros(), id);
    });
    reference.arm(id, deadline, SimTime::zero());
  }
  const auto horizon = SimTime::from_hours(3);
  sim.run_until(horizon);
  const auto expected = reference.run_until(horizon);
  ASSERT_EQ(fired.size(), expected.size());
  // Random 64-bit microsecond draws: ties are virtually impossible, so the
  // full (time, id) sequence must match exactly.
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end(),
                             [](const auto& a, const auto& b) {
                               return a.first < b.first;
                             }));
  EXPECT_EQ(by_timestamp(fired), by_timestamp(expected));
}

TEST(TimerWheel, PeriodicTicksUseExactArithmetic) {
  Simulation sim;
  std::vector<std::int64_t> ticks;
  // An awkward period that never aligns with the 1.024 ms wheel quantum.
  const auto period = SimTime::from_micros(999'983);  // prime
  sim.schedule_timer_at(SimTime::from_micros(500), [&] {
    ticks.push_back(sim.now().micros());
  }, period);
  sim.run_until(SimTime::from_seconds(30));
  ASSERT_GE(ticks.size(), 30u);
  for (std::size_t i = 0; i < ticks.size(); ++i) {
    EXPECT_EQ(ticks[i], 500 + static_cast<std::int64_t>(i) * 999'983);
  }
}

TEST(TimerWheel, RandomizedMixedWorkloadMatchesReference) {
  Simulation sim;
  util::Random rng(99);
  NaiveScheduler reference;
  std::vector<std::pair<std::int64_t, int>> fired;
  std::vector<TimerId> handles(300, kInvalidTimer);

  for (int id = 0; id < 300; ++id) {
    const auto deadline = SimTime::from_micros(
        1 + static_cast<std::int64_t>(rng.uniform(0.0, 1.0e8)));
    // A third of the timers are periodic with coarse periods.
    const bool periodic = rng.bernoulli(1.0 / 3.0);
    const auto period =
        periodic ? SimTime::from_micros(static_cast<std::int64_t>(
                       rng.uniform(1.0e6, 3.0e7)))
                 : SimTime::zero();
    handles[static_cast<std::size_t>(id)] = sim.schedule_timer_at(
        deadline,
        [&fired, &sim, id] { fired.emplace_back(sim.now().micros(), id); },
        period);
    reference.arm(id, deadline, period);
  }
  // Cancel a random subset before anything runs.
  for (int id = 0; id < 300; id += 7) {
    EXPECT_TRUE(sim.cancel_timer(handles[static_cast<std::size_t>(id)]));
    EXPECT_TRUE(reference.disarm(id));
  }
  const auto horizon = SimTime::from_micros(250'000'000);
  sim.run_until(horizon);
  const auto expected = reference.run_until(horizon);
  ASSERT_EQ(fired.size(), expected.size());
  EXPECT_EQ(by_timestamp(fired), by_timestamp(expected));
}

TEST(TimerWheel, LazyCancelOfHalfTheArmedTimersMatchesReference) {
  // Cancelling a bucketed timer only marks it; its slot is reclaimed when
  // its bucket is walked. Cancel half of the armed timers at random at
  // several points of a run, with deadlines and periods on a coarse grid so
  // buckets are shared and timestamps tie, and compare with the reference.
  Simulation sim;
  util::Random rng(2026);
  NaiveScheduler reference;
  std::vector<std::pair<std::int64_t, int>> fired;
  constexpr int kTimers = 1000;
  std::vector<TimerId> handles(kTimers, kInvalidTimer);
  for (int id = 0; id < kTimers; ++id) {
    const auto deadline = SimTime::from_millis(
        1 + static_cast<std::int64_t>(rng.uniform(0.0, 600.0)) * 100);
    const bool periodic = rng.bernoulli(0.5);
    const auto period =
        periodic ? SimTime::from_millis(
                       static_cast<std::int64_t>(rng.uniform(1.0, 40.0)) *
                       500)
                 : SimTime::zero();
    handles[static_cast<std::size_t>(id)] = sim.schedule_timer_at(
        deadline,
        [&fired, &sim, id] { fired.emplace_back(sim.now().micros(), id); },
        period);
    reference.arm(id, deadline, period);
  }
  EXPECT_EQ(sim.timers().active_timers(), reference.size());

  std::vector<std::pair<std::int64_t, int>> expected;
  for (int round = 1; round <= 4; ++round) {
    const auto checkpoint = SimTime::from_seconds(15.0 * round);
    sim.run_until(checkpoint);
    const auto part = reference.run_until(checkpoint);
    expected.insert(expected.end(), part.begin(), part.end());
    ASSERT_EQ(sim.timers().active_timers(), reference.size());
    for (const int id : reference.armed_ids()) {
      if (!rng.bernoulli(0.5)) continue;
      const TimerId handle = handles[static_cast<std::size_t>(id)];
      EXPECT_TRUE(sim.cancel_timer(handle));
      EXPECT_FALSE(sim.timer_active(handle));
      EXPECT_FALSE(sim.cancel_timer(handle));  // already cancelled
      EXPECT_TRUE(reference.disarm(id));
    }
    // Only armed timers count, not the cancelled ones awaiting reclaim.
    EXPECT_EQ(sim.timers().active_timers(), reference.size());
  }
  const auto horizon = SimTime::from_seconds(120);
  sim.run_until(horizon);
  const auto rest = reference.run_until(horizon);
  expected.insert(expected.end(), rest.begin(), rest.end());
  ASSERT_EQ(fired.size(), expected.size());
  EXPECT_EQ(by_timestamp(fired), by_timestamp(expected));
  EXPECT_EQ(sim.timers().active_timers(), reference.size());
}

TEST(TimerWheel, CancelBeforeExpiryPreventsFiring) {
  Simulation sim;
  int count = 0;
  const TimerId id =
      sim.schedule_timer_in(SimTime::from_seconds(5), [&] { ++count; });
  EXPECT_TRUE(sim.timer_active(id));
  sim.run_until(SimTime::from_seconds(2));
  EXPECT_TRUE(sim.cancel_timer(id));
  EXPECT_FALSE(sim.timer_active(id));
  EXPECT_FALSE(sim.cancel_timer(id));  // second cancel is a no-op
  sim.run_until(SimTime::from_seconds(10));
  EXPECT_EQ(count, 0);
}

TEST(TimerWheel, OneShotHandleGoesInactiveAfterFiring) {
  Simulation sim;
  const TimerId id = sim.schedule_timer_in(SimTime::from_seconds(1), [] {});
  sim.run_until(SimTime::from_seconds(2));
  EXPECT_FALSE(sim.timer_active(id));
  EXPECT_FALSE(sim.cancel_timer(id));
}

TEST(TimerWheel, HandleGenerationsRejectStaleIds) {
  Simulation sim;
  // Fire and recycle slots many times; a retained stale handle must never
  // alias a newer timer occupying the same slot.
  const TimerId first = sim.schedule_timer_in(SimTime::from_millis(1), [] {});
  sim.run_until(SimTime::from_millis(10));
  int count = 0;
  const TimerId second =
      sim.schedule_timer_in(SimTime::from_seconds(5), [&] { ++count; });
  EXPECT_NE(first, second);
  EXPECT_FALSE(sim.cancel_timer(first));  // stale: must not hit `second`
  sim.run_until(SimTime::from_seconds(10));
  EXPECT_EQ(count, 1);
}

TEST(TimerWheel, FarFutureDeadlineCascadesThroughAllLevels) {
  Simulation sim;
  std::int64_t fired_at = -1;
  // ~11.6 days: lands in a high wheel level and must cascade down to fire
  // at the exact microsecond.
  const auto deadline = SimTime::from_micros(1'000'000'000'007);
  sim.schedule_timer_at(deadline, [&] { fired_at = sim.now().micros(); });
  // Keep the heap lightly loaded so the run is cascade-driven.
  sim.run_until(deadline + SimTime::from_seconds(1));
  EXPECT_EQ(fired_at, 1'000'000'000'007);
}

TEST(TimerWheel, WrappedSlotDoesNotMaskNearerBuckets) {
  // Regression: a timer a full wheel-rotation away occupies the *current*
  // slot of its level. The next-due scan must not let it hide other
  // buckets of that level that are due much sooner.
  Simulation sim;
  std::vector<std::int64_t> fired;
  const auto tick = SimTime::from_micros(1024);  // one wheel quantum
  // Far timer: exactly 64 level-1 windows ahead -> same level-1 slot as
  // "now". Near timer: a few level-1 windows ahead, different slot.
  sim.schedule_timer_at(tick * (64 * 64 + 70) + SimTime::from_micros(3),
                        [&] { fired.push_back(sim.now().micros()); });
  sim.schedule_timer_at(tick * (3 * 64) + SimTime::from_micros(2),
                        [&] { fired.push_back(sim.now().micros()); });
  sim.run_until(tick * (66 * 64));
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], 1024 * (3 * 64) + 2);
  EXPECT_EQ(fired[1], 1024 * (64 * 64 + 70) + 3);
}

TEST(TimerWheel, PeriodicCancelFromOwnCallbackStopsRearm) {
  Simulation sim;
  int count = 0;
  TimerId id = kInvalidTimer;
  id = sim.schedule_timer_in(
      SimTime::from_seconds(1),
      [&] {
        if (++count == 3) sim.cancel_timer(id);
      },
      SimTime::from_seconds(1));
  sim.run_until(SimTime::from_seconds(10));
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(sim.timer_active(id));
}

TEST(TimerWheel, CallbackCanScheduleMoreTimers) {
  // Scheduling from inside a firing callback may grow the wheel's slab;
  // the executing timer must survive the reallocation.
  Simulation sim;
  int fired = 0;
  std::int64_t chain_depth = 0;
  std::function<void(int)> arm = [&](int depth) {
    sim.schedule_timer_in(SimTime::from_millis(7), [&, depth] {
      ++fired;
      chain_depth = std::max<std::int64_t>(chain_depth, depth);
      if (depth < 50) arm(depth + 1);
      // Burst of extra timers to force slab growth mid-callback.
      for (int i = 0; i < 8; ++i) {
        sim.schedule_timer_in(SimTime::from_millis(900 + i), [&] { ++fired; });
      }
    });
  };
  arm(0);
  sim.run_until(SimTime::from_seconds(5));
  EXPECT_EQ(chain_depth, 50);
  EXPECT_EQ(fired, 51 + 51 * 8);
}

TEST(TimerWheel, RejectsInvalidArguments) {
  Simulation sim;
  sim.run_until(SimTime::from_seconds(1));
  EXPECT_THROW(sim.schedule_timer_at(SimTime::zero(), [] {}),
               std::invalid_argument);
  EXPECT_THROW(
      sim.schedule_timer_in(SimTime::from_seconds(-1), [] {}),
      std::invalid_argument);
  EXPECT_THROW(sim.schedule_timer_in(SimTime::from_seconds(1), EventFn{}),
               std::invalid_argument);
  EXPECT_THROW(sim.schedule_timer_in(SimTime::from_seconds(1), [] {},
                                     SimTime::from_seconds(-2)),
               std::invalid_argument);
}

TEST(TimerWheel, DoubleRunIsDeterministic) {
  auto run = [] {
    Simulation sim;
    util::Random rng(1234);
    std::vector<std::pair<std::int64_t, int>> fired;
    for (int id = 0; id < 200; ++id) {
      const auto deadline = SimTime::from_micros(
          1 + static_cast<std::int64_t>(rng.uniform(0.0, 5.0e8)));
      const auto period =
          rng.bernoulli(0.5)
              ? SimTime::from_micros(static_cast<std::int64_t>(
                    rng.uniform(1.0e6, 1.0e7)))
              : SimTime::zero();
      sim.schedule_timer_at(
          deadline,
          [&fired, &sim, id] { fired.emplace_back(sim.now().micros(), id); },
          period);
    }
    sim.run_until(SimTime::from_micros(600'000'000));
    return fired;
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first, second);  // bit-identical, including tie order
}

}  // namespace
}  // namespace oddci::sim
