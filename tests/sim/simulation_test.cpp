#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

namespace oddci::sim {
namespace {

TEST(SimTime, Conversions) {
  EXPECT_EQ(SimTime::from_seconds(1.5).micros(), 1'500'000);
  EXPECT_EQ(SimTime::from_millis(3).micros(), 3000);
  EXPECT_EQ(SimTime::from_minutes(2).micros(), 120'000'000);
  EXPECT_EQ(SimTime::from_hours(1).micros(), 3'600'000'000LL);
  EXPECT_DOUBLE_EQ(SimTime::from_micros(2'500'000).seconds(), 2.5);
  EXPECT_DOUBLE_EQ(SimTime::from_micros(1500).millis(), 1.5);
}

TEST(SimTime, RoundsToNearestMicro) {
  EXPECT_EQ(SimTime::from_seconds(1e-7).micros(), 0);
  EXPECT_EQ(SimTime::from_seconds(6e-7).micros(), 1);
}

TEST(SimTime, Arithmetic) {
  const SimTime a = SimTime::from_seconds(2.0);
  const SimTime b = SimTime::from_seconds(0.5);
  EXPECT_EQ((a + b).micros(), 2'500'000);
  EXPECT_EQ((a - b).micros(), 1'500'000);
  EXPECT_EQ((b * 4).micros(), 2'000'000);
  EXPECT_LT(b, a);
  EXPECT_EQ(SimTime::zero().micros(), 0);
  EXPECT_GT(SimTime::max(), SimTime::from_hours(1e6));
}

TEST(Simulation, RunsEventsInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(SimTime::from_seconds(3), [&] { order.push_back(3); });
  sim.schedule_at(SimTime::from_seconds(1), [&] { order.push_back(1); });
  sim.schedule_at(SimTime::from_seconds(2), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), SimTime::from_seconds(3));
  EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(Simulation, TiesBreakByPriorityThenSequence) {
  Simulation sim;
  std::vector<int> order;
  const SimTime t = SimTime::from_seconds(1);
  sim.schedule_at(t, [&] { order.push_back(1); }, EventPriority::kTimer);
  sim.schedule_at(t, [&] { order.push_back(2); }, EventPriority::kDelivery);
  sim.schedule_at(t, [&] { order.push_back(3); }, EventPriority::kDelivery);
  sim.run();
  // Deliveries (priority 0) run before timers; equal priorities in
  // scheduling order.
  EXPECT_EQ(order, (std::vector<int>{2, 3, 1}));
}

TEST(Simulation, ScheduleInIsRelative) {
  Simulation sim;
  SimTime seen;
  sim.schedule_at(SimTime::from_seconds(5), [&] {
    sim.schedule_in(SimTime::from_seconds(2), [&] { seen = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(seen, SimTime::from_seconds(7));
}

TEST(Simulation, RejectsPastAndEmptyCallbacks) {
  Simulation sim;
  sim.schedule_at(SimTime::from_seconds(1), [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(SimTime::from_millis(500), [] {}),
               std::invalid_argument);
  EXPECT_THROW(sim.schedule_in(SimTime::from_seconds(-1), [] {}),
               std::invalid_argument);
  EXPECT_THROW(sim.schedule_at(SimTime::from_seconds(2), nullptr),
               std::invalid_argument);
}

TEST(Simulation, TimerSchedulingRejectsInvalidArguments) {
  Simulation sim;
  sim.run_until(SimTime::from_seconds(1));
  EXPECT_THROW(
      sim.schedule_at(SimTime::zero(), [] {}, EventPriority::kTimer),
      std::invalid_argument);
  EXPECT_THROW(sim.schedule_timer_in(SimTime::from_seconds(-1), [] {}),
               std::invalid_argument);
  EXPECT_THROW(sim.schedule_timer_in(SimTime::from_seconds(1), EventFn{}),
               std::invalid_argument);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulation, OneShotTimerFiresAtExactDeadline) {
  Simulation sim;
  std::int64_t near = -1;
  std::int64_t far = -1;
  sim.schedule_timer_in(SimTime::from_micros(123457),
                        [&] { near = sim.now().micros(); });
  // ~11.6 simulated days ahead.
  const auto deadline = SimTime::from_micros(1'000'000'000'007);
  sim.schedule_at(deadline, [&] { far = sim.now().micros(); },
                  EventPriority::kTimer);
  sim.run_until(SimTime::from_seconds(1));
  EXPECT_EQ(near, 123457);
  EXPECT_EQ(far, -1);
  // The next event time is the exact deadline, not a bound below it.
  EXPECT_EQ(sim.next_event_time(), deadline);
  sim.run();
  EXPECT_EQ(far, 1'000'000'000'007);
}

TEST(Simulation, TimerCancelledBeforeItsDeadlineNeverFires) {
  Simulation sim;
  int count = 0;
  const EventId id =
      sim.schedule_timer_in(SimTime::from_seconds(5), [&] { ++count; });
  sim.run_until(SimTime::from_seconds(2));
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // second cancel is a no-op
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.run_until(SimTime::from_seconds(10));
  EXPECT_EQ(count, 0);
}

TEST(Simulation, FiredTimerHandleIsRejectedByCancel) {
  Simulation sim;
  const EventId id = sim.schedule_timer_in(SimTime::from_seconds(1), [] {});
  sim.run_until(SimTime::from_seconds(2));
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_FALSE(sim.cancel(id));
  EXPECT_EQ(sim.events_cancelled(), 0u);
}

TEST(Simulation, StaleHandlesAreRejected) {
  // The second timer reuses the first one's slot: the first one's retained
  // handle must not alias it.
  Simulation sim;
  const EventId first = sim.schedule_timer_in(SimTime::from_millis(1), [] {});
  sim.run_until(SimTime::from_millis(10));
  int count = 0;
  const EventId second =
      sim.schedule_timer_in(SimTime::from_seconds(5), [&] { ++count; });
  EXPECT_NE(first, second);
  EXPECT_EQ(first & 0xFFFFFFFFu, second & 0xFFFFFFFFu);
  EXPECT_FALSE(sim.cancel(first));
  sim.run_until(SimTime::from_seconds(10));
  EXPECT_EQ(count, 1);
}

TEST(Simulation, CallbacksCanGrowTheSlab) {
  // Scheduling from inside a running callback may add slab chunks; the
  // running callback must survive the growth.
  Simulation sim;
  int fired = 0;
  int deepest = 0;
  std::function<void(int)> arm = [&](int depth) {
    sim.schedule_timer_in(SimTime::from_millis(7), [&, depth] {
      ++fired;
      deepest = std::max(deepest, depth);
      if (depth < 50) arm(depth + 1);
      for (int i = 0; i < 100; ++i) {
        sim.schedule_timer_in(SimTime::from_millis(900 + i), [&] { ++fired; });
      }
    });
  };
  arm(0);
  sim.run_until(SimTime::from_seconds(5));
  EXPECT_EQ(deepest, 50);
  EXPECT_EQ(fired, 51 + 51 * 100);
  EXPECT_GT(sim.event_chunks(), 1u);  // 5,100 pending at once
}

TEST(Simulation, CancelPreventsExecution) {
  Simulation sim;
  bool ran = false;
  const EventId id =
      sim.schedule_at(SimTime::from_seconds(1), [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // already cancelled
  sim.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.events_cancelled(), 1u);
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(Simulation, CancelAfterExecutionReturnsFalse) {
  Simulation sim;
  const EventId id = sim.schedule_at(SimTime::from_seconds(1), [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulation, RunUntilStopsAtHorizonAndAdvancesClock) {
  Simulation sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule_at(SimTime::from_seconds(i), [&] { ++count; });
  }
  sim.run_until(SimTime::from_seconds(5));
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.now(), SimTime::from_seconds(5));
  sim.run_until(SimTime::from_seconds(20));
  EXPECT_EQ(count, 10);
  EXPECT_EQ(sim.now(), SimTime::from_seconds(20));  // clock reaches horizon
  EXPECT_THROW(sim.run_until(SimTime::from_seconds(19)),
               std::invalid_argument);
}

TEST(Simulation, EventsAtExactHorizonRun) {
  Simulation sim;
  bool ran = false;
  sim.schedule_at(SimTime::from_seconds(5), [&] { ran = true; });
  sim.run_until(SimTime::from_seconds(5));
  EXPECT_TRUE(ran);
}

TEST(Simulation, StopInterruptsRun) {
  Simulation sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule_at(SimTime::from_seconds(i), [&] {
      ++count;
      if (count == 3) sim.stop();
    });
  }
  sim.run();
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(sim.empty());
  sim.run();  // resumes
  EXPECT_EQ(count, 10);
}

TEST(Simulation, StepExecutesExactlyOne) {
  Simulation sim;
  int count = 0;
  sim.schedule_at(SimTime::from_seconds(1), [&] { ++count; });
  sim.schedule_at(SimTime::from_seconds(2), [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(count, 2);
}

TEST(Simulation, EventsCanScheduleEvents) {
  Simulation sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) {
      sim.schedule_in(SimTime::from_millis(1), recurse);
    }
  };
  sim.schedule_in(SimTime::from_millis(1), recurse);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.now(), SimTime::from_millis(100));
}

TEST(Simulation, DeterministicReplay) {
  auto trace = [] {
    Simulation sim;
    std::vector<std::int64_t> times;
    for (int i = 0; i < 50; ++i) {
      sim.schedule_at(SimTime::from_micros((i * 7919) % 1000),
                      [&times, &sim] { times.push_back(sim.now().micros()); });
    }
    sim.run();
    return times;
  };
  EXPECT_EQ(trace(), trace());
}

}  // namespace
}  // namespace oddci::sim
