#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/simulation.hpp"

namespace oddci::sim {
namespace {

TEST(PeriodicTask, TicksAtFixedPeriod) {
  Simulation sim;
  std::vector<std::int64_t> ticks;
  PeriodicTask task(sim, SimTime::from_seconds(1), SimTime::from_seconds(2),
                    [&] { ticks.push_back(sim.now().micros()); });
  sim.run_until(SimTime::from_seconds(10));
  // t = 1, 3, 5, 7, 9
  ASSERT_EQ(ticks.size(), 5u);
  EXPECT_EQ(ticks[0], 1'000'000);
  EXPECT_EQ(ticks[4], 9'000'000);
}

TEST(PeriodicTask, TicksUseExactArithmetic) {
  Simulation sim;
  std::vector<std::int64_t> ticks;
  const auto period = SimTime::from_micros(999'983);  // prime
  PeriodicTask task(sim, SimTime::from_micros(500), period,
                    [&] { ticks.push_back(sim.now().micros()); });
  sim.run_until(SimTime::from_seconds(30));
  ASSERT_GE(ticks.size(), 30u);
  for (std::size_t i = 0; i < ticks.size(); ++i) {
    EXPECT_EQ(ticks[i], 500 + static_cast<std::int64_t>(i) * 999'983);
  }
}

TEST(PeriodicTask, CancelStopsFutureTicks) {
  Simulation sim;
  int count = 0;
  PeriodicTask task(sim, SimTime::from_seconds(1), SimTime::from_seconds(1),
                    [&] { ++count; });
  sim.schedule_at(SimTime::from_seconds(3) + SimTime::from_millis(500),
                  [&] { task.cancel(); });
  sim.run_until(SimTime::from_seconds(10));
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(task.active());
}

TEST(PeriodicTask, CancelFromWithinOwnCallback) {
  Simulation sim;
  int count = 0;
  PeriodicTask task(sim, SimTime::from_seconds(1), SimTime::from_seconds(1),
                    [&] {
                      if (++count == 2) task.cancel();
                    });
  sim.run_until(SimTime::from_seconds(10));
  EXPECT_EQ(count, 2);
}

TEST(PeriodicTask, CancelFromOwnTickStopsRearm) {
  // Inside its own tick the task's pending event is the running one, which
  // the kernel has already released: the cancel leaves no tombstone, and
  // the tick does not schedule the next one.
  Simulation sim;
  int count = 0;
  PeriodicTask task(sim, SimTime::from_seconds(1), SimTime::from_seconds(1),
                    [&] {
                      if (++count == 3) task.cancel();
                    });
  sim.run_until(SimTime::from_seconds(10));
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(task.active());
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.events_cancelled(), 0u);
}

TEST(PeriodicTask, CancelledReplacedAndDestroyedInsideItsOwnTick) {
  // The Backend's sweeper takes this path: a tick fails a task, the job
  // ends and cancels the sweeper, and the next job's submit move-assigns a
  // new one over it, all inside the tick. Each callback reads its own
  // capture after its handle went away, which must still be alive.
  Simulation sim;
  std::optional<PeriodicTask> holder;
  std::vector<std::string> log;
  holder.emplace(sim, SimTime::from_seconds(1), SimTime::from_seconds(1),
                 [&, name = std::string(40, 'a')] {
                   holder->cancel();
                   EXPECT_FALSE(holder->active());
                   *holder = PeriodicTask(
                       sim, SimTime::from_seconds(3), SimTime::from_seconds(1),
                       [&, name = std::string(40, 'b')] {
                         holder.reset();
                         log.push_back(name);
                       });
                   log.push_back(name);
                 });
  sim.run_until(SimTime::from_seconds(10));
  EXPECT_EQ(log, (std::vector<std::string>{std::string(40, 'a'),
                                           std::string(40, 'b')}));
  EXPECT_FALSE(holder.has_value());
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(PeriodicTask, RejectsAnEmptyCallback) {
  Simulation sim;
  EXPECT_THROW(PeriodicTask(sim, SimTime::zero(), SimTime::from_seconds(1),
                            EventFn{}),
               std::invalid_argument);
}

TEST(PeriodicTask, DestructionBeforeSimulationEndIsSafe) {
  Simulation sim;
  int count = 0;
  {
    PeriodicTask task(sim, SimTime::from_seconds(1), SimTime::from_seconds(1),
                      [&] { ++count; });
    sim.run_until(SimTime::from_seconds(2));
    task.cancel();
  }  // task destroyed; its shared state must not dangle
  sim.run_until(SimTime::from_seconds(5));
  EXPECT_EQ(count, 2);
}

TEST(PeriodicTask, RejectsNonPositivePeriod) {
  Simulation sim;
  EXPECT_THROW(PeriodicTask(sim, SimTime::zero(), SimTime::zero(), [] {}),
               std::invalid_argument);
}

TEST(PeriodicTask, MoveKeepsTicking) {
  Simulation sim;
  int count = 0;
  PeriodicTask a(sim, SimTime::from_seconds(1), SimTime::from_seconds(1),
                 [&] { ++count; });
  PeriodicTask b = std::move(a);
  sim.run_until(SimTime::from_seconds(3));
  EXPECT_EQ(count, 3);
  b.cancel();
  sim.run_until(SimTime::from_seconds(6));
  EXPECT_EQ(count, 3);
}

TEST(PeriodicTask, DefaultConstructedIsInactive) {
  PeriodicTask task;
  EXPECT_FALSE(task.active());
  task.cancel();  // no-op, must not crash
}

TEST(PeriodicTask, CancelOnMovedFromHandleDoesNotKillLiveTimer) {
  // Regression: moves must transfer ownership, not share it. Cancelling
  // (or destroying) the moved-from husk previously cancelled the live
  // timer out from under the new owner.
  Simulation sim;
  int count = 0;
  PeriodicTask a(sim, SimTime::from_seconds(1), SimTime::from_seconds(1),
                 [&] { ++count; });
  PeriodicTask b = std::move(a);
  EXPECT_FALSE(a.active());
  EXPECT_TRUE(b.active());
  a.cancel();  // must be a no-op on the husk
  sim.run_until(SimTime::from_seconds(3));
  EXPECT_EQ(count, 3);
  EXPECT_TRUE(b.active());
}

TEST(PeriodicTask, MovedFromDestructorDoesNotKillLiveTimer) {
  Simulation sim;
  int count = 0;
  PeriodicTask outer;
  {
    PeriodicTask inner(sim, SimTime::from_seconds(1),
                       SimTime::from_seconds(1), [&] { ++count; });
    outer = std::move(inner);
  }  // inner (moved-from) destroyed; the timer must keep ticking
  sim.run_until(SimTime::from_seconds(3));
  EXPECT_EQ(count, 3);
  EXPECT_TRUE(outer.active());
}

TEST(PeriodicTask, MoveAssignOverActiveTaskCancelsIt) {
  Simulation sim;
  int old_count = 0;
  int new_count = 0;
  PeriodicTask task(sim, SimTime::from_seconds(1), SimTime::from_seconds(1),
                    [&] { ++old_count; });
  sim.run_until(SimTime::from_seconds(2));
  task = PeriodicTask(sim, SimTime::from_seconds(3), SimTime::from_seconds(1),
                      [&] { ++new_count; });
  sim.run_until(SimTime::from_seconds(5));
  EXPECT_EQ(old_count, 2);  // stopped by the assignment
  EXPECT_EQ(new_count, 3);  // t = 3, 4, 5
}

TEST(PeriodicTask, SelfMoveAssignIsSafe) {
  Simulation sim;
  int count = 0;
  PeriodicTask task(sim, SimTime::from_seconds(1), SimTime::from_seconds(1),
                    [&] { ++count; });
  PeriodicTask& alias = task;
  task = std::move(alias);
  sim.run_until(SimTime::from_seconds(2));
  EXPECT_EQ(count, 2);
  EXPECT_TRUE(task.active());
}

}  // namespace
}  // namespace oddci::sim
