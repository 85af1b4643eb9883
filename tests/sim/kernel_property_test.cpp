// Randomized differential tests of the simulation kernel: traces of random
// schedule/cancel operations, and mixes of one-shot timers and
// PeriodicTasks, are executed both by the kernel and by a naive reference
// executor; the observable execution order must match exactly, ties at one
// instant included.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "naive_scheduler.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace oddci::sim {
namespace {

struct Op {
  std::int64_t at_us;
  int priority;     // 0, 10, 20
  int label;
  bool cancelled = false;
};

class KernelPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KernelPropertyTest, MatchesReferenceExecutor) {
  util::Random rng(GetParam());

  // Build a random batch of events, some of which get cancelled.
  std::vector<Op> ops;
  const int n = 200 + static_cast<int>(rng.uniform_u64(300));
  for (int i = 0; i < n; ++i) {
    Op op;
    op.at_us = static_cast<std::int64_t>(rng.uniform_u64(1000));  // many ties
    op.priority = static_cast<int>(rng.uniform_u64(3)) * 10;
    op.label = i;
    ops.push_back(op);
  }

  Simulation sim;
  std::vector<int> kernel_order;
  std::vector<EventId> ids;
  for (auto& op : ops) {
    ids.push_back(sim.schedule_at(
        SimTime::from_micros(op.at_us),
        [&kernel_order, label = op.label] { kernel_order.push_back(label); },
        static_cast<EventPriority>(op.priority)));
  }
  // Cancel a random ~20%.
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (rng.bernoulli(0.2)) {
      ops[i].cancelled = true;
      EXPECT_TRUE(sim.cancel(ids[i]));
    }
  }
  sim.run();

  // Reference: stable order by (time, priority, insertion index).
  std::vector<Op> reference;
  for (const auto& op : ops) {
    if (!op.cancelled) reference.push_back(op);
  }
  std::stable_sort(reference.begin(), reference.end(),
                   [](const Op& a, const Op& b) {
                     if (a.at_us != b.at_us) return a.at_us < b.at_us;
                     if (a.priority != b.priority) {
                       return a.priority < b.priority;
                     }
                     return a.label < b.label;
                   });
  std::vector<int> reference_order;
  for (const auto& op : reference) reference_order.push_back(op.label);

  EXPECT_EQ(kernel_order, reference_order);
  EXPECT_EQ(sim.events_executed(), reference_order.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 16));

// Dynamic scheduling property: events scheduled from within callbacks still
// execute in global (time, priority, seq) order.
TEST(KernelProperty, DynamicSchedulingPreservesOrder) {
  util::Random rng(99);
  Simulation sim;
  std::vector<std::int64_t> executed_times;
  std::function<void(int)> spawn = [&](int depth) {
    executed_times.push_back(sim.now().micros());
    if (depth < 4) {
      const auto d1 = SimTime::from_micros(
          static_cast<std::int64_t>(rng.uniform_u64(50)));
      const auto d2 = SimTime::from_micros(
          static_cast<std::int64_t>(rng.uniform_u64(50)));
      sim.schedule_in(d1, [&spawn, depth] { spawn(depth + 1); });
      sim.schedule_in(d2, [&spawn, depth] { spawn(depth + 1); });
    }
  };
  sim.schedule_at(SimTime::zero(), [&spawn] { spawn(0); });
  sim.run();
  EXPECT_TRUE(std::is_sorted(executed_times.begin(), executed_times.end()));
  EXPECT_EQ(executed_times.size(), 31u);  // full binary tree of depth 4
}

using reference::NaiveScheduler;
using Firings = std::vector<std::pair<std::int64_t, int>>;

TEST(KernelProperty, DistinctDeadlinesFireInGlobalTimeOrder) {
  Simulation sim;
  util::Random rng(7);
  NaiveScheduler reference;
  Firings fired;
  for (int id = 0; id < 500; ++id) {
    // Deadlines spread over ~2 hours.
    const auto deadline = SimTime::from_micros(
        1 + static_cast<std::int64_t>(rng.uniform(0.0, 7.2e9)));
    sim.schedule_at(
        deadline,
        [&fired, &sim, id] { fired.emplace_back(sim.now().micros(), id); },
        EventPriority::kTimer);
    reference.arm(id, deadline, SimTime::zero());
  }
  const auto horizon = SimTime::from_hours(3);
  sim.run_until(horizon);
  EXPECT_EQ(fired, reference.run_until(horizon));
}

/// A seeded mix of one-shot timers (kernel events at a random priority) and
/// PeriodicTasks on a coarse deadline grid, so that many fire at one
/// instant. Some are cancelled before the run and half of the armed ones at
/// each of four checkpoints. A cancel leaves its heap entry behind as a
/// tombstone, so the pending and cancelled counts are checked against the
/// reference after every round. Returns the kernel's and the reference's
/// (time, id) firings.
std::pair<Firings, Firings> run_timer_mix(std::uint64_t seed) {
  constexpr int kTimers = 1000;
  constexpr EventPriority kPriorities[] = {
      EventPriority::kDelivery, EventPriority::kDefault, EventPriority::kTimer};
  Simulation sim;
  util::Random rng(seed);
  NaiveScheduler reference;
  Firings fired;
  std::vector<EventId> one_shots(kTimers, kInvalidEvent);
  std::vector<std::unique_ptr<PeriodicTask>> periodic(kTimers);
  for (int id = 0; id < kTimers; ++id) {
    const auto deadline = SimTime::from_millis(
        1 + static_cast<std::int64_t>(rng.uniform(0.0, 600.0)) * 100);
    auto log = [&fired, &sim, id] {
      fired.emplace_back(sim.now().micros(), id);
    };
    if (rng.bernoulli(0.5)) {
      const auto period = SimTime::from_millis(
          static_cast<std::int64_t>(rng.uniform(1.0, 40.0)) * 500);
      periodic[id] = std::make_unique<PeriodicTask>(sim, deadline, period, log);
      reference.arm(id, deadline, period);
    } else {
      const EventPriority priority = kPriorities[rng.uniform_u64(3)];
      one_shots[id] = sim.schedule_at(deadline, log, priority);
      reference.arm(id, deadline, SimTime::zero(), priority);
    }
  }
  std::uint64_t cancels = 0;
  const auto cancel = [&](int id) {
    ++cancels;
    if (periodic[id] != nullptr) {
      EXPECT_TRUE(periodic[id]->active()) << id;
      periodic[id]->cancel();
      EXPECT_FALSE(periodic[id]->active()) << id;
    } else {
      EXPECT_TRUE(sim.cancel(one_shots[id])) << id;
      EXPECT_FALSE(sim.cancel(one_shots[id])) << id;
    }
    EXPECT_TRUE(reference.disarm(id)) << id;
  };
  for (int id = 0; id < kTimers; id += 7) cancel(id);
  EXPECT_EQ(sim.pending_events(), reference.size());
  EXPECT_EQ(sim.events_cancelled(), cancels);

  Firings expected;
  const auto run_until = [&](SimTime horizon) {
    sim.run_until(horizon);
    const Firings part = reference.run_until(horizon);
    expected.insert(expected.end(), part.begin(), part.end());
    EXPECT_EQ(sim.pending_events(), reference.size());
  };
  for (int round = 1; round <= 4; ++round) {
    run_until(SimTime::from_seconds(15.0 * round));
    for (const int id : reference.armed_ids()) {
      if (rng.bernoulli(0.5)) cancel(id);
    }
    EXPECT_EQ(sim.pending_events(), reference.size());
    EXPECT_EQ(sim.events_cancelled(), cancels);
  }
  run_until(SimTime::from_seconds(120));
  return {fired, expected};
}

void expect_timer_mix_matches_reference(std::uint64_t seed) {
  SCOPED_TRACE(seed);
  const auto [fired, expected] = run_timer_mix(seed);
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(fired, expected);  // exact, ties at one instant included
}

TEST(KernelProperty, RandomizedTimerMixMatchesReference) {
  for (const std::uint64_t seed : {99u, 7u}) {
    expect_timer_mix_matches_reference(seed);
  }
}

TEST(KernelProperty, LazyCancelOfHalfTheArmedTimersMatchesReference) {
  // The tombstones of four rounds of cancels sit among live entries that
  // share their instants; skimming them must not disturb the order.
  expect_timer_mix_matches_reference(2026);
}

TEST(KernelProperty, TimerMixReplaysIdentically) {
  EXPECT_EQ(run_timer_mix(1234).first, run_timer_mix(1234).first);
}

}  // namespace
}  // namespace oddci::sim
