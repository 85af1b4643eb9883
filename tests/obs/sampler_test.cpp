#include "obs/sampler.hpp"

#include <gtest/gtest.h>

#include "core/system.hpp"
#include "obs/metrics.hpp"
#include "sim/sharded.hpp"
#include "workload/job.hpp"

namespace oddci::obs {
namespace {

TEST(Sampler, OptionsValidate) {
  Sampler::Options bad;
  bad.interval = sim::SimTime::zero();
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = Sampler::Options{};
  bad.max_points = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(Sampler, GaugeSeriesRecordsEveryInterval) {
  sim::ShardedSimulation kernel(sim::ShardedSimulation::Options{});
  MetricsRegistry reg;
  Sampler::Options opts;
  opts.interval = sim::SimTime::from_seconds(10);
  Sampler sampler(kernel, reg, opts);

  double level = 0.0;
  sampler.add_gauge_series("level", [&level] { return level; });
  sampler.start();
  EXPECT_TRUE(sampler.running());

  kernel.shard(0).schedule_at(sim::SimTime::from_seconds(15),
                              [&level] { level = 5.0; });
  kernel.run_until(sim::SimTime::from_seconds(35));

  const MetricsSnapshot snap = reg.snapshot(35.0);
  const SeriesSample* s = snap.find_series("level");
  ASSERT_NE(s, nullptr);
  // First tick one interval after start: t = 10, 20, 30.
  ASSERT_EQ(s->times.size(), 3u);
  EXPECT_DOUBLE_EQ(s->times[0], 10.0);
  EXPECT_DOUBLE_EQ(s->values[0], 0.0);
  EXPECT_DOUBLE_EQ(s->values[1], 5.0);
  EXPECT_DOUBLE_EQ(s->values[2], 5.0);
  EXPECT_EQ(sampler.ticks(), 3u);
}

TEST(Sampler, RateSeriesIsPerSecondDelta) {
  sim::ShardedSimulation kernel(sim::ShardedSimulation::Options{});
  MetricsRegistry reg;
  Sampler::Options opts;
  opts.interval = sim::SimTime::from_seconds(10);
  Sampler sampler(kernel, reg, opts);

  Counter beats;
  sampler.add_rate_series("rate", [&beats] { return beats.value(); });
  sampler.start();

  // 30 increments in the first interval, none in the second.
  kernel.shard(0).schedule_at(sim::SimTime::from_seconds(5),
                              [&beats] { beats.inc(30); });
  kernel.run_until(sim::SimTime::from_seconds(25));

  const MetricsSnapshot snap = reg.snapshot(25.0);
  const SeriesSample* s = snap.find_series("rate");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->times.size(), 2u);
  EXPECT_DOUBLE_EQ(s->values[0], 3.0);  // 30 per 10 s
  EXPECT_DOUBLE_EQ(s->values[1], 0.0);
}

TEST(Sampler, ProbesMustRegisterBeforeStart) {
  sim::ShardedSimulation kernel(sim::ShardedSimulation::Options{});
  MetricsRegistry reg;
  Sampler sampler(kernel, reg);
  sampler.start();
  EXPECT_THROW(sampler.add_gauge_series("late", [] { return 0.0; }),
               std::logic_error);
  EXPECT_THROW(sampler.add_rate_series("late", [] { return 0u; }),
               std::logic_error);
  sampler.stop();
  EXPECT_FALSE(sampler.running());
}

// A tick runs at the start of its instant at every shard count: before a
// timer armed after start() and before a default-priority event due at the
// same time, as a global task at a window boundary does under several
// shards. So one shard and two read the same series.
TEST(Sampler, TickSeesTheSameInstantAtEveryShardCount) {
  const auto series_at = [](std::size_t shards) {
    sim::ShardedSimulation::Options kopts;
    kopts.shards = shards;
    sim::ShardedSimulation kernel(kopts);
    MetricsRegistry reg;
    Sampler::Options opts;
    opts.interval = sim::SimTime::from_seconds(10);
    Sampler sampler(kernel, reg, opts);
    double level = 0.0;
    sampler.add_gauge_series("level", [&level] { return level; });
    sampler.start();
    sim::Simulation& control = kernel.shard(0);
    control.schedule_at(sim::SimTime::from_seconds(10),
                        [&level] { level = 5.0; }, sim::EventPriority::kTimer);
    control.schedule_at(sim::SimTime::from_seconds(20),
                        [&level] { level = 7.0; });
    kernel.run_until(sim::SimTime::from_seconds(35));
    sampler.stop();
    const MetricsSnapshot snap = reg.snapshot(35.0);
    const SeriesSample* s = snap.find_series("level");
    return s == nullptr ? std::vector<double>{} : s->values;
  };
  const std::vector<double> expected = {0.0, 5.0, 7.0};
  EXPECT_EQ(series_at(1), expected);
  EXPECT_EQ(series_at(2), expected);
}

// A stop() ends the tick chain; a later start() begins one new chain on a
// fresh grid instead of reviving the stopped one beside it.
TEST(Sampler, RestartTicksOncePerInterval) {
  sim::ShardedSimulation kernel(sim::ShardedSimulation::Options{});
  MetricsRegistry reg;
  Sampler::Options opts;
  opts.interval = sim::SimTime::from_seconds(10);
  Sampler sampler(kernel, reg, opts);
  sampler.add_gauge_series("level", [] { return 1.0; });
  sampler.start();
  kernel.run_until(sim::SimTime::from_seconds(15));
  sampler.stop();
  sampler.start();
  kernel.run_until(sim::SimTime::from_seconds(45));
  // t = 10, then the new grid from 15: 25, 35, 45.
  EXPECT_EQ(sampler.ticks(), 4u);
}

// Two runs of the same seeded scenario must produce bit-identical
// snapshots — counters, histograms, sampled series and spans alike. The
// sampler reads counters only (no RNG, no allocation on the tick path), so
// any divergence here means the instrumentation perturbed the simulation.
TEST(Sampler, SeededRunsProduceBitIdenticalSnapshots) {
  const auto run_once = [] {
    core::SystemConfig config;
    config.receivers = 300;
    config.seed = 1234;
    config.control.overshoot_margin = 1.3;
    core::OddciSystem system(config);
    const workload::Job job = workload::make_uniform_job(
        "determinism", util::Bits::from_megabytes(2), 200,
        util::Bits::from_bytes(512), util::Bits::from_bytes(512), 10.0);
    return system.run_job(job, 50);
  };

  const core::RunResult a = run_once();
  const core::RunResult b = run_once();
  ASSERT_TRUE(a.completed);
  EXPECT_EQ(a.metrics, b.metrics);
  // Spot-check the snapshot is non-trivial, not vacuously equal.
  EXPECT_GT(a.metrics.counter_value("pna.heartbeats_sent"), 0u);
  const SeriesSample* sizes = a.metrics.find_series("series.instance_size");
  ASSERT_NE(sizes, nullptr);
  EXPECT_FALSE(sizes->times.empty());
}

// Disabling observability removes the registry, the sampler and the
// snapshot — and must not change the simulation itself.
TEST(Sampler, ObsDisabledLeavesRunIdentical) {
  const auto run_once = [](bool obs_enabled) {
    core::SystemConfig config;
    config.receivers = 300;
    config.seed = 1234;
    config.control.overshoot_margin = 1.3;
    config.obs.enabled = obs_enabled;
    core::OddciSystem system(config);
    EXPECT_EQ(system.metrics() != nullptr, obs_enabled);
    EXPECT_EQ(system.sampler() != nullptr, obs_enabled);
    const workload::Job job = workload::make_uniform_job(
        "determinism", util::Bits::from_megabytes(2), 200,
        util::Bits::from_bytes(512), util::Bits::from_bytes(512), 10.0);
    return system.run_job(job, 50);
  };

  const core::RunResult with_obs = run_once(true);
  const core::RunResult without_obs = run_once(false);
  EXPECT_EQ(without_obs.metrics, obs::MetricsSnapshot{});
  EXPECT_DOUBLE_EQ(with_obs.makespan_seconds, without_obs.makespan_seconds);
  EXPECT_DOUBLE_EQ(with_obs.wakeup_seconds, without_obs.wakeup_seconds);
  EXPECT_EQ(with_obs.network.messages_delivered,
            without_obs.network.messages_delivered);
}

}  // namespace
}  // namespace oddci::obs
