#include "core/system.hpp"

#include <gtest/gtest.h>

#include <string>

#include "workload/job.hpp"

namespace oddci::core {
namespace {

SystemConfig small_config() {
  SystemConfig config;
  config.receivers = 100;
  config.seed = 13;
  // Slight over-recruitment so the instance forms in the first wakeup wave
  // (without it, a binomial shortfall can leave formation to a later
  // recomposition round that a short job may not live to see).
  config.control.overshoot_margin = 1.3;
  return config;
}

workload::Job small_job(std::size_t tasks = 200, double p = 10.0) {
  return workload::make_uniform_job(
      "it", util::Bits::from_megabytes(2), tasks,
      util::Bits::from_bytes(512), util::Bits::from_bytes(512), p);
}

TEST(SystemIntegration, JobRunsToCompletion) {
  OddciSystem system(small_config());
  const auto result = system.run_job(small_job(), 50);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.job.results_received, 200u);
  EXPECT_GT(result.wakeup_seconds, 0.0);
  EXPECT_GT(result.makespan_seconds, result.wakeup_seconds);
  EXPECT_GE(result.controller.heartbeats_received, 100u);
}

TEST(SystemIntegration, WakeupWithinCarouselBounds) {
  SystemConfig config = small_config();
  OddciSystem system(config);
  const workload::Job job = small_job();
  const auto result = system.run_job(job, 50);
  // The carousel cycle includes the image + PNA xlet + config; acquisition
  // of the image cannot beat a single read at beta.
  const double read_s = util::transmission_seconds(job.image_size,
                                                   config.beta);
  const double cycle_s = util::transmission_seconds(
      job.image_size + config.controller.pna_xlet_size + util::Bits::from_bytes(512),
      config.beta);
  EXPECT_GE(result.wakeup_seconds, read_s * 0.99);
  // One full cycle of waiting plus the read, plus signalling/heartbeat slack.
  EXPECT_LE(result.wakeup_seconds, cycle_s + read_s + 35.0);
}

TEST(SystemIntegration, DeterministicUnderSeed) {
  auto run_once = [] {
    OddciSystem system(small_config());
    return system.run_job(small_job(), 30);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_DOUBLE_EQ(a.makespan_seconds, b.makespan_seconds);
  EXPECT_DOUBLE_EQ(a.wakeup_seconds, b.wakeup_seconds);
  EXPECT_EQ(a.network.messages_delivered, b.network.messages_delivered);
}

TEST(SystemIntegration, DifferentSeedsDiffer) {
  SystemConfig c1 = small_config();
  SystemConfig c2 = small_config();
  c2.seed = 14;
  OddciSystem s1(c1), s2(c2);
  const auto a = s1.run_job(small_job(), 30);
  const auto b = s2.run_job(small_job(), 30);
  EXPECT_NE(a.makespan_seconds, b.makespan_seconds);
}

TEST(SystemIntegration, InstanceSizeCapsParallelism) {
  // Twice the instance size roughly halves the task-processing phase.
  OddciSystem sys_small(small_config());
  OddciSystem sys_large(small_config());
  const auto small = sys_small.run_job(small_job(400), 20);
  const auto large = sys_large.run_job(small_job(400), 80);
  ASSERT_TRUE(small.completed);
  ASSERT_TRUE(large.completed);
  const double small_compute = small.makespan_seconds - small.wakeup_seconds;
  const double large_compute = large.makespan_seconds - large.wakeup_seconds;
  EXPECT_GT(small_compute, 2.0 * large_compute);
}

TEST(SystemIntegration, PartiallyTunedPopulationStillWorks) {
  SystemConfig config = small_config();
  config.tuned_fraction = 0.5;
  OddciSystem system(config);
  const auto result = system.run_job(small_job(), 30);
  EXPECT_TRUE(result.completed);
}

TEST(SystemIntegration, OversubscribedTargetNeverForms) {
  // Target bigger than the tuned population: the wakeup can never complete,
  // but the job still finishes on the nodes that did join.
  SystemConfig config = small_config();
  config.receivers = 20;
  OddciSystem system(config);
  const auto result =
      system.run_job(small_job(50), 40, sim::SimTime::from_hours(2));
  EXPECT_TRUE(result.completed);
  EXPECT_LT(result.final_instance_size, 40u);
}

TEST(SystemIntegration, SequentialJobsReuseThePlatform) {
  OddciSystem system(small_config());
  const auto first = system.run_job(small_job(100), 30);
  ASSERT_TRUE(first.completed);
  const auto second = system.run_job(small_job(100), 30,
                                     sim::SimTime::from_hours(4));
  EXPECT_TRUE(second.completed);
}

TEST(SystemIntegration, InUsePopulationIsSlower) {
  SystemConfig standby_cfg = small_config();
  standby_cfg.profile = dtv::DeviceProfile::stb_st7109();
  standby_cfg.initial_power = dtv::PowerMode::kStandby;
  SystemConfig inuse_cfg = standby_cfg;
  inuse_cfg.initial_power = dtv::PowerMode::kInUse;

  OddciSystem standby(standby_cfg), inuse(inuse_cfg);
  // Compute-heavy tasks so the execution phase dominates the makespan
  // regardless of exactly when the instance formally reaches its target.
  const workload::Job job = small_job(400, 5.0);
  const auto a = standby.run_job(job, 50, sim::SimTime::from_hours(8));
  const auto b = inuse.run_job(job, 50, sim::SimTime::from_hours(8));
  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b.completed);
  EXPECT_GT(b.makespan_seconds, a.makespan_seconds);
}

TEST(SystemIntegration, ConfigValidation) {
  SystemConfig config;
  config.receivers = 0;
  EXPECT_THROW(OddciSystem{config}, std::invalid_argument);
  config = SystemConfig{};
  config.tuned_fraction = 1.5;
  EXPECT_THROW(OddciSystem{config}, std::invalid_argument);
  config = SystemConfig{};
  config.initial_power = dtv::PowerMode::kOff;
  EXPECT_THROW(OddciSystem{config}, std::invalid_argument);
}

TEST(SystemIntegration, ShardedWindowMustNotExceedTheShortestWire) {
  // A window wider than the shortest cross-shard wire would clamp network
  // deliveries to later boundaries than their arrival.
  SystemConfig config;
  config.shards = 2;
  config.window = sim::SimTime::from_millis(20);
  try {
    config.validate();
    ADD_FAILURE() << "a 20 ms window over a 5 ms wire was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("window 20 ms"), std::string::npos) << what;
    EXPECT_NE(what.find("receiver_latency 50 ms"), std::string::npos) << what;
    EXPECT_NE(what.find("server_latency 5 ms"), std::string::npos) << what;
  }
  config.window = sim::SimTime::from_millis(5);
  EXPECT_NO_THROW(config.validate());
  // The auto window is floored at 1 ms, wider than a sub-millisecond wire.
  config.window = sim::SimTime::zero();
  config.server_latency = sim::SimTime::from_micros(500);
  EXPECT_EQ(config.kernel_window(), sim::SimTime::from_millis(1));
  EXPECT_THROW(config.validate(), std::invalid_argument);
  // A lone shard has no windows.
  config.shards = 1;
  EXPECT_NO_THROW(config.validate());
}

// busy_pna_count() finds agents under the AIT application id the
// Controller deploys them with, whatever that id is configured to.
TEST(SystemIntegration, BusyCountFollowsTheConfiguredApplicationId) {
  for (const std::uint32_t app_id : {0x4F44u, 0x1234u}) {
    SCOPED_TRACE(app_id);
    SystemConfig config = small_config();
    config.receivers = 400;
    config.controller.pna_application_id = app_id;
    OddciSystem system(config);
    system.controller().deploy_pna();
    system.kernel().run_until(system.kernel().now() + config.warmup);
    EXPECT_EQ(system.busy_pna_count(), 0u);

    InstanceSpec spec;
    spec.name = "busy";
    spec.target_size = 40;
    spec.image_size = util::Bits::from_megabytes(2);
    spec.heartbeat_interval = config.controller.default_heartbeat;
    const InstanceId id =
        system.provider().request_instance(spec, system.backend().node_id());
    system.kernel().run_until(system.kernel().now() +
                              sim::SimTime::from_seconds(600));
    const InstanceStatus* status = system.controller().status(id);
    ASSERT_NE(status, nullptr);
    ASSERT_TRUE(status->reached_target_at.has_value());
    EXPECT_GE(system.busy_pna_count(), spec.target_size);
  }
}

// The PNA counters are plain increments that run with observability off
// too, so the health ledger's heartbeat balance reads the same either way.
TEST(SystemIntegration, PnaCountersRunWithObservabilityOff) {
  const auto heartbeats = [](bool obs_enabled) {
    SystemConfig config = small_config();
    config.receivers = 400;
    config.obs.enabled = obs_enabled;
    OddciSystem system(config);
    system.controller().deploy_pna();
    system.kernel().run_until(system.kernel().now() + config.warmup +
                              sim::SimTime::from_seconds(120));
    return system.health_ledger().heartbeats_emitted;
  };
  const std::uint64_t with_obs = heartbeats(true);
  EXPECT_GT(with_obs, 0u);
  EXPECT_EQ(heartbeats(false), with_obs);
}

TEST(SystemIntegration, EfficiencyFormula) {
  RunResult r;
  r.makespan_seconds = 100.0;
  // E = n * p / (M * N) = 1000 * 1 / (100 * 20) = 0.5
  EXPECT_DOUBLE_EQ(r.efficiency(1000, 1.0, 20), 0.5);
  EXPECT_DOUBLE_EQ(r.efficiency(1000, 1.0, 0), 0.0);
  r.makespan_seconds = -1.0;
  EXPECT_DOUBLE_EQ(r.efficiency(1000, 1.0, 20), 0.0);
}

}  // namespace
}  // namespace oddci::core
