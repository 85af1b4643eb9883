// The profiler's determinism boundary: turning the kernel profiler on
// must not perturb the simulation by a single byte. Same seed, same K,
// profiler off vs on — the metrics JSON and Chrome-trace exports compare
// byte-identical, with and without the PR 5 fault matrix. Also the health
// auditor's end-to-end contract: clean report on an honest run, critical
// report when the run's loss accounting is tampered with.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/system.hpp"
#include "export_diff.hpp"
#include "obs/export.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_export.hpp"
#include "workload/job.hpp"

namespace oddci::core {
namespace {

struct Export {
  std::string metrics_json;
  std::string chrome_trace;
  bool completed = false;
  std::int64_t final_now_us = 0;
};

void expect_same_exports(const Export& a, const Export& b) {
  EXPECT_TRUE(test_support::same_export(a.metrics_json, b.metrics_json));
  EXPECT_TRUE(test_support::same_export(a.chrome_trace, b.chrome_trace));
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.final_now_us, b.final_now_us);
}

SystemConfig scenario(std::size_t shards) {
  SystemConfig config;
  config.receivers = 10'000;
  config.channels = 4;
  config.aggregators = 8;
  config.seed = 20260809;
  config.control.overshoot_margin = 1.3;
  config.obs.trace = true;
  config.obs.trace_capacity = 1 << 16;
  config.shards = shards;
  return config;
}

SystemConfig fault_matrix(std::size_t shards) {
  SystemConfig config = scenario(shards);
  config.fault.enabled = true;
  config.fault.message_loss = 0.01;
  config.fault.message_duplication = 0.01;
  config.fault.latency_spike_probability = 0.005;
  config.fault.partitions_per_hour = 6.0;
  config.fault.partition_duration = sim::SimTime::from_seconds(60);
  config.fault.controller_crash_at.push_back(sim::SimTime::from_seconds(150));
  config.fault.pna_crashes_per_hour = 20.0;
  config.fault.control_corruptions_per_hour = 4.0;
  return config;
}

struct Outcome {
  Export exported;
  obs::HealthReport health;
  obs::ProfileSnapshot profile;
};

Outcome run_scenario(const SystemConfig& config) {
  OddciSystem system(config);
  const auto job = workload::make_uniform_job(
      "profiler-determinism", util::Bits::from_megabytes(2), 100,
      util::Bits::from_bytes(512), util::Bits::from_bytes(512), 10.0);
  const auto result = system.run_job(job, 50);

  Outcome run;
  run.exported.metrics_json = obs::to_json(result.metrics);
  run.exported.chrome_trace =
      obs::to_chrome_trace(obs::merge_events(system.flight_recorders()));
  run.exported.completed = result.completed;
  run.exported.final_now_us = system.kernel().now().micros();
  run.health = result.health;
  run.profile = system.profile_snapshot();
  return run;
}

class ProfilerByteIdentity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ProfilerByteIdentity, ProfilerOnAndOffExportTheSameBytes) {
  const std::size_t shards = GetParam();

  SystemConfig off = scenario(shards);
  off.obs.profile = false;
  SystemConfig on = scenario(shards);
  on.obs.profile = true;

  const Outcome plain = run_scenario(off);
  const Outcome profiled = run_scenario(on);

  expect_same_exports(plain.exported, profiled.exported);
  EXPECT_TRUE(plain.exported.completed);

  // The profiled run actually measured something...
  EXPECT_EQ(profiled.profile.shards, shards);
  EXPECT_GE(profiled.profile.runs, 1u);  // run_job may slice run_until
  EXPECT_GT(profiled.profile.run_wall_seconds, 0.0);
  EXPECT_GT(profiled.profile.execute_seconds_total(), 0.0);
  if (shards > 1) {
    EXPECT_GT(profiled.profile.windows, 0u);
  }
  // ...and the unprofiled run has nothing: the snapshot is empty, not
  // secretly collected.
  EXPECT_EQ(plain.profile.runs, 0u);
  EXPECT_EQ(plain.profile.run_wall_seconds, 0.0);
}

TEST_P(ProfilerByteIdentity, ProfilerOnAndOffMatchUnderTheFaultMatrix) {
  const std::size_t shards = GetParam();

  SystemConfig off = fault_matrix(shards);
  off.obs.profile = false;
  SystemConfig on = fault_matrix(shards);
  on.obs.profile = true;

  const Outcome plain = run_scenario(off);
  const Outcome profiled = run_scenario(on);

  expect_same_exports(plain.exported, profiled.exported);
  EXPECT_TRUE(plain.exported.completed);
  EXPECT_NE(plain.exported.metrics_json.find("fault.messages_lost"),
            std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ProfilerByteIdentity,
                         ::testing::Values(std::size_t{1}, std::size_t{4}),
                         [](const auto& param_info) {
                           return "K" + std::to_string(param_info.param);
                         });

// The auditor passes honest runs: conservation holds fault-off and under
// the full fault matrix (losses are counted, so the books still balance).
TEST(HealthAudit, HonestRunsReportClean) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    const Outcome plain = run_scenario(scenario(shards));
    EXPECT_TRUE(plain.health.ok())
        << "K=" << shards << "\n"
        << plain.health.to_text();
    EXPECT_GT(plain.health.samples, 0u);

    const Outcome faulted = run_scenario(fault_matrix(shards));
    EXPECT_TRUE(faulted.health.ok())
        << "K=" << shards << " (fault matrix)\n"
        << faulted.health.to_text();
  }
}

// Seeded violation: under-report injected losses and the message
// conservation check must flag the run as critical, with the first
// violating sample timestamped.
TEST(HealthAudit, LossUndercountIsFlaggedCritical) {
  SystemConfig config = fault_matrix(4);
  config.obs.health_tamper_lost = 5;
  const Outcome tampered = run_scenario(config);

  EXPECT_FALSE(tampered.health.ok());
  EXPECT_EQ(tampered.health.worst(), obs::HealthSeverity::kCritical);
  EXPECT_GE(tampered.health.first_violation_seconds, 0.0);
  EXPECT_NE(tampered.health.to_text().find("net.message_conservation"),
            std::string::npos);
}

}  // namespace
}  // namespace oddci::core
