#include <gtest/gtest.h>

#include "core/system.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "workload/job.hpp"

namespace oddci::core {
namespace {

// --- RunResult::efficiency edge cases ---------------------------------------

TEST(RunResultEfficiency, ZeroNodesYieldsZero) {
  RunResult result;
  result.makespan_seconds = 100.0;
  EXPECT_DOUBLE_EQ(result.efficiency(1000, 30.0, 0), 0.0);
}

TEST(RunResultEfficiency, UnfinishedJobYieldsZero) {
  RunResult result;  // makespan stays at the "did not finish" sentinel
  EXPECT_LT(result.makespan_seconds, 0.0);
  EXPECT_DOUBLE_EQ(result.efficiency(1000, 30.0, 100), 0.0);
  result.makespan_seconds = 0.0;
  EXPECT_DOUBLE_EQ(result.efficiency(1000, 30.0, 100), 0.0);
}

TEST(RunResultEfficiency, MatchesEquationTwo) {
  RunResult result;
  result.makespan_seconds = 600.0;
  // E = n * p / (M * N) = 1000 * 30 / (600 * 100) = 0.5
  EXPECT_DOUBLE_EQ(result.efficiency(1000, 30.0, 100), 0.5);
}

// --- SystemConfig validation of the controller and policy knobs -------------

TEST(SystemConfigValidate, RejectsBadControllerKnobs) {
  SystemConfig config;
  config.control.overshoot_margin = 0.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = SystemConfig{};
  config.controller.default_heartbeat = sim::SimTime::zero();
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = SystemConfig{};
  config.control.monitor_interval = sim::SimTime::zero();
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = SystemConfig{};
  config.obs.sample_interval = sim::SimTime::zero();
  EXPECT_THROW(config.validate(), std::invalid_argument);
  // ...unless observability is off entirely.
  config.obs.enabled = false;
  EXPECT_NO_THROW(config.validate());
}

// --- bounds-checked channel accessor ----------------------------------------

TEST(OddciSystemChannel, BoundsChecked) {
  SystemConfig config;
  config.receivers = 10;
  config.channels = 2;
  OddciSystem system(config);
  EXPECT_NO_THROW((void)system.channel());
  EXPECT_NO_THROW((void)system.channel(1));
  EXPECT_THROW((void)system.channel(2), std::out_of_range);
}

// --- acceptance: 100k-receiver run with full instrumentation ----------------

TEST(SystemMetrics, HundredThousandReceiverRunExportsFullSnapshot) {
  SystemConfig config;
  config.receivers = 100'000;
  config.channels = 8;
  config.aggregators = 16;
  config.seed = 99;
  config.control.overshoot_margin = 1.3;
  // Sample fast enough to watch the join wave, not just steady state.
  config.obs.sample_interval = sim::SimTime::from_seconds(5);

  OddciSystem system(config);
  // Several task waves so the run spans multiple sampler intervals after
  // the instance forms.
  const workload::Job job = workload::make_uniform_job(
      "acceptance", util::Bits::from_megabytes(2), 30'000,
      util::Bits::from_bytes(512), util::Bits::from_bytes(512), 10.0);
  const RunResult result = system.run_job(job, 10'000);
  ASSERT_TRUE(result.completed);

  const obs::MetricsSnapshot& m = result.metrics;
  // Instance-size series tracked the formation of a 10k-member instance.
  const obs::SeriesSample* sizes = m.find_series("series.instance_size");
  ASSERT_NE(sizes, nullptr);
  ASSERT_FALSE(sizes->values.empty());
  double peak = 0.0;
  for (double v : sizes->values) peak = std::max(peak, v);
  EXPECT_GE(peak, 9'000.0);

  // Join latency histogram populated by every member admission.
  const obs::HistogramSample* joins =
      m.find_histogram("controller.join_latency_seconds");
  ASSERT_NE(joins, nullptr);
  EXPECT_GE(joins->count, 9'000u);
  EXPECT_GT(joins->sum, 0.0);

  // Heartbeat counters: the population reported, the controller heard.
  EXPECT_GT(m.counter_value("pna.heartbeats_sent"), 100'000u);
  EXPECT_GT(m.counter_value("controller.heartbeats_received") +
                m.counter_value("controller.aggregate_reports_received"),
            0u);

  // Legacy RunResult views mirror the registry cells.
  EXPECT_EQ(result.controller.heartbeats_received,
            m.counter_value("controller.heartbeats_received"));
  EXPECT_EQ(result.network.messages_delivered,
            m.counter_value("net.messages_delivered"));

  // And the whole snapshot survives a JSON export round-trip.
  const std::string path =
      ::testing::TempDir() + "/oddci_acceptance_metrics.json";
  obs::write_json(path, m);
  EXPECT_EQ(obs::read_json(path), m);
}

}  // namespace
}  // namespace oddci::core
