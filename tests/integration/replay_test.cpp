// Determinism-at-scale: the same seeded scenario, run twice in the same
// process, must produce bit-identical trajectories. This is the acceptance
// gate for the pooled-event kernel and the heartbeat cadence — any hidden
// dependence on heap-allocation order or slot recycling shows up here as a
// divergent counter.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/system.hpp"
#include "export_diff.hpp"
#include "obs/export.hpp"
#include "obs/trace_export.hpp"
#include "workload/job.hpp"

namespace oddci::core {
namespace {

struct Trajectory {
  std::uint64_t events_executed = 0;
  std::uint64_t events_scheduled = 0;
  std::uint64_t events_cancelled = 0;
  std::int64_t final_now_us = 0;
  bool completed = false;
  double wakeup_seconds = 0.0;
  double makespan_seconds = 0.0;
  std::size_t final_instance_size = 0;
  std::uint64_t results_received = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;
  std::int64_t bits_sent = 0;
  std::uint64_t aggregate_reports = 0;

  bool operator==(const Trajectory&) const = default;
};

Trajectory run_scenario(std::size_t receivers) {
  SystemConfig config;
  config.receivers = receivers;
  config.channels = 4;
  config.aggregators = 8;
  config.seed = 20260805;
  config.control.overshoot_margin = 1.3;
  OddciSystem system(config);

  const auto job = workload::make_uniform_job(
      "replay", util::Bits::from_megabytes(2), 400,
      util::Bits::from_bytes(512), util::Bits::from_bytes(512), 10.0);
  const auto result = system.run_job(job, 200);

  Trajectory t;
  t.events_executed = system.simulation().events_executed();
  t.events_scheduled = system.simulation().events_scheduled();
  t.events_cancelled = system.simulation().events_cancelled();
  t.final_now_us = system.simulation().now().micros();
  t.completed = result.completed;
  t.wakeup_seconds = result.wakeup_seconds;
  t.makespan_seconds = result.makespan_seconds;
  t.final_instance_size = result.final_instance_size;
  t.results_received = result.job.results_received;
  t.messages_sent = result.network.messages_sent;
  t.messages_delivered = result.network.messages_delivered;
  t.messages_dropped = result.network.messages_dropped;
  t.bits_sent = result.network.bits_sent;
  t.aggregate_reports = result.controller.aggregate_reports_received;
  return t;
}

TEST(Replay, SeededHundredThousandReceiverRunIsBitIdentical) {
  const Trajectory first = run_scenario(100'000);
  const Trajectory second = run_scenario(100'000);

  // Spelled out field by field so a divergence names the counter.
  EXPECT_EQ(first.events_executed, second.events_executed);
  EXPECT_EQ(first.events_scheduled, second.events_scheduled);
  EXPECT_EQ(first.events_cancelled, second.events_cancelled);
  EXPECT_EQ(first.final_now_us, second.final_now_us);
  EXPECT_EQ(first.completed, second.completed);
  EXPECT_EQ(first.wakeup_seconds, second.wakeup_seconds);
  EXPECT_EQ(first.makespan_seconds, second.makespan_seconds);
  EXPECT_EQ(first.final_instance_size, second.final_instance_size);
  EXPECT_EQ(first.results_received, second.results_received);
  EXPECT_EQ(first.messages_sent, second.messages_sent);
  EXPECT_EQ(first.messages_delivered, second.messages_delivered);
  EXPECT_EQ(first.messages_dropped, second.messages_dropped);
  EXPECT_EQ(first.bits_sent, second.bits_sent);
  EXPECT_EQ(first.aggregate_reports, second.aggregate_reports);
  EXPECT_EQ(first, second);

  // And the run must have done real work.
  EXPECT_TRUE(first.completed);
  EXPECT_GT(first.events_executed, 100'000u);
  EXPECT_GT(first.messages_delivered, 0u);
}

// The full fault matrix — channel faults, partitions, server and PNA
// crash-restarts, control corruption — driven by one seed, at 100k
// receivers, must replay byte for byte: identical metrics JSON and Chrome
// trace exports, and a job that loses or double-counts nothing.
TEST(Replay, SeededFaultMatrixExportsAreByteIdentical) {
  struct Export {
    std::string metrics_json;
    std::string chrome_trace;
    bool completed = false;
    std::uint64_t unique_results = 0;
    std::uint64_t tasks_failed = 0;
    std::uint64_t events_executed = 0;
  };

  auto run_matrix = [] {
    SystemConfig config;
    config.receivers = 100'000;
    config.channels = 4;
    config.aggregators = 8;
    config.seed = 20260805;
    config.control.overshoot_margin = 1.3;
    config.obs.trace = true;
    config.obs.trace_capacity = 1 << 18;
    config.fault.enabled = true;
    config.fault.message_loss = 0.01;
    config.fault.message_duplication = 0.01;
    config.fault.latency_spike_probability = 0.005;
    config.fault.partitions_per_hour = 3.0;
    config.fault.partition_duration = sim::SimTime::from_seconds(120);
    config.fault.controller_crash_at.push_back(
        sim::SimTime::from_seconds(500));
    config.fault.backend_crash_at.push_back(sim::SimTime::from_seconds(900));
    config.fault.aggregator_crashes_per_hour = 2.0;
    config.fault.pna_crashes_per_hour = 20.0;
    config.fault.pna_hangs_per_hour = 10.0;
    config.fault.control_corruptions_per_hour = 4.0;
    OddciSystem system(config);

    const auto job = workload::make_uniform_job(
        "fault-matrix", util::Bits::from_megabytes(2), 400,
        util::Bits::from_bytes(512), util::Bits::from_bytes(512), 10.0);
    const auto result = system.run_job(job, 200);

    Export e;
    e.metrics_json = obs::to_json(result.metrics);
    e.chrome_trace = obs::to_chrome_trace(*system.flight_recorder());
    e.completed = result.completed;
    e.unique_results = result.job.results_received -
                       result.job.duplicate_results - result.job.late_results;
    e.tasks_failed = result.job.tasks_failed;
    e.events_executed = system.simulation().events_executed();
    return e;
  };

  const Export first = run_matrix();
  const Export second = run_matrix();

  EXPECT_EQ(first.events_executed, second.events_executed);
  EXPECT_TRUE(
      test_support::same_export(first.metrics_json, second.metrics_json));
  EXPECT_TRUE(
      test_support::same_export(first.chrome_trace, second.chrome_trace));

  // Zero lost, zero double-counted, despite the whole matrix firing.
  EXPECT_TRUE(first.completed);
  EXPECT_EQ(first.unique_results, 400u);
  EXPECT_EQ(first.tasks_failed, 0u);
  // The matrix actually fired (exports embed the fault.* counters, so the
  // byte-compare above already pins their exact values).
  EXPECT_NE(first.metrics_json.find("fault.messages_lost"),
            std::string::npos);
}

TEST(Replay, DifferentSeedsDiverge) {
  // Sanity check that the trajectory fingerprint is actually sensitive:
  // with another seed the message counts should not all coincide.
  SystemConfig config;
  config.receivers = 2'000;
  config.channels = 2;
  config.aggregators = 2;
  config.control.overshoot_margin = 1.3;

  auto fingerprint = [&](std::uint64_t seed) {
    config.seed = seed;
    OddciSystem system(config);
    const auto job = workload::make_uniform_job(
        "replay", util::Bits::from_megabytes(2), 100,
        util::Bits::from_bytes(512), util::Bits::from_bytes(512), 10.0);
    (void)system.run_job(job, 50);
    return system.simulation().events_executed();
  };
  EXPECT_NE(fingerprint(1), fingerprint(2));
}

}  // namespace
}  // namespace oddci::core
