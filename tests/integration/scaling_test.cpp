// Integration tests for the scale-oriented extensions: multi-channel
// distribution (Section 4.3) and the heartbeat-aggregation tier (the
// paper's future-work answer to the Controller bottleneck).

#include <gtest/gtest.h>

#include "core/system.hpp"
#include "workload/job.hpp"

namespace oddci::core {
namespace {

workload::Job small_job(std::size_t tasks = 200, double p = 10.0) {
  return workload::make_uniform_job(
      "scale", util::Bits::from_megabytes(2), tasks,
      util::Bits::from_bytes(512), util::Bits::from_bytes(512), p);
}

TEST(MultiChannel, JobCompletesAcrossChannels) {
  SystemConfig config;
  config.receivers = 120;
  config.channels = 3;
  config.seed = 41;
  config.control.overshoot_margin = 1.3;
  OddciSystem system(config);
  EXPECT_EQ(system.channels().size(), 3u);
  const auto result = system.run_job(small_job(), 60);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.job.results_received, 200u);
}

TEST(MultiChannel, ReceiversSpreadAcrossChannels) {
  SystemConfig config;
  config.receivers = 90;
  config.channels = 3;
  config.seed = 42;
  OddciSystem system(config);
  for (const auto& channel : system.channels()) {
    EXPECT_EQ(channel->tuned_count(), 30u);
  }
}

TEST(MultiChannel, MoreChannelsReachMoreReceiversThanOne) {
  // With per-channel tuning, a single channel only reaches its own
  // audience; an instance larger than one channel's audience needs the
  // multi-channel deployment.
  SystemConfig config;
  config.receivers = 120;
  config.channels = 3;
  config.seed = 43;
  config.control.overshoot_margin = 1.3;
  OddciSystem system(config);
  system.controller().deploy_pna();
  system.simulation().run_until(sim::SimTime::from_seconds(120));

  InstanceSpec spec;
  spec.name = "wide";
  spec.target_size = 100;  // more than any single 40-receiver channel
  spec.image_size = util::Bits::from_megabytes(1);
  const auto id =
      system.provider().request_instance(spec, system.backend().node_id());
  system.simulation().run_until(sim::SimTime::from_minutes(10));
  EXPECT_GE(system.controller().status(id)->current_size, 100u);
}

TEST(MultiChannel, ZeroChannelsRejected) {
  SystemConfig config;
  config.channels = 0;
  EXPECT_THROW(OddciSystem{config}, std::invalid_argument);
}

TEST(Aggregation, JobCompletesThroughAggregators) {
  SystemConfig config;
  config.receivers = 150;
  config.aggregators = 4;
  config.seed = 44;
  config.control.overshoot_margin = 1.3;
  OddciSystem system(config);
  EXPECT_EQ(system.aggregators().size(), 4u);
  const auto result = system.run_job(small_job(), 60);
  EXPECT_TRUE(result.completed);

  // All agent traffic went through the tier: the Controller received
  // consolidated reports, not raw heartbeats.
  EXPECT_EQ(result.controller.heartbeats_received, 0u);
  EXPECT_GT(result.controller.aggregate_reports_received, 0u);
  std::uint64_t forwarded = 0;
  for (const auto& agg : system.aggregators()) {
    EXPECT_GT(agg->stats().heartbeats_received, 0u);
    forwarded += agg->stats().entries_forwarded;
  }
  EXPECT_GT(forwarded, 0u);
}

TEST(Aggregation, ControllerMessageLoadDropsMassively) {
  auto controller_messages = [](std::size_t aggregators) {
    SystemConfig config;
    config.receivers = 300;
    config.aggregators = aggregators;
    config.seed = 45;
    config.controller.default_heartbeat = sim::SimTime::from_seconds(10);
    OddciSystem system(config);
    system.controller().deploy_pna();
    system.simulation().run_until(sim::SimTime::from_minutes(10));
    return system.controller().stats().heartbeats_received +
           system.controller().stats().aggregate_reports_received;
  };
  const auto direct = controller_messages(0);
  const auto aggregated = controller_messages(4);
  // 300 nodes at 10 s intervals vs 4 reports per 10 s window.
  EXPECT_GT(direct, 10 * aggregated);
}

TEST(Aggregation, TrimmingStillWorksThroughTier) {
  // Unicast resets bypass the aggregators (the Controller replies straight
  // to the PNA's direct-channel address), so oversized instances shrink.
  SystemConfig config;
  config.receivers = 100;
  config.aggregators = 2;
  config.seed = 46;
  config.control.overshoot_margin = 3.0;  // deliberate heavy overshoot
  OddciSystem system(config);
  system.controller().deploy_pna();
  system.simulation().run_until(sim::SimTime::from_seconds(120));

  InstanceSpec spec;
  spec.name = "trim-through-tier";
  spec.target_size = 20;
  spec.image_size = util::Bits::from_megabytes(1);
  const auto id =
      system.provider().request_instance(spec, system.backend().node_id());
  system.simulation().run_until(sim::SimTime::from_minutes(15));
  EXPECT_EQ(system.controller().status(id)->current_size, 20u);
  EXPECT_GT(system.controller().stats().unicast_resets, 0u);
}

TEST(OddciIptv, JobCompletesOverMulticast) {
  SystemConfig config;
  config.receivers = 120;
  config.technology = BroadcastTechnology::kIpMulticast;
  config.seed = 48;
  config.control.overshoot_margin = 1.3;
  OddciSystem system(config);
  const auto result = system.run_job(small_job(), 60);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.job.results_received, 200u);
  EXPECT_GT(result.wakeup_seconds, 0.0);
}

TEST(OddciIptv, WakeupFasterThanCarousel) {
  // Block-coded multicast has no carousel phase wait: wakeup ~ I/beta
  // (plus FEC) instead of ~1.5 I/beta. One carousel run can land within
  // the FEC overhead of its best case I/beta and beat multicast, so the
  // claim is about the mean over seeds.
  auto mean_wakeup = [](BroadcastTechnology tech) {
    double sum = 0.0;
    for (std::uint64_t seed = 49; seed < 54; ++seed) {
      SystemConfig config;
      config.receivers = 120;
      config.technology = tech;
      config.seed = seed;
      config.control.overshoot_margin = 1.3;
      OddciSystem system(config);
      const auto result = system.run_job(small_job(50, 30.0), 60,
                                         sim::SimTime::from_hours(12));
      EXPECT_GT(result.wakeup_seconds, 0.0) << "seed " << seed;
      sum += result.wakeup_seconds;
    }
    return sum / 5.0;
  };
  const double dtv = mean_wakeup(BroadcastTechnology::kDtvCarousel);
  const double iptv = mean_wakeup(BroadcastTechnology::kIpMulticast);
  EXPECT_LT(iptv, dtv);
}

TEST(OddciIptv, LossyMulticastStillCompletes) {
  SystemConfig config;
  config.receivers = 100;
  config.technology = BroadcastTechnology::kIpMulticast;
  config.multicast.block_loss = 0.15;
  config.seed = 50;
  config.control.overshoot_margin = 1.3;
  OddciSystem system(config);
  const auto result = system.run_job(small_job(100, 5.0), 40);
  EXPECT_TRUE(result.completed);
}

TEST(Aggregation, ChurnRecoveryThroughTier) {
  SystemConfig config;
  config.receivers = 200;
  config.aggregators = 3;
  config.seed = 47;
  config.control.overshoot_margin = 1.3;
  ChurnOptions churn;
  churn.mean_on_seconds = 1200;
  churn.mean_off_seconds = 600;
  config.churn = churn;
  OddciSystem system(config);
  const auto result =
      system.run_job(small_job(300, 10.0), 40, sim::SimTime::from_hours(12));
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.job.results_received, 300u);
}

}  // namespace
}  // namespace oddci::core
