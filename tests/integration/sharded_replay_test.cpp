// Sharded-kernel determinism: a seeded scenario on K worker shards must
// replay byte for byte — identical metrics JSON and Chrome-trace exports —
// for any fixed K, including across thread-scheduling noise. Different K
// are allowed (expected, even) to produce different trajectories; each K
// is its own deterministic universe. This is the acceptance gate for the
// conservative time-window barrier and the mailbox drain order.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "export_diff.hpp"
#include "obs/export.hpp"
#include "obs/trace_export.hpp"
#include "workload/job.hpp"

namespace oddci::core {
namespace {

struct Export {
  std::string metrics_json;
  std::string chrome_trace;
  bool completed = false;
  std::uint64_t unique_results = 0;
  std::uint64_t cross_posts = 0;
  std::uint64_t windows_run = 0;
  std::int64_t final_now_us = 0;
};

/// Field by field; an export mismatch names the first differing byte.
void expect_identical(const Export& a, const Export& b) {
  EXPECT_TRUE(test_support::same_export(a.metrics_json, b.metrics_json));
  EXPECT_TRUE(test_support::same_export(a.chrome_trace, b.chrome_trace));
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.unique_results, b.unique_results);
  EXPECT_EQ(a.cross_posts, b.cross_posts);
  EXPECT_EQ(a.windows_run, b.windows_run);
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

Export run_scenario(const SystemConfig& config) {
  OddciSystem system(config);
  const auto job = workload::make_uniform_job(
      "sharded-replay", util::Bits::from_megabytes(2), 100,
      util::Bits::from_bytes(512), util::Bits::from_bytes(512), 10.0);
  const auto result = system.run_job(job, 50);

  Export e;
  e.metrics_json = obs::to_json(result.metrics);
  e.chrome_trace = obs::to_chrome_trace(
      obs::merge_events(system.flight_recorders()));
  e.completed = result.completed;
  e.unique_results = result.job.results_received -
                     result.job.duplicate_results - result.job.late_results;
  e.cross_posts = system.kernel().cross_posts();
  e.windows_run = system.kernel().windows_run();
  e.final_now_us = system.kernel().now().micros();
  return e;
}

class ShardedReplay : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ShardedReplay, SameSeedSameShardCountExportsAreByteIdentical) {
  const std::size_t shards = GetParam();
  const Export first = run_scenario(scenario(shards));
  const Export second = run_scenario(scenario(shards));

  expect_identical(first, second);

  // And the run did real work.
  EXPECT_TRUE(first.completed);
  EXPECT_EQ(first.unique_results, 100u);
  if (shards > 1) {
    // The population actually spans shards: heartbeats stay local by
    // placement, but control-plane hops (joins, task traffic) cross.
    EXPECT_GT(first.cross_posts, 0u);
    EXPECT_GT(first.windows_run, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardedReplay,
                         ::testing::Values(std::size_t{1}, std::size_t{2},
                                           std::size_t{8}),
                         [](const auto& param_info) {
                           return "K" + std::to_string(param_info.param);
                         });

// shards = 1 must take the classic single-kernel path exactly: same
// trajectory as a config that never mentions sharding. (Equality with the
// pre-refactor tree is pinned by Replay.SeededHundredThousandReceiver...,
// whose scenario and fingerprint are unchanged.)
TEST(ShardedReplay, SingleShardIsTheClassicKernel) {
  SystemConfig classic = scenario(1);
  classic.obs.trace = true;
  const Export one = run_scenario(classic);

  SystemConfig untouched = scenario(1);
  untouched.shards = 1;  // explicit default
  untouched.window = sim::SimTime::zero();
  const Export defaulted = run_scenario(untouched);

  expect_identical(one, defaulted);
  EXPECT_EQ(one.cross_posts, 0u);
  EXPECT_EQ(one.windows_run, 0u);
}

// The fault matrix on a sharded kernel: per-shard wire streams, plan
// events as coordinator global tasks. Still byte-replayable at fixed K,
// and the job still loses nothing.
TEST(ShardedReplay, FaultMatrixOnFourShardsIsByteIdentical) {
  auto build = [] {
    SystemConfig config = scenario(4);
    config.fault.enabled = true;
    config.fault.message_loss = 0.01;
    config.fault.message_duplication = 0.01;
    config.fault.latency_spike_probability = 0.005;
    config.fault.partitions_per_hour = 6.0;
    config.fault.partition_duration = sim::SimTime::from_seconds(60);
    config.fault.controller_crash_at.push_back(
        sim::SimTime::from_seconds(150));
    config.fault.pna_crashes_per_hour = 20.0;
    config.fault.control_corruptions_per_hour = 4.0;
    return config;
  };

  const Export first = run_scenario(build());
  const Export second = run_scenario(build());

  expect_identical(first, second);
  EXPECT_TRUE(first.completed);
  EXPECT_EQ(first.unique_results, 100u);
  EXPECT_NE(first.metrics_json.find("fault.messages_lost"),
            std::string::npos);
}

// Churn (power cycling) across shards: re-tunes route through the
// mailboxes with stable listener ids; replay must stay exact.
TEST(ShardedReplay, ChurningPopulationOnTwoShardsIsByteIdentical) {
  auto build = [] {
    SystemConfig config = scenario(2);
    config.receivers = 4'000;
    ChurnOptions churn;
    churn.mean_on_seconds = 300.0;
    churn.mean_off_seconds = 120.0;
    config.churn = churn;
    return config;
  };

  const Export first = run_scenario(build());
  const Export second = run_scenario(build());
  expect_identical(first, second);
  EXPECT_TRUE(first.completed);
}

// IPTV multicast on four shards: each commit freezes a capsule with the
// sessions' acquisition times, and each shard's receivers read from it
// with keyed draws. The iptv_aggregated scenario's shape completes and
// replays byte for byte.
TEST(ShardedReplay, IptvAggregatedOnFourShardsIsByteIdentical) {
  auto build = [] {
    SystemConfig config = scenario(4);
    config.technology = BroadcastTechnology::kIpMulticast;
    config.channels = 2;
    config.receivers = 1'200;
    config.aggregators = 4;
    return config;
  };
  const auto run = [](const SystemConfig& config) {
    OddciSystem system(config);
    const auto job = workload::make_uniform_job(
        "iptv", util::Bits::from_megabytes(10), 3'000,
        util::Bits::from_bytes(512), util::Bits::from_bytes(512), 20.0);
    const auto result = system.run_job(job, 300);
    EXPECT_TRUE(result.completed);
    EXPECT_EQ(result.job.results_received - result.job.duplicate_results -
                  result.job.late_results,
              3'000u);
    EXPECT_GT(system.kernel().cross_posts(), 0u);
    return obs::to_json(result.metrics);
  };
  const std::string first = run(build());
  EXPECT_TRUE(test_support::same_export(run(build()), first));
}

// Receivers home on the shard of the aggregator they heartbeat to,
// aggregators[node id % A], also when a relay tier registers ahead of
// them and shifts every receiver's node id by the relay count. These
// relay counts (2, 4, 2) are not multiples of K.
TEST(ShardedReplay, ReceiversShareTheirAggregatorsShardUnderARelayTier) {
  struct Shape {
    std::size_t aggregators, tree_fanin, shards;
  };
  for (const Shape shape : {Shape{16, 8, 4}, Shape{16, 4, 8}, Shape{8, 4, 4}}) {
    SCOPED_TRACE("A" + std::to_string(shape.aggregators) + " fanin" +
                 std::to_string(shape.tree_fanin) + " K" +
                 std::to_string(shape.shards));
    SystemConfig config = scenario(shape.shards);
    config.receivers = 400;
    config.aggregators = shape.aggregators;
    config.heartbeat.mode = HeartbeatMode::kDelta;
    config.heartbeat.tree_fanin = shape.tree_fanin;
    config.obs.enabled = false;
    config.obs.trace = false;
    OddciSystem system(config);
    ASSERT_FALSE(system.relays().empty());
    const net::Network& network = system.network();
    std::size_t misplaced = 0;
    for (const auto& receiver : system.receivers()) {
      const net::NodeId id = receiver->node_id();
      const auto& home = system.aggregators()[id % shape.aggregators];
      if (network.shard_of(id) != network.shard_of(home->node_id())) {
        ++misplaced;
      }
    }
    EXPECT_EQ(misplaced, 0u);
  }
}

// Every metric name of a run, tagged with its kind.
std::set<std::string> schema_of(const obs::MetricsSnapshot& m) {
  std::set<std::string> names;
  for (const auto& c : m.counters) names.insert("counter " + c.name);
  for (const auto& g : m.gauges) names.insert("gauge " + g.name);
  for (const auto& h : m.histograms) names.insert("histogram " + h.name);
  for (const auto& s : m.series) names.insert("series " + s.name);
  return names;
}

// One registration path serves every shard count, so a run exports the
// same metric names at K = 1 as at K > 1. The scenario turns on every
// conditionally registered group: paced heartbeats, faults with forgers,
// verification, the return channel, churn and tracing.
TEST(ShardedReplay, MetricSchemaIsTheSameAtEveryShardCount) {
  const auto run = [](std::size_t shards) {
    SystemConfig config = scenario(shards);
    config.receivers = 4'000;
    config.heartbeat.paced = true;
    config.return_channel.enabled = true;
    ChurnOptions churn;
    churn.mean_on_seconds = 600.0;
    churn.mean_off_seconds = 120.0;
    config.churn = churn;
    config.fault.enabled = true;
    config.fault.message_loss = 0.01;
    config.fault.pna_crashes_per_hour = 10.0;
    config.fault.byzantine_forger_fraction = 0.05;
    config.verify.enabled = true;
    OddciSystem system(config);
    const auto job = workload::make_uniform_job(
        "schema", util::Bits::from_megabytes(2), 60,
        util::Bits::from_bytes(512), util::Bits::from_bytes(512), 10.0);
    return schema_of(
        system.run_job(job, 30, sim::SimTime::from_hours(2)).metrics);
  };

  const std::set<std::string> one = run(1);
  for (const char* name :
       {"counter pna.heartbeats_paced", "counter pna.results_forged",
        "counter recovery.result_retries", "counter net.uplink_queue_dropped",
        "counter verify_cache.hit", "histogram pna.acquire_latency_seconds",
        "series series.heartbeat_rate"}) {
    EXPECT_EQ(one.count(name), 1u) << name;
  }
  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("K" + std::to_string(shards));
    const std::set<std::string> many = run(shards);
    // The names only one side exports; empty when the schemas match.
    std::vector<std::string> differ;
    std::set_symmetric_difference(one.begin(), one.end(), many.begin(),
                                  many.end(), std::back_inserter(differ));
    EXPECT_EQ(differ, std::vector<std::string>{});
  }
}

}  // namespace
}  // namespace oddci::core
