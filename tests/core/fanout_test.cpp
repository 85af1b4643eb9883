// System-level contract of the broadcast fan-out: a deployed population
// shares one decoded, once-verified control message per kernel shard (the
// acceptance criterion: `verify_cache.hit` == N-K for N receivers on K
// shards handling one broadcast), and every heartbeat is one acquire from
// the shard's pool, served from the ring once steady state laps it.

#include <gtest/gtest.h>

#include <string>

#include "core/system.hpp"

namespace oddci::core {
namespace {

SystemConfig fanout_config() {
  SystemConfig config;
  config.receivers = 400;
  config.channels = 2;
  config.aggregators = 4;
  config.seed = 20260806;
  // Fast heartbeats so the population laps the 4096-slot pool ring well
  // within the simulated window (400 agents * ~60 beats).
  config.controller.default_heartbeat = sim::SimTime::from_seconds(10);
  return config;
}

class FanoutFastPath : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FanoutFastPath, BroadcastVerifiesOnceAcrossThePopulation) {
  SystemConfig config = fanout_config();
  config.shards = GetParam();
  OddciSystem system(config);

  // One broadcast: the PNA deployment hello, read by all 400 receivers.
  system.controller().deploy_pna();
  system.kernel().run_until(sim::SimTime::from_minutes(10));

  const auto snap = system.metrics_snapshot();
  const auto seen = snap.counter_value("pna.control_messages_seen");
  EXPECT_EQ(seen, config.receivers);
  // Exactly one signature hash per shard's cache for the whole
  // population...
  EXPECT_EQ(snap.counter_value("verify_cache.miss"), config.shards);
  // ...and every other receiver was served from its shard's cache.
  EXPECT_EQ(snap.counter_value("verify_cache.hit"), seen - config.shards);
  EXPECT_EQ(snap.counter_value("pna.signature_failures", 0), 0u);

  // Every heartbeat is one pool acquire; steady state recycles pooled
  // messages instead of allocating.
  EXPECT_EQ(snap.counter_value("heartbeat.pool_reused") +
                snap.counter_value("heartbeat.pool_allocated"),
            snap.counter_value("pna.heartbeats_sent"));
  EXPECT_GT(snap.counter_value("heartbeat.pool_reused"), 0u);
  EXPECT_GT(snap.counter_value("heartbeat.pooled_bytes"), 0u);
  // The writer-reuse cell is registered (value depends on how many controls
  // the Controller staged after the first).
  EXPECT_NE(snap.find_counter("wire.writer_reuse"), nullptr);
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, FanoutFastPath,
                         ::testing::Values(std::size_t{1}, std::size_t{4}),
                         [](const auto& shard_count) {
                           return "K" + std::to_string(shard_count.param);
                         });

TEST(FanoutFastPath, DistinctBroadcastsEachCostOneHash) {
  // A second, different control message (an instance wakeup) must miss the
  // cache once and then be shared by every receiver that handles it.
  SystemConfig config = fanout_config();
  OddciSystem system(config);
  system.controller().deploy_pna();
  system.simulation().run_until(sim::SimTime::from_seconds(120));
  const auto after_deploy =
      system.metrics_snapshot().counter_value("verify_cache.miss");
  EXPECT_EQ(after_deploy, 1u);

  InstanceSpec spec;
  spec.name = "fanout-wakeup";
  spec.target_size = 40;
  spec.image_size = util::Bits::from_megabytes(1);
  system.provider().request_instance(spec, system.backend().node_id());
  system.simulation().run_until(sim::SimTime::from_minutes(10));

  const auto snap = system.metrics_snapshot();
  // Wakeup (and any follow-up controls) each hashed once; the population
  // count dwarfs the distinct-message count.
  const auto misses = snap.counter_value("verify_cache.miss");
  const auto hits = snap.counter_value("verify_cache.hit");
  const auto seen = snap.counter_value("pna.control_messages_seen");
  EXPECT_GT(misses, 1u);
  EXPECT_LT(misses, 16u);
  EXPECT_EQ(hits + misses, seen);
}

}  // namespace
}  // namespace oddci::core
