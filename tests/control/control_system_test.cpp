// System-level gates for the pluggable DecisionEngine: the default static
// engine must be indistinguishable from the pre-engine Controller, the
// proportional engine must actually converge under churn without grow/trim
// oscillation, Phi-driven admission must keep communication-heavy jobs off
// the air entirely, and every engine must replay byte-identically per
// (seed, shard count) — the bandit included, whose only randomness is the
// dedicated control.policy stream.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "control/policy.hpp"
#include "core/system.hpp"
#include "obs/export.hpp"
#include "obs/trace_export.hpp"
#include "workload/job.hpp"

namespace oddci::core {
namespace {

struct Export {
  std::string metrics_json;
  std::string chrome_trace;
  std::uint64_t events_executed = 0;
  bool completed = false;
};

Export run_traced(SystemConfig config) {
  config.obs.trace = true;
  config.obs.trace_capacity = 1 << 16;
  OddciSystem system(config);
  const auto job = workload::make_uniform_job(
      "control-gate", util::Bits::from_megabytes(2), 200,
      util::Bits::from_bytes(512), util::Bits::from_bytes(512), 10.0);
  const auto result = system.run_job(job, 100);

  Export e;
  e.metrics_json = obs::to_json(result.metrics);
  e.chrome_trace = obs::to_chrome_trace(*system.flight_recorder());
  e.events_executed = system.simulation().events_executed();
  e.completed = result.completed;
  return e;
}

// Selecting the static engine explicitly — even with a nonzero policy
// seed — must be byte-identical to the default-constructed config: the
// static engine draws no randomness, emits no trace events, and registers
// no metric cells, so the engine plumbing itself is invisible.
TEST(ControlSystem, ExplicitStaticIsByteIdenticalToDefault) {
  SystemConfig config;
  config.receivers = 3000;
  config.channels = 2;
  config.aggregators = 4;
  config.seed = 20260809;
  config.control.overshoot_margin = 1.3;

  const Export implicit = run_traced(config);

  config.control.engine = control::EngineKind::kStatic;
  config.control.seed = 0xDEADBEEF;  // unused by the static engine
  const Export explicit_static = run_traced(config);

  EXPECT_TRUE(implicit.completed);
  EXPECT_EQ(implicit.events_executed, explicit_static.events_executed);
  EXPECT_EQ(implicit.metrics_json, explicit_static.metrics_json);
  EXPECT_EQ(implicit.chrome_trace, explicit_static.chrome_trace);
}

// Under receiver churn the proportional engine must still form the
// instance, and the hysteresis band plus integral reset must keep the
// membership from see-sawing: bounded peak overshoot, no runaway trimming.
TEST(ControlSystem, ProportionalConvergesUnderChurnWithoutOscillation) {
  SystemConfig config;
  config.receivers = 2000;
  config.seed = 7;
  config.control.engine = control::EngineKind::kProportional;
  config.control.integral_gain = 0.3;
  config.control.integral_cap = 0.5;
  config.control.trim_hysteresis = 0.1;
  ChurnOptions churn;
  churn.mean_on_seconds = 3600.0;
  churn.mean_off_seconds = 600.0;
  config.churn = churn;
  OddciSystem system(config);
  system.controller().deploy_pna();
  system.simulation().run_until(sim::SimTime::from_seconds(120));

  constexpr std::size_t kTarget = 100;
  InstanceSpec spec;
  spec.name = "pi-churn";
  spec.target_size = kTarget;
  spec.image_size = util::Bits::from_megabytes(1);
  const auto id =
      system.provider().request_instance(spec, system.backend().node_id());

  std::size_t peak = 0;
  bool reached = false;
  for (int tick = 0; tick < 180; ++tick) {  // 30 simulated minutes
    system.simulation().run_until(system.simulation().now() +
                                  sim::SimTime::from_seconds(10));
    const std::size_t size = system.controller().status(id)->current_size;
    peak = std::max(peak, size);
    reached = reached || size >= kTarget;
  }
  EXPECT_TRUE(reached);
  // Peak membership stays within 50% of target — the PI loop ramps instead
  // of flooding (p = 1 would overshoot by ~10x in this population).
  EXPECT_LE(peak, kTarget + kTarget / 2);
  // Oscillation fingerprint: trims shed at most a modest multiple of the
  // hysteresis band over the whole half hour, not a sustained churn of
  // grow/trim cycles.
  EXPECT_LE(system.controller().status(id)->unicast_resets, kTarget);
}

// A communication-heavy job below the Phi floor must be deferred before
// anything touches the broadcast plane: no instance, no wakeup, the
// deferral visible on the RunResult and the engine's counters.
TEST(ControlSystem, PhiAdmissionDefersCommunicationHeavyJob) {
  SystemConfig config;
  config.receivers = 500;
  config.seed = 11;
  config.control.min_suitability = 50.0;

  OddciSystem system(config);
  // Phi = delta * p / (s + r): 1 s of compute against 1 MB round-trip at
  // 150 kbps is deep below the floor of 50.
  const auto heavy = workload::make_uniform_job(
      "chatty", util::Bits::from_megabytes(2), 50,
      util::Bits::from_kilobytes(512), util::Bits::from_kilobytes(512), 1.0);
  ASSERT_LT(workload::suitability(heavy, config.delta), 50.0);
  const auto deferred = system.run_job(heavy, 20);
  EXPECT_FALSE(deferred.admitted);
  EXPECT_FALSE(deferred.completed);
  EXPECT_EQ(deferred.final_instance_size, 0u);
  EXPECT_EQ(system.controller().engine().jobs_deferred(), 1u);
  EXPECT_EQ(system.controller().stats().recompositions, 0u);

  // The same system still admits a compute-heavy job afterwards.
  const auto light = workload::make_uniform_job(
      "crunchy", util::Bits::from_megabytes(2), 50,
      util::Bits::from_bytes(256), util::Bits::from_bytes(256), 60.0);
  ASSERT_GT(workload::suitability(light, config.delta), 50.0);
  const auto admitted = system.run_job(light, 20);
  EXPECT_TRUE(admitted.admitted);
  EXPECT_TRUE(admitted.completed);
  EXPECT_EQ(system.controller().engine().jobs_admitted(), 1u);
}

// Every engine replays byte-identically for a fixed (seed, shard count),
// shard counts above one included. The bandit's draws come exclusively
// from the named control.policy stream on the control shard, so worker
// shard scheduling cannot perturb them.
class EngineReplay
    : public ::testing::TestWithParam<std::tuple<control::EngineKind,
                                                 std::size_t>> {};

TEST_P(EngineReplay, SeededRunIsByteIdenticalPerShardCount) {
  const auto [kind, shards] = GetParam();
  auto run = [&] {
    SystemConfig config;
    config.receivers = 2000;
    config.channels = 2;
    config.seed = 20260809;
    config.shards = shards;
    config.control.engine = kind;
    config.control.overshoot_margin = 1.3;
    ChurnOptions churn;
    churn.mean_on_seconds = 1800.0;
    churn.mean_off_seconds = 900.0;
    config.churn = churn;
    OddciSystem system(config);
    const auto job = workload::make_uniform_job(
        "engine-replay", util::Bits::from_megabytes(2), 100,
        util::Bits::from_bytes(512), util::Bits::from_bytes(512), 10.0);
    const auto result = system.run_job(job, 50);
    return std::pair<std::string, bool>{obs::to_json(result.metrics),
                                        result.completed};
  };
  const auto first = run();
  const auto second = run();
  EXPECT_TRUE(first.second);
  EXPECT_EQ(first.first, second.first);
}

INSTANTIATE_TEST_SUITE_P(
    AllEnginesAndShardCounts, EngineReplay,
    ::testing::Combine(::testing::Values(control::EngineKind::kStatic,
                                         control::EngineKind::kProportional,
                                         control::EngineKind::kBandit),
                       ::testing::Values(std::size_t{1}, std::size_t{2})),
    [](const auto& param_info) {
      return std::string(
                 control::to_string(std::get<0>(param_info.param))) +
             "_K" + std::to_string(std::get<1>(param_info.param));
    });

}  // namespace
}  // namespace oddci::core
