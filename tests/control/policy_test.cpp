#include "control/policy.hpp"

#include <gtest/gtest.h>

#include "analytical/models.hpp"
#include "control/bandit_policy.hpp"
#include "control/proportional_policy.hpp"
#include "control/static_policy.hpp"
#include "util/rng.hpp"

namespace oddci::control {
namespace {

ControlObservation obs_at(std::size_t target, std::size_t members,
                          std::size_t joining, std::size_t idle,
                          std::uint64_t instance = 1) {
  ControlObservation o;
  o.now = sim::SimTime::from_seconds(100);
  o.instance = instance;
  o.target = target;
  o.members = members;
  o.joining = joining;
  o.idle_pool = idle;
  o.known_pnas = idle + members + joining;
  o.recruiting = true;
  o.heartbeat_interval = sim::SimTime::from_seconds(30);
  return o;
}

TEST(EngineKind, RoundTripsThroughStrings) {
  for (const EngineKind kind :
       {EngineKind::kStatic, EngineKind::kProportional, EngineKind::kBandit}) {
    EXPECT_EQ(engine_kind_from_string(to_string(kind)), kind);
  }
  EXPECT_THROW((void)engine_kind_from_string("pid"), std::invalid_argument);
}

TEST(PolicyOptions, ValidationRejectsOutOfRangeKnobs) {
  const auto bad = [](auto&& mutate) {
    PolicyOptions o;
    mutate(o);
    EXPECT_THROW(o.validate(), std::invalid_argument);
  };
  PolicyOptions ok;
  EXPECT_NO_THROW(ok.validate());
  bad([](PolicyOptions& o) { o.monitor_interval = sim::SimTime::zero(); });
  bad([](PolicyOptions& o) { o.stale_factor = 1.0; });
  bad([](PolicyOptions& o) { o.overshoot_margin = 0.0; });
  bad([](PolicyOptions& o) { o.min_suitability = -1.0; });
  bad([](PolicyOptions& o) { o.gain = 0.0; });
  bad([](PolicyOptions& o) { o.integral_gain = -0.1; });
  bad([](PolicyOptions& o) { o.max_step = 0.0; });
  bad([](PolicyOptions& o) { o.max_step = 1.5; });
  bad([](PolicyOptions& o) { o.trim_hysteresis = -0.1; });
  bad([](PolicyOptions& o) { o.arms.clear(); });
  bad([](PolicyOptions& o) { o.arms = {1.0, 0.0}; });
  bad([](PolicyOptions& o) { o.explore = 1.5; });
}

TEST(MakeEngine, DispatchesOnKindAndValidates) {
  PolicyOptions o;
  EXPECT_EQ(make_engine(o)->name(), "static");
  o.engine = EngineKind::kProportional;
  EXPECT_EQ(make_engine(o)->name(), "proportional");
  o.engine = EngineKind::kBandit;
  EXPECT_EQ(make_engine(o)->name(), "bandit");
  o.overshoot_margin = -1.0;
  EXPECT_THROW((void)make_engine(o), std::invalid_argument);
}

TEST(StaticPolicy, MatchesLegacyProbabilityRule) {
  PolicyOptions o;
  o.overshoot_margin = 1.3;
  StaticPolicy engine(o);

  // No population information: address everyone.
  EXPECT_DOUBLE_EQ(engine.initial_probability(obs_at(10, 0, 0, 0)), 1.0);
  // margin * target / idle.
  EXPECT_DOUBLE_EQ(engine.initial_probability(obs_at(10, 0, 0, 100)), 0.13);
  // Clamp at 1 when the deficit saturates the pool.
  EXPECT_DOUBLE_EQ(engine.initial_probability(obs_at(200, 0, 0, 100)), 1.0);

  // Deficit counts joining members; probability covers the residual gap.
  const ControlAction recruit = engine.decide(obs_at(10, 4, 2, 100));
  ASSERT_TRUE(recruit.probability.has_value());
  EXPECT_DOUBLE_EQ(*recruit.probability, 1.3 * 4.0 / 100.0);
  EXPECT_EQ(recruit.trim, 0u);

  // Exactly at target: no action either way.
  const ControlAction steady = engine.decide(obs_at(10, 10, 0, 100));
  EXPECT_FALSE(steady.probability.has_value());
  EXPECT_EQ(steady.trim, 0u);

  // Oversized: shed everything above target, like the pre-engine loop.
  const ControlAction trim = engine.decide(obs_at(10, 14, 0, 0));
  EXPECT_FALSE(trim.probability.has_value());
  EXPECT_EQ(trim.trim, 4u);
}

TEST(ProportionalPolicy, IntegralAccumulatesUnderDeficitAndResets) {
  PolicyOptions o;
  o.engine = EngineKind::kProportional;
  o.gain = 1.0;
  o.integral_gain = 0.5;
  o.integral_cap = 0.3;
  ProportionalPolicy engine(o);

  // Persistent deficit of 10 against a pool of 100: error 0.1 per tick.
  const auto deficit = obs_at(20, 10, 0, 100);
  const ControlAction first = engine.decide(deficit);
  ASSERT_TRUE(first.probability.has_value());
  EXPECT_DOUBLE_EQ(*first.probability, 0.1);  // pure feedforward
  EXPECT_DOUBLE_EQ(engine.integral(1), 0.05);

  const ControlAction second = engine.decide(deficit);
  EXPECT_DOUBLE_EQ(*second.probability, 0.15);  // feedforward + integral

  // Windup is capped.
  for (int i = 0; i < 20; ++i) (void)engine.decide(deficit);
  EXPECT_DOUBLE_EQ(engine.integral(1), 0.3);

  // Overshoot resets the integral and trims.
  const ControlAction trim = engine.decide(obs_at(20, 25, 0, 0));
  EXPECT_EQ(trim.trim, 5u);
  EXPECT_DOUBLE_EQ(engine.integral(1), 0.0);

  engine.forget(1);
  EXPECT_DOUBLE_EQ(engine.integral(1), 0.0);
}

TEST(ProportionalPolicy, MaxStepCapsAndHysteresisDampsTrims) {
  PolicyOptions o;
  o.engine = EngineKind::kProportional;
  o.max_step = 0.25;
  o.trim_hysteresis = 0.2;
  ProportionalPolicy engine(o);

  // Deficit would ask for 0.5; the ramp limit holds it to 0.25.
  const ControlAction capped = engine.decide(obs_at(100, 50, 0, 100));
  EXPECT_DOUBLE_EQ(*capped.probability, 0.25);

  // 15% over target sits inside the 20% hysteresis band: no trim.
  const ControlAction inside = engine.decide(obs_at(100, 115, 0, 0));
  EXPECT_EQ(inside.trim, 0u);
  // 25% over target exceeds the band: the whole excess is shed.
  const ControlAction outside = engine.decide(obs_at(100, 125, 0, 0));
  EXPECT_EQ(outside.trim, 25u);
}

TEST(BanditPolicy, DeterministicPerSeedAndLearnsFromOutcomes) {
  PolicyOptions o;
  o.engine = EngineKind::kBandit;
  o.seed = 0xB007;
  BanditPolicy a(o), b(o);

  // Identical decision trajectories for identical seeds: the only
  // randomness is the private stream.
  for (int tick = 0; tick < 50; ++tick) {
    const auto observation = obs_at(100, static_cast<std::size_t>(tick), 0,
                                    1000);
    const ControlAction left = a.decide(observation);
    const ControlAction right = b.decide(observation);
    ASSERT_EQ(left.probability.has_value(), right.probability.has_value());
    if (left.probability) {
      EXPECT_DOUBLE_EQ(*left.probability, *right.probability);
    }
    EXPECT_EQ(left.trim, right.trim);
  }

  // Scoring: a pull followed by full progress credits the pulled arm.
  BanditPolicy learner(o);
  (void)learner.decide(obs_at(100, 0, 0, 1000));   // pull (deficit 100)
  (void)learner.decide(obs_at(100, 100, 0, 1000)); // gap closed: reward 1
  double learned = 0.0;
  for (std::size_t regime = 0; regime < BanditPolicy::kRegimes; ++regime) {
    for (std::size_t arm = 0; arm < o.arms.size(); ++arm) {
      learned += learner.arm_value(regime, arm);
    }
  }
  EXPECT_DOUBLE_EQ(learned, 1.0);

  // forget() drops the pending pull: the next decision scores nothing.
  BanditPolicy forgetter(o);
  (void)forgetter.decide(obs_at(100, 0, 0, 1000));
  forgetter.forget(1);
  (void)forgetter.decide(obs_at(100, 100, 0, 1000));
  for (std::size_t regime = 0; regime < BanditPolicy::kRegimes; ++regime) {
    for (std::size_t arm = 0; arm < o.arms.size(); ++arm) {
      EXPECT_DOUBLE_EQ(forgetter.arm_value(regime, arm), 0.0);
    }
  }
}

TEST(Admission, FloorZeroAdmitsEverythingWithoutCounting) {
  PolicyOptions o;
  StaticPolicy engine(o);
  AdmissionRequest request;
  request.tasks = 100;
  request.input_bits = 1e9;  // grotesquely communication-heavy
  request.result_bits = 1e9;
  request.task_seconds = 0.001;
  request.delta = util::BitRate::from_kbps(150);
  EXPECT_EQ(engine.admit(request), Admission::kAdmit);
  EXPECT_EQ(engine.jobs_admitted(), 0u);
  EXPECT_EQ(engine.jobs_deferred(), 0u);
}

TEST(Admission, PhiFloorDefersCommunicationHeavyJobs) {
  PolicyOptions o;
  o.min_suitability = 10.0;
  StaticPolicy engine(o);

  AdmissionRequest heavy;
  heavy.tasks = 100;
  heavy.input_bits = 1e6;
  heavy.result_bits = 1e6;
  heavy.task_seconds = 1.0;  // Phi = 150e3 / 2e6 = 0.075
  heavy.delta = util::BitRate::from_kbps(150);
  ASSERT_LT(analytical::suitability(heavy.input_bits, heavy.result_bits,
                                    heavy.delta, heavy.task_seconds),
            o.min_suitability);
  EXPECT_EQ(engine.admit(heavy), Admission::kDefer);

  AdmissionRequest light = heavy;
  light.task_seconds = 1000.0;  // Phi = 75
  EXPECT_EQ(engine.admit(light), Admission::kAdmit);

  EXPECT_EQ(engine.jobs_admitted(), 1u);
  EXPECT_EQ(engine.jobs_deferred(), 1u);
}

TEST(StreamSeed, NamedStreamsAreDeterministicAndDisjoint) {
  EXPECT_EQ(util::stream_seed(42, "control.policy"),
            util::stream_seed(42, "control.policy"));
  EXPECT_NE(util::stream_seed(42, "control.policy"),
            util::stream_seed(42, "population"));
  EXPECT_NE(util::stream_seed(42, "control.policy"),
            util::stream_seed(43, "control.policy"));
  // The stream seed is not the root: a policy drawing from it never
  // replays the population's sequence.
  EXPECT_NE(util::stream_seed(42, "control.policy"), 42u);
}

}  // namespace
}  // namespace oddci::control
