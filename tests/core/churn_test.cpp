#include "core/churn.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "sim/sharded.hpp"

namespace oddci::core {
namespace {

struct ChurnTest : ::testing::Test {
  sim::Simulation sim;
  net::Network net{sim};
  net::LinkSpec link{util::BitRate::from_mbps(1), util::BitRate::from_mbps(1),
                     sim::SimTime::zero()};
  std::vector<std::unique_ptr<dtv::Receiver>> receivers;
  std::vector<dtv::Receiver*> raw;

  void make_receivers(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      receivers.push_back(std::make_unique<dtv::Receiver>(
          sim, net, dtv::DeviceProfile::reference_stb(), link));
      raw.push_back(receivers.back().get());
    }
  }

  std::size_t powered_count() const {
    std::size_t on = 0;
    for (const auto& r : receivers) {
      if (r->powered()) ++on;
    }
    return on;
  }
};

TEST_F(ChurnTest, OptionsValidation) {
  ChurnOptions bad;
  bad.mean_on_seconds = 0.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ChurnOptions{};
  bad.in_use_probability = 1.5;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ChurnOptions{};
  bad.initial_on_fraction = 2.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  ChurnOptions ok;
  EXPECT_NO_THROW(ok.validate());
  EXPECT_NEAR(ok.steady_state_on_fraction(), 3600.0 / 5400.0, 1e-12);
}

TEST_F(ChurnTest, StartSamplesInitialPowerStates) {
  make_receivers(500);
  ChurnOptions options;
  options.mean_on_seconds = 3600;
  options.mean_off_seconds = 3600;  // steady-state 50% on
  ChurnProcess churn(sim, raw, 1, options);
  churn.start();
  const double frac = static_cast<double>(powered_count()) / 500.0;
  EXPECT_NEAR(frac, 0.5, 0.08);
}

TEST_F(ChurnTest, InitialOnFractionOverride) {
  make_receivers(300);
  ChurnOptions options;
  options.initial_on_fraction = 1.0;
  ChurnProcess churn(sim, raw, 2, options);
  churn.start();
  EXPECT_EQ(powered_count(), 300u);
}

TEST_F(ChurnTest, TogglesAccumulateOverTime) {
  make_receivers(100);
  ChurnOptions options;
  options.mean_on_seconds = 60;
  options.mean_off_seconds = 60;
  ChurnProcess churn(sim, raw, 3, options);
  churn.start();
  sim.run_until(sim::SimTime::from_minutes(30));
  // Expected ~ 100 nodes * 30 min / (1 min dwell) / 2 per direction.
  EXPECT_GT(churn.stats().switch_ons + churn.stats().switch_offs, 1000u);
  // The on-fraction stays near steady state.
  EXPECT_NEAR(static_cast<double>(powered_count()) / 100.0, 0.5, 0.15);
}

TEST_F(ChurnTest, InUseVsStandbySampling) {
  make_receivers(400);
  ChurnOptions options;
  options.initial_on_fraction = 1.0;
  options.in_use_probability = 0.25;
  ChurnProcess churn(sim, raw, 4, options);
  churn.start();
  std::size_t in_use = 0;
  for (const auto& r : receivers) {
    if (r->power_mode() == dtv::PowerMode::kInUse) ++in_use;
  }
  EXPECT_NEAR(static_cast<double>(in_use) / 400.0, 0.25, 0.07);
}

TEST_F(ChurnTest, StopFreezesPopulation) {
  make_receivers(50);
  ChurnOptions options;
  options.mean_on_seconds = 10;
  options.mean_off_seconds = 10;
  ChurnProcess churn(sim, raw, 5, options);
  churn.start();
  sim.run_until(sim::SimTime::from_seconds(100));
  churn.stop();
  const auto before = churn.stats();
  sim.run_until(sim::SimTime::from_seconds(200));
  EXPECT_EQ(churn.stats().switch_ons, before.switch_ons);
  EXPECT_EQ(churn.stats().switch_offs, before.switch_offs);
}

TEST_F(ChurnTest, DeterministicUnderSeed) {
  make_receivers(100);
  ChurnOptions options;
  auto run_once = [&](std::uint64_t seed) {
    ChurnProcess churn(sim, raw, seed, options);
    churn.start();
    std::vector<bool> states;
    for (const auto& r : receivers) states.push_back(r->powered());
    churn.stop();
    return states;
  };
  EXPECT_EQ(run_once(7), run_once(7));
  EXPECT_NE(run_once(7), run_once(8));
}

/// Each receiver's power changes, (time, mode) in order, keyed by node id:
/// `receivers` receivers, receiver i on shard i % K, each shard's churned
/// by its own process under one seed, run for `horizon`.
std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::uint64_t>>>
power_cycles(std::size_t shards, std::size_t receivers,
             sim::SimTime horizon) {
  sim::ShardedSimulation kernel({shards, sim::SimTime::from_millis(5)});
  net::Network net(kernel.control());
  net.set_sharded(&kernel);
  const net::LinkSpec link{util::BitRate::from_mbps(1),
                           util::BitRate::from_mbps(1),
                           sim::SimTime::from_millis(10)};
  std::vector<std::unique_ptr<obs::FlightRecorder>> rings;
  std::vector<std::vector<dtv::Receiver*>> per_shard(shards);
  std::vector<std::unique_ptr<dtv::Receiver>> population;
  for (std::size_t s = 0; s < shards; ++s) {
    rings.push_back(std::make_unique<obs::FlightRecorder>(1 << 16));
  }
  for (std::size_t i = 0; i < receivers; ++i) {
    const auto s = static_cast<std::uint32_t>(i % shards);
    net.set_register_shard(s);
    population.push_back(std::make_unique<dtv::Receiver>(
        kernel.shard(s), net, dtv::DeviceProfile::reference_stb(), link));
    population.back()->set_shard(s);
    population.back()->set_recorder(rings[s].get());
    per_shard[s].push_back(population.back().get());
  }
  net.set_register_shard(0);
  ChurnOptions options;
  options.mean_on_seconds = 60;
  options.mean_off_seconds = 30;
  std::vector<std::unique_ptr<ChurnProcess>> churn;
  for (std::size_t s = 0; s < shards; ++s) {
    churn.push_back(std::make_unique<ChurnProcess>(
        kernel.shard(s), std::move(per_shard[s]), 11, options));
    churn.back()->start();
  }
  kernel.run_until(horizon);
  std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::uint64_t>>>
      cycles;
  for (const auto& ring : rings) {
    EXPECT_EQ(ring->overwritten(), 0u);
    for (const obs::TraceEvent& e : ring->events()) {
      if (e.kind == obs::TraceEventKind::kPowerChange) {
        cycles[e.actor].emplace_back(e.t_micros, e.arg);
      }
    }
  }
  for (auto& c : churn) c->stop();
  return cycles;
}

TEST(ChurnSharding, PowerCycleInstantsDoNotDependOnTheShardCount) {
  // Every churn draw is keyed by (seed, receiver, toggle ordinal), so a
  // receiver switches at the same instants whichever shard's process
  // drives it.
  if (!obs::kTracingCompiledIn) GTEST_SKIP() << "needs the flight recorder";
  constexpr std::size_t kReceivers = 200;
  const sim::SimTime horizon = sim::SimTime::from_minutes(10);
  const auto one = power_cycles(1, kReceivers, horizon);
  ASSERT_EQ(one.size(), kReceivers);
  std::size_t changes = 0;
  for (const auto& [id, c] : one) changes += c.size();
  // ~10 min / 45 s mean dwell: about a dozen changes per receiver.
  EXPECT_GT(changes, 10 * kReceivers);
  EXPECT_EQ(power_cycles(2, kReceivers, horizon), one);
  EXPECT_EQ(power_cycles(4, kReceivers, horizon), one);
}

}  // namespace
}  // namespace oddci::core
