#include "broadcast/multicast.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace oddci::broadcast {
namespace {

constexpr auto kMbps = [](double m) { return util::BitRate::from_mbps(m); };

class Recorder final : public BroadcastListener {
 public:
  explicit Recorder(sim::Simulation& sim) : sim_(&sim) {}
  void on_signalling_capsule(
      const std::shared_ptr<const SignallingCapsule>& capsule) override {
    events.push_back(
        {sim_->now(), capsule->ait.version(), capsule->snapshot.generation});
  }
  struct Event {
    sim::SimTime at;
    std::uint32_t ait_version;
    std::uint64_t generation;
  };
  std::vector<Event> events;

 private:
  sim::Simulation* sim_;
};

/// The next read of `name` on `medium`'s capsule, started at `from`, with
/// the draw a receiver keys off its id and read ordinal.
std::optional<sim::SimTime> read(const BroadcastMedium& medium,
                                 const std::string& name, sim::SimTime from,
                                 std::uint32_t ordinal = 1) {
  const auto& capsule = medium.on_air();
  return capsule->ready_at(name, from, capsule->read_draw(1, ordinal));
}

struct MulticastTest : ::testing::Test {
  sim::Simulation sim;
  MulticastChannel channel{sim, kMbps(1.0), 7};
};

TEST_F(MulticastTest, AcquisitionHasNoPhaseWait) {
  // 1 Mbit file on a 1 Mbps channel with 5% FEC: ~1.05 s + join latency,
  // regardless of when the receiver starts listening — block coding has no
  // carousel phase.
  channel.put_file("image", util::Bits(1'000'000), 1);
  channel.commit();
  std::uint32_t ordinal = 0;
  for (double at : {0.0, 0.37, 0.91}) {
    const auto t =
        read(channel, "image", sim::SimTime::from_seconds(at), ++ordinal);
    ASSERT_TRUE(t.has_value());
    const double latency = t->seconds() - at;
    EXPECT_NEAR(latency, 0.15 + 1.05, 0.05) << "listen at " << at;
  }
}

TEST_F(MulticastTest, CapacitySplitsAcrossSessions) {
  channel.put_file("a", util::Bits(1'000'000), 1);
  channel.put_file("b", util::Bits(1'000'000), 2);
  channel.commit();
  // Two sessions at 0.5 Mbps each: ~2.1 s per file.
  const auto t = read(channel, "a", sim.now());
  EXPECT_NEAR(t->seconds(), 0.15 + 2.1, 0.1);
}

TEST_F(MulticastTest, LossInflatesGracefully) {
  MulticastOptions lossy;
  lossy.block_loss = 0.10;
  MulticastChannel noisy(sim, kMbps(1.0), 8, lossy);
  noisy.put_file("image", util::Bits(1'000'000), 1);
  noisy.commit();
  // 10% loss costs ~1/0.9 = 11% extra, NOT whole extra cycles.
  const auto t = read(noisy, "image", sim.now());
  EXPECT_NEAR(t->seconds(), 0.15 + 1.05 / 0.9, 0.08);
}

TEST_F(MulticastTest, ListenersNotifiedOnCommitAndLateTune) {
  Recorder early(sim);
  channel.tune(1, &early, 0);
  channel.put_file("f", util::Bits(800), 1);
  channel.commit();
  sim.run_until(sim::SimTime::from_seconds(1));
  ASSERT_EQ(early.events.size(), 1u);
  EXPECT_LE(early.events[0].at.seconds(), 0.5);

  Recorder late(sim);
  channel.tune(2, &late, 0);
  sim.run_until(sim::SimTime::from_seconds(2));
  ASSERT_EQ(late.events.size(), 1u);
  EXPECT_EQ(late.events[0].generation, 1u);
}

TEST_F(MulticastTest, UntunedListenerDropped) {
  Recorder r(sim);
  channel.tune(1, &r, 0);
  channel.untune(1, 0);
  channel.put_file("f", util::Bits(800), 1);
  channel.commit();
  sim.run();
  EXPECT_TRUE(r.events.empty());
  EXPECT_EQ(channel.tuned_count(), 0u);
}

TEST_F(MulticastTest, VersionBumpOnReplace) {
  channel.put_file("f", util::Bits(800), 1);
  channel.commit();
  EXPECT_EQ(channel.current().find("f")->version, 1u);
  channel.put_file("f", util::Bits(800), 2);
  channel.commit();
  EXPECT_EQ(channel.current().find("f")->version, 2u);
  EXPECT_TRUE(channel.remove_file("f"));
  channel.commit();
  EXPECT_EQ(channel.current().find("f"), nullptr);
}

TEST_F(MulticastTest, HorizonCoversSlowestFile) {
  channel.put_file("big", util::Bits(8'000'000), 1);
  channel.put_file("small", util::Bits(8'000), 2);
  channel.commit();
  const double horizon = channel.acquisition_horizon_seconds();
  const auto big = channel.acquisition_seconds("big");
  EXPECT_GE(horizon, *big * 1.99);
}

TEST_F(MulticastTest, Validation) {
  EXPECT_THROW(MulticastChannel(sim, util::BitRate(0), 1),
               std::invalid_argument);
  MulticastOptions bad;
  bad.block_loss = 1.0;
  EXPECT_THROW(MulticastChannel(sim, kMbps(1), 1, bad),
               std::invalid_argument);
  bad = MulticastOptions{};
  bad.fec_overhead = -0.1;
  EXPECT_THROW(MulticastChannel(sim, kMbps(1), 1, bad),
               std::invalid_argument);
  EXPECT_THROW(channel.put_file("", util::Bits(8), 1), std::invalid_argument);
  EXPECT_THROW(channel.put_file("f", util::Bits(0), 1),
               std::invalid_argument);
  EXPECT_THROW(channel.tune(1, nullptr, 0), std::invalid_argument);
  channel.commit();
  EXPECT_FALSE(read(channel, "missing", sim.now()));
}

}  // namespace
}  // namespace oddci::broadcast
