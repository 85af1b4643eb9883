#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>

#include "broadcast/channel.hpp"
#include "util/stats.hpp"

namespace oddci::broadcast {
namespace {

constexpr auto kMbps = [](double m) { return util::BitRate::from_mbps(m); };

struct LossTest : ::testing::Test {
  sim::Simulation sim;
  BroadcastChannel channel{
      sim, TransportStream(kMbps(1.1), util::BitRate::from_kbps(100)), 77};
  /// Read ordinals of one reader (listener 1), as a receiver keys them.
  std::uint32_t reads = 0;

  void stage_image() {
    channel.carousel().put_file("image", util::Bits::from_megabytes(1), 1);
    channel.commit();
  }

  /// The next read of `name` from the capsule on air, started now.
  std::optional<sim::SimTime> read(const std::string& name) {
    const auto& capsule = channel.on_air();
    return capsule->ready_at(name, sim.now(), capsule->read_draw(1, ++reads));
  }
};

TEST_F(LossTest, ZeroLossMatchesDeterministicModel) {
  stage_image();
  const auto a = read("image");
  const auto b = channel.carousel().read_completion_time("image", sim.now());
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, *b);
}

TEST_F(LossTest, LossOnlyAddsWholeCycles) {
  channel.set_section_loss(0.05);
  stage_image();
  const double cycle = channel.carousel().current().cycle_seconds();
  const auto base =
      channel.carousel().read_completion_time("image", sim.now());
  for (int i = 0; i < 200; ++i) {
    const auto t = read("image");
    ASSERT_TRUE(t.has_value());
    const double extra = (*t - *base).seconds();
    EXPECT_GE(extra, -1e-9);
    // Extra latency is an integer number of carousel cycles.
    const double cycles = extra / cycle;
    EXPECT_NEAR(cycles, std::round(cycles), 1e-6);
  }
}

TEST_F(LossTest, HigherLossMeansLongerMeanAcquisition) {
  auto mean_extra = [&](double loss) {
    // The loss model travels in the capsule: it takes effect at a commit.
    channel.set_section_loss(loss);
    stage_image();
    // Each commit draws a new rotation: measure past this one's clean read.
    const auto base =
        channel.carousel().read_completion_time("image", sim.now());
    util::RunningStats stats;
    for (int i = 0; i < 500; ++i) {
      const auto t = read("image");
      stats.add((*t - *base).seconds());
    }
    return stats.mean();
  };
  const double low = mean_extra(0.01);
  const double high = mean_extra(0.10);
  EXPECT_GT(high, low);
}

TEST_F(LossTest, SmallFilesSufferLessThanLargeOnes) {
  channel.set_section_loss(0.05);
  channel.carousel().put_file("big", util::Bits::from_megabytes(4), 1);
  channel.carousel().put_file("tiny", util::Bits::from_bytes(512), 2);
  channel.commit();
  const double cycle = channel.carousel().current().cycle_seconds();
  util::RunningStats big_extra, tiny_extra;
  for (int i = 0; i < 300; ++i) {
    const auto base_big =
        channel.carousel().read_completion_time("big", sim.now());
    const auto base_tiny =
        channel.carousel().read_completion_time("tiny", sim.now());
    big_extra.add((*read("big") - *base_big).seconds() / cycle);
    tiny_extra.add((*read("tiny") - *base_tiny).seconds() / cycle);
  }
  // A 1024-section file waits for its slowest section; a 1-section file
  // rarely needs a retry at all.
  EXPECT_GT(big_extra.mean(), tiny_extra.mean());
  EXPECT_LT(tiny_extra.mean(), 0.1);
}

TEST_F(LossTest, Validation) {
  EXPECT_THROW(channel.set_section_loss(-0.1), std::invalid_argument);
  EXPECT_THROW(channel.set_section_loss(1.0), std::invalid_argument);
  EXPECT_THROW(channel.set_section_loss(0.1, util::Bits(0)),
               std::invalid_argument);
  EXPECT_NO_THROW(channel.set_section_loss(0.0));
}

}  // namespace
}  // namespace oddci::broadcast
