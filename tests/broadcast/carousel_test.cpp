#include "broadcast/carousel.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "util/rng.hpp"

namespace oddci::broadcast {
namespace {

constexpr auto kMbps = [](double m) { return util::BitRate::from_mbps(m); };

TEST(Carousel, CommitBuildsSnapshot) {
  ObjectCarousel c(kMbps(1));
  c.put_file("image", util::Bits::from_megabytes(10), 1);
  c.put_file("config", util::Bits::from_bytes(512), 2);
  EXPECT_FALSE(c.has_committed());
  const auto gen = c.commit(sim::SimTime::zero());
  EXPECT_EQ(gen, 1u);
  EXPECT_TRUE(c.has_committed());
  EXPECT_EQ(c.current().files.size(), 2u);
  EXPECT_EQ(c.current().total_size().count(),
            util::Bits::from_megabytes(10).count() + 512 * 8);
}

TEST(Carousel, PutFileValidation) {
  ObjectCarousel c(kMbps(1));
  EXPECT_THROW(c.put_file("", util::Bits(8), 1), std::invalid_argument);
  EXPECT_THROW(c.put_file("f", util::Bits(0), 1), std::invalid_argument);
  EXPECT_THROW(ObjectCarousel(util::BitRate(0)), std::invalid_argument);
}

TEST(Carousel, UpdateBumpsVersion) {
  ObjectCarousel c(kMbps(1));
  c.put_file("f", util::Bits(800), 1);
  c.commit(sim::SimTime::zero());
  EXPECT_EQ(c.current().find("f")->version, 1u);
  c.put_file("f", util::Bits(800), 9);
  c.commit(sim::SimTime::from_seconds(1));
  EXPECT_EQ(c.current().find("f")->version, 2u);
  EXPECT_EQ(c.current().find("f")->content_id, 9u);
  EXPECT_EQ(c.current().generation, 2u);
}

TEST(Carousel, RemoveFile) {
  ObjectCarousel c(kMbps(1));
  c.put_file("a", util::Bits(8), 1);
  c.put_file("b", util::Bits(8), 2);
  EXPECT_TRUE(c.remove_file("a"));
  EXPECT_FALSE(c.remove_file("a"));
  c.commit(sim::SimTime::zero());
  EXPECT_EQ(c.current().find("a"), nullptr);
  EXPECT_NE(c.current().find("b"), nullptr);
}

TEST(Carousel, SingleFileAcquisitionBounds) {
  // One 1 Mbit file at 1 Mbps: cycle = 1 s, read = 1 s.
  ObjectCarousel c(kMbps(1));
  c.put_file("image", util::Bits(1'000'000), 1);
  c.commit(sim::SimTime::zero());  // phase 0

  // Listening from the exact cycle start: best case, one full read.
  auto t = c.read_completion_time("image", sim::SimTime::zero());
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(t->seconds(), 1.0, 1e-6);

  // Listening 0.25 s into the cycle: wait 0.75 s for the next start, then
  // read 1 s.
  t = c.read_completion_time("image", sim::SimTime::from_millis(250));
  EXPECT_NEAR(t->seconds() - 0.25, 0.75 + 1.0, 1e-6);
}

TEST(Carousel, PhaseRotationShiftsSchedule) {
  ObjectCarousel c(kMbps(1));
  c.put_file("image", util::Bits(1'000'000), 1);
  // Start the generation half-way through the cycle.
  c.commit(sim::SimTime::zero(), 500'000);
  // At t = 0 the phase is 0.5 s: wait 0.5 s then read 1 s.
  const auto t = c.read_completion_time("image", sim::SimTime::zero());
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(t->seconds(), 1.5, 1e-6);
}

TEST(Carousel, PhaseWrapsModuloCycle) {
  ObjectCarousel c(kMbps(1));
  c.put_file("image", util::Bits(1'000'000), 1);
  c.commit(sim::SimTime::zero(), 2'500'000);  // = 0.5 cycles after wrap
  const auto t = c.read_completion_time("image", sim::SimTime::zero());
  EXPECT_NEAR(t->seconds(), 1.5, 1e-6);
}

TEST(Carousel, MultiFileLayoutOffsets) {
  // Two files at 1 Mbps: "a" (1 Mbit) then "b" (1 Mbit); cycle = 2 s.
  ObjectCarousel c(kMbps(1));
  c.put_file("a", util::Bits(1'000'000), 1);
  c.put_file("b", util::Bits(1'000'000), 2);
  c.commit(sim::SimTime::zero());
  // Listening from t=0 (phase 0): "a" reads immediately (1 s); "b" starts
  // at offset 1 s, done at 2 s.
  EXPECT_NEAR(c.read_completion_time("a", sim::SimTime::zero())->seconds(),
              1.0, 1e-6);
  EXPECT_NEAR(c.read_completion_time("b", sim::SimTime::zero())->seconds(),
              2.0, 1e-6);
  // Listening from t=1.5 (mid-"b"): must wait until b's next start at 3 s,
  // done at 4 s.
  EXPECT_NEAR(
      c.read_completion_time("b", sim::SimTime::from_millis(1500))->seconds(),
      4.0, 1e-6);
}

TEST(Carousel, UnknownFileReturnsNullopt) {
  ObjectCarousel c(kMbps(1));
  c.put_file("a", util::Bits(8), 1);
  c.commit(sim::SimTime::zero());
  EXPECT_FALSE(c.read_completion_time("nope", sim::SimTime::zero()));
  EXPECT_FALSE(c.mean_acquisition_seconds("nope"));
}

TEST(Carousel, ListenBeforeEpochThrows) {
  ObjectCarousel c(kMbps(1));
  c.put_file("a", util::Bits(8), 1);
  c.commit(sim::SimTime::from_seconds(10));
  EXPECT_THROW((void)c.read_completion_time("a", sim::SimTime::from_seconds(9)),
               std::invalid_argument);
}

TEST(Carousel, MeanAcquisitionIsHalfCyclePlusRead) {
  ObjectCarousel c(kMbps(1));
  c.put_file("image", util::Bits(1'000'000), 1);
  c.commit(sim::SimTime::zero());
  // Single file: mean = 0.5 * 1 s + 1 s = 1.5 s — the paper's 1.5 I/beta.
  EXPECT_NEAR(*c.mean_acquisition_seconds("image"), 1.5, 1e-9);
}

// Property: over uniformly random listen phases, the empirical mean
// acquisition latency converges to the analytical mean, and every sample is
// within [read, cycle + read].
TEST(Carousel, AcquisitionLatencyDistributionProperty) {
  ObjectCarousel c(kMbps(1));
  c.put_file("image", util::Bits::from_megabytes(1), 1);
  c.put_file("config", util::Bits::from_bytes(512), 2);
  c.commit(sim::SimTime::zero());

  const double cycle = c.current().cycle_seconds();
  const double read =
      util::transmission_seconds(c.current().find("image")->size,
                                 c.current().rate);
  util::Random rng(99);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const auto listen = sim::SimTime::from_seconds(rng.uniform(0.0, 100.0));
    const auto done = c.read_completion_time("image", listen);
    ASSERT_TRUE(done.has_value());
    const double latency = (*done - listen).seconds();
    EXPECT_GE(latency, read - 1e-6);
    EXPECT_LE(latency, cycle + read + 1e-6);
    sum += latency;
  }
  EXPECT_NEAR(sum / n, *c.mean_acquisition_seconds("image"), cycle * 0.02);
}

}  // namespace
}  // namespace oddci::broadcast
