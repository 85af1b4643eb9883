#include "broadcast/channel.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace oddci::broadcast {
namespace {

constexpr auto kMbps = [](double m) { return util::BitRate::from_mbps(m); };

class RecordingListener final : public BroadcastListener {
 public:
  explicit RecordingListener(sim::Simulation& sim) : sim_(&sim) {}
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

struct ChannelTest : ::testing::Test {
  sim::Simulation sim;
  BroadcastChannel channel{
      sim, TransportStream(kMbps(1.1), util::BitRate::from_kbps(100)), 42,
      sim::SimTime::from_millis(500)};
};

TEST_F(ChannelTest, CarouselRateIsUnusedCapacity) {
  EXPECT_NEAR(channel.carousel_rate().bps(), 1e6, 1.0);
}

TEST_F(ChannelTest, CommitNotifiesTunedListenersWithinRepetition) {
  RecordingListener l1(sim), l2(sim);
  channel.tune(1, &l1, 0);
  channel.tune(2, &l2, 0);
  channel.carousel().put_file("f", util::Bits(800), 1);
  channel.commit();
  sim.run();
  ASSERT_EQ(l1.events.size(), 1u);
  ASSERT_EQ(l2.events.size(), 1u);
  EXPECT_LE(l1.events[0].at.seconds(), 0.5);
  EXPECT_LE(l2.events[0].at.seconds(), 0.5);
  EXPECT_NE(l1.events[0].at, l2.events[0].at);  // phase jitter differs
}

TEST_F(ChannelTest, LateTunerAcquiresCurrentSignalling) {
  channel.carousel().put_file("f", util::Bits(800), 1);
  channel.commit();
  sim.run();
  RecordingListener late(sim);
  channel.tune(1, &late, 0);
  sim.run();
  ASSERT_EQ(late.events.size(), 1u);
  EXPECT_EQ(late.events[0].generation, 1u);
}

TEST_F(ChannelTest, TuneBeforeAnyCommitDeliversNothing) {
  RecordingListener l(sim);
  channel.tune(1, &l, 0);
  sim.run();
  EXPECT_TRUE(l.events.empty());
}

TEST_F(ChannelTest, UntunedListenerMissesUpdates) {
  RecordingListener l(sim);
  channel.tune(1, &l, 0);
  channel.untune(1, 0);
  channel.carousel().put_file("f", util::Bits(800), 1);
  channel.commit();
  sim.run();
  EXPECT_TRUE(l.events.empty());
  EXPECT_EQ(channel.tuned_count(), 0u);
}

TEST_F(ChannelTest, UntuneDuringPendingAcquisitionDropsIt) {
  RecordingListener l(sim);
  channel.tune(1, &l, 0);
  channel.carousel().put_file("f", util::Bits(800), 1);
  channel.commit();
  channel.untune(1, 0);  // before the phase delay elapses
  sim.run();
  EXPECT_TRUE(l.events.empty());
}

TEST_F(ChannelTest, SupersededCommitOnlyDeliversLatest) {
  RecordingListener l(sim);
  channel.tune(1, &l, 0);
  channel.carousel().put_file("f", util::Bits(800), 1);
  channel.commit();
  channel.carousel().put_file("f", util::Bits(800), 2);
  channel.commit();  // same timestamp: supersedes generation 1
  sim.run();
  ASSERT_EQ(l.events.size(), 1u);
  EXPECT_EQ(l.events[0].generation, 2u);
}

TEST_F(ChannelTest, AitTravelsWithSignalling) {
  RecordingListener l(sim);
  channel.tune(1, &l, 0);
  AitEntry e;
  e.application_id = 1;
  e.control_code = AppControlCode::kAutostart;
  e.application_name = "pna";
  channel.ait().upsert(e);
  channel.carousel().put_file("pna.xlet", util::Bits(800), 1);
  channel.commit();
  sim.run();
  ASSERT_EQ(l.events.size(), 1u);
  EXPECT_EQ(l.events[0].ait_version, 1u);
}

TEST_F(ChannelTest, FileReadyAtDelegatesToCarousel) {
  channel.carousel().put_file("f", util::Bits(1'000'000), 1);
  channel.commit();
  const auto& capsule = channel.on_air();
  ASSERT_NE(capsule, nullptr);
  const auto t = capsule->ready_at("f", sim.now(), capsule->read_draw(1, 1));
  ASSERT_TRUE(t.has_value());
  EXPECT_GE(t->seconds(), 1.0 - 1e-6);  // at least the read time at 1 Mbps
  EXPECT_EQ(t, channel.carousel().read_completion_time("f", sim.now()));
  EXPECT_FALSE(capsule->ready_at("missing", sim.now(), 0.5));
}

TEST_F(ChannelTest, CommitCountTracks) {
  channel.carousel().put_file("f", util::Bits(800), 1);
  channel.commit();
  channel.commit();
  EXPECT_EQ(channel.commits(), 2u);
}

}  // namespace
}  // namespace oddci::broadcast
