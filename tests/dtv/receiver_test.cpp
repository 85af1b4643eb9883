#include "dtv/receiver.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "broadcast/channel.hpp"

namespace oddci::dtv {
namespace {

constexpr auto kMbps = [](double m) { return util::BitRate::from_mbps(m); };

class SmallMessage final : public net::Message {
 public:
  [[nodiscard]] util::Bits wire_size() const override {
    return util::Bits(800);
  }
  [[nodiscard]] int tag() const override { return 1; }
};

/// Counts direct-channel messages.
struct CountingHandler final : MessageHandler {
  void on_direct_message(net::NodeId, const net::MessagePtr&) override {
    ++got;
  }
  int got = 0;
};

/// An Xlet that does nothing.
class Nop final : public Xlet {
  void init_xlet(XletContext&) override {}
  void start_xlet() override {}
  void pause_xlet() override {}
  void destroy_xlet(bool) override {}
};

/// One completed carousel read, as an Xlet saw it.
struct Completion {
  std::uint16_t token = 0;
  bool ok = false;
  std::string name;
  std::uint64_t content_id = 0;
  sim::SimTime at;
};

/// An Xlet that reads files off the carousel and logs the completions.
class Reader final : public Xlet, public CarouselAware {
 public:
  explicit Reader(std::vector<Completion>* log) : log_(log) {}
  void init_xlet(XletContext& context) override { context_ = &context; }
  void start_xlet() override {}
  void pause_xlet() override {}
  void destroy_xlet(bool) override {}
  void on_carousel_update(const broadcast::CarouselSnapshot&) override {}
  void on_carousel_read(std::uint16_t token, bool ok,
                        const broadcast::CarouselFile& file) override {
    log_->push_back(
        {token, ok, file.name, file.content_id, context_->simulation().now()});
  }

  void read(const std::string& name, std::uint16_t token) {
    context_->read_carousel_file(name, *this, token);
  }

 private:
  std::vector<Completion>* log_;
  XletContext* context_ = nullptr;
};

struct ReceiverTest : ::testing::Test {
  sim::Simulation sim;
  net::Network net{sim};
  broadcast::BroadcastChannel channel{
      sim, broadcast::TransportStream(kMbps(1.1),
                                      util::BitRate::from_kbps(100)),
      7, sim::SimTime::from_millis(500)};
  net::LinkSpec link{util::BitRate::from_kbps(150),
                     util::BitRate::from_kbps(150),
                     sim::SimTime::from_millis(10)};
  std::unique_ptr<Receiver> receiver = std::make_unique<Receiver>(
      sim, net, DeviceProfile::stb_st7109(), link);

  XletRegistry registry;
  /// What the hosted Reader's reads completed with; outlives the Reader.
  std::vector<Completion> reads;

  /// Launch a Reader as application 9.
  Reader& launch_reader() {
    registry.register_factory(
        "reader", [this](Receiver&) { return std::make_unique<Reader>(&reads); });
    receiver->application_manager().set_registry(&registry);
    EXPECT_TRUE(receiver->application_manager().launch(9, "reader"));
    return dynamic_cast<Reader&>(*receiver->application_manager().find(9));
  }

  /// Commit the staged carousel and run until the receiver has acquired
  /// the capsule: one table repetition. It reads only what it acquired.
  void commit_and_acquire() {
    channel.commit();
    sim.run_until(sim.now() + sim::SimTime::from_millis(500));
    ASSERT_NE(receiver->current_carousel(), nullptr);
    ASSERT_EQ(receiver->current_carousel()->generation,
              channel.current().generation);
  }
};

TEST_F(ReceiverTest, StartsInStandbyAndRegistered) {
  EXPECT_EQ(receiver->power_mode(), PowerMode::kStandby);
  EXPECT_TRUE(receiver->powered());
  EXPECT_TRUE(net.attached(receiver->node_id()));
}

TEST_F(ReceiverTest, ExecutionScalesWithProfileAndPowerMode) {
  // Standby: 20.6/1.65 = 12.4848x.
  EXPECT_NEAR(receiver->scaled_seconds(1.0), 20.6 / 1.65, 1e-9);
  receiver->set_power_mode(PowerMode::kInUse);
  EXPECT_NEAR(receiver->scaled_seconds(1.0), 20.6, 1e-9);

  bool done = false;
  receiver->execute(1.0, [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_NEAR(sim.now().seconds(), 20.6, 1e-3);
}

TEST_F(ReceiverTest, ExecutionsSerializeFifo) {
  receiver->set_power_mode(PowerMode::kInUse);
  std::vector<double> completions;
  receiver->execute(1.0, [&] { completions.push_back(sim.now().seconds()); });
  receiver->execute(1.0, [&] { completions.push_back(sim.now().seconds()); });
  sim.run();
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_NEAR(completions[0], 20.6, 1e-3);
  EXPECT_NEAR(completions[1], 41.2, 1e-3);
}

TEST_F(ReceiverTest, CancelExecutionSuppressesCallback) {
  bool done = false;
  const auto token = receiver->execute(1.0, [&] { done = true; });
  EXPECT_TRUE(receiver->cancel_execution(token));
  EXPECT_FALSE(receiver->cancel_execution(token));
  sim.run();
  EXPECT_FALSE(done);
}

TEST_F(ReceiverTest, ExecuteValidatesArguments) {
  EXPECT_THROW(receiver->execute(-1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(receiver->execute(1.0, nullptr), std::invalid_argument);
  receiver->set_power_mode(PowerMode::kOff);
  EXPECT_THROW((void)receiver->scaled_seconds(1.0), std::logic_error);
}

TEST_F(ReceiverTest, PowerOffCancelsExecutionsAndDetaches) {
  bool done = false;
  receiver->execute(1.0, [&] { done = true; });
  receiver->set_power_mode(PowerMode::kOff);
  sim.run();
  EXPECT_FALSE(done);
  EXPECT_FALSE(net.attached(receiver->node_id()));
  EXPECT_FALSE(receiver->powered());
}

TEST_F(ReceiverTest, PowerOnReattaches) {
  receiver->set_power_mode(PowerMode::kOff);
  receiver->set_power_mode(PowerMode::kStandby);
  EXPECT_TRUE(net.attached(receiver->node_id()));
}

TEST_F(ReceiverTest, MessagesReachInstalledHandler) {
  Receiver peer(sim, net, DeviceProfile::reference_pc(), link);
  CountingHandler handler;
  receiver->set_message_handler(&handler);
  peer.send(receiver->node_id(), std::make_shared<SmallMessage>());
  sim.run();
  EXPECT_EQ(handler.got, 1);
  receiver->clear_message_handler();
  peer.send(receiver->node_id(), std::make_shared<SmallMessage>());
  sim.run();
  EXPECT_EQ(handler.got, 1);
}

TEST_F(ReceiverTest, SendWhileOffIsDropped) {
  Receiver peer(sim, net, DeviceProfile::reference_pc(), link);
  CountingHandler handler;
  peer.set_message_handler(&handler);
  receiver->set_power_mode(PowerMode::kOff);
  receiver->send(peer.node_id(), std::make_shared<SmallMessage>());
  sim.run();
  EXPECT_EQ(handler.got, 0);
}

TEST_F(ReceiverTest, CarouselReadFailsWhenUntunedOrMissing) {
  Reader& reader = launch_reader();
  reader.read("f", 1);
  // Not tuned: the read fails at once.
  ASSERT_EQ(reads.size(), 1u);
  EXPECT_EQ(reads[0].token, 1u);
  EXPECT_FALSE(reads[0].ok);

  receiver->tune(channel);
  reader.read("f", 2);
  // Nothing committed / file absent.
  ASSERT_EQ(reads.size(), 2u);
  EXPECT_EQ(reads[1].token, 2u);
  EXPECT_FALSE(reads[1].ok);
}

TEST_F(ReceiverTest, CarouselReadCompletesAfterAcquisition) {
  receiver->tune(channel);
  channel.carousel().put_file("f", util::Bits(1'000'000), 1);
  commit_and_acquire();
  Reader& reader = launch_reader();
  const sim::SimTime issued = sim.now();
  reader.read("f", 3);
  EXPECT_EQ(channel.reads_pending(), 1u);
  sim.run();
  ASSERT_EQ(reads.size(), 1u);
  EXPECT_EQ(reads[0].token, 3u);
  EXPECT_TRUE(reads[0].ok);
  EXPECT_EQ(reads[0].name, "f");
  EXPECT_EQ(reads[0].content_id, 1u);
  // At 1 Mbps the 1 Mbit file needs at least 1 s (plus phase wait), and
  // the read completes at the capsule's keyed instant (first read).
  EXPECT_GE(reads[0].at.seconds(), 1.0 - 1e-6);
  const auto& capsule = *channel.on_air();
  EXPECT_EQ(reads[0].at,
            capsule.ready_at("f", issued,
                             capsule.read_draw(receiver->listener_id(), 1)));
  EXPECT_EQ(channel.reads_pending(), 0u);
}

TEST_F(ReceiverTest, CarouselReadInvalidatedByPowerOff) {
  // A power-off destroys the reading Xlet and untunes: its completion is
  // dropped, not reported, and does not reach an Xlet launched after the
  // receiver powers back on and re-acquires the carousel.
  receiver->tune(channel);
  channel.carousel().put_file("f", util::Bits(1'000'000), 1);
  commit_and_acquire();
  launch_reader().read("f", 4);
  receiver->set_power_mode(PowerMode::kOff);
  EXPECT_EQ(receiver->application_manager().find(9), nullptr);
  receiver->set_power_mode(PowerMode::kStandby);
  ASSERT_TRUE(receiver->application_manager().launch(9, "reader"));
  sim.run();
  EXPECT_NE(receiver->current_carousel(), nullptr);
  EXPECT_TRUE(reads.empty());
}

TEST_F(ReceiverTest, CarouselReadSurvivesUnrelatedCommit) {
  receiver->tune(channel);
  channel.carousel().put_file("f", util::Bits(1'000'000), 1);
  channel.carousel().put_file("other", util::Bits(1'000'000), 2);
  commit_and_acquire();
  launch_reader().read("f", 5);
  // Update the *other* module: module-version semantics keep our read.
  channel.carousel().put_file("other", util::Bits(1'000'000), 3);
  channel.commit();
  sim.run();
  ASSERT_EQ(receiver->current_carousel()->generation, 2u);
  ASSERT_EQ(reads.size(), 1u);
  EXPECT_TRUE(reads[0].ok);
  EXPECT_EQ(reads[0].content_id, 1u);
}

TEST_F(ReceiverTest, CarouselReadInvalidatedByModuleUpdate) {
  receiver->tune(channel);
  channel.carousel().put_file("f", util::Bits(1'000'000), 1);
  commit_and_acquire();
  launch_reader().read("f", 6);
  channel.carousel().put_file("f", util::Bits(1'000'000), 5);  // version bump
  channel.commit();
  sim.run();
  ASSERT_EQ(reads.size(), 1u);
  EXPECT_EQ(reads[0].token, 6u);
  EXPECT_FALSE(reads[0].ok);
}

TEST_F(ReceiverTest, AutostartLaunchesAfterBaseFileAcquisition) {
  int launches = 0;
  sim::SimTime launched_at;
  registry.register_factory("app", [&](Receiver&) {
    ++launches;
    launched_at = sim.now();
    return std::make_unique<Nop>();
  });
  receiver->application_manager().set_registry(&registry);
  receiver->tune(channel);
  broadcast::AitEntry e;
  e.application_id = 1;
  e.control_code = broadcast::AppControlCode::kAutostart;
  e.application_name = "app";
  e.base_file = "app.jar";
  channel.ait().upsert(e);
  // 1 Mbit on the 1-Mbps carousel: the code base takes at least 1 s.
  channel.carousel().put_file("app.jar", util::Bits(1'000'000), 1);
  channel.commit();
  const sim::SimTime acquired =
      sim.now() +
      channel.announcement_phase(1, receiver->listener_id(), 1);
  sim.run();
  EXPECT_EQ(launches, 1);
  EXPECT_TRUE(receiver->application_manager().running(1));
  // Not at acquisition: once the code base is read in full.
  const auto& capsule = *channel.on_air();
  const sim::SimTime ready = *capsule.ready_at(
      "app.jar", acquired, capsule.read_draw(receiver->listener_id(), 1));
  EXPECT_GE(launched_at, ready);
  EXPECT_GE(launched_at.seconds(), 1.0);
}

TEST_F(ReceiverTest, ChannelChangeDestroysApps) {
  registry.register_factory("app",
                            [](Receiver&) { return std::make_unique<Nop>(); });
  receiver->application_manager().set_registry(&registry);
  receiver->application_manager().launch(1, "app");
  broadcast::BroadcastChannel other{
      sim, broadcast::TransportStream(kMbps(1.1),
                                      util::BitRate::from_kbps(100)),
      8};
  receiver->tune(channel);
  EXPECT_TRUE(receiver->application_manager().running(1));
  receiver->tune(other);
  EXPECT_FALSE(receiver->application_manager().running(1));
  // `other` is destroyed before the fixture's receiver; tune back so
  // ~Receiver does not untune a dead channel.
  receiver->tune(channel);
}

}  // namespace
}  // namespace oddci::dtv
