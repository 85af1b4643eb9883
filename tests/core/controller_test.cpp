#include "core/controller.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace oddci::core {
namespace {

constexpr auto kMbps = [](double m) { return util::BitRate::from_mbps(m); };

/// Heartbeat-scripted agent stand-in, recording Controller replies.
class FakeAgent final : public net::Endpoint {
 public:
  FakeAgent(sim::Simulation& sim, net::Network& net) : net_(&net) {
    id_ = net.register_endpoint(
        this, {kMbps(100), kMbps(100), sim::SimTime::zero()});
    (void)sim;
  }

  void beat(net::NodeId controller, PnaState state, InstanceId instance) {
    net_->send(id_, controller,
               std::make_shared<HeartbeatMessage>(id_, state, instance));
  }

  void on_message(net::NodeId, const net::MessagePtr& message) override {
    if (message->tag() == kTagHeartbeatReply) {
      const auto& reply =
          static_cast<const HeartbeatReplyMessage&>(*message);
      if (reply.command() == HeartbeatCommand::kReset) ++resets;
    }
  }

  [[nodiscard]] net::NodeId id() const { return id_; }
  int resets = 0;

 private:
  net::Network* net_;
  net::NodeId id_ = net::kInvalidNode;
};

struct ControllerTest : ::testing::Test {
  sim::Simulation sim;
  net::Network net{sim};
  broadcast::BroadcastChannel channel{
      sim,
      broadcast::TransportStream(kMbps(1.1), util::BitRate::from_kbps(100)),
      11};
  ContentStore store;
  ControllerOptions options;
  std::unique_ptr<Controller> controller;

  void SetUp() override {
    options.policy.monitor_interval = sim::SimTime::from_seconds(10);
    controller = std::make_unique<Controller>(
        sim, net, channel, store, /*key=*/0x5EC7E7,
        net::LinkSpec{kMbps(1000), kMbps(1000), sim::SimTime::zero()},
        options);
  }

  InstanceSpec spec(std::size_t target) {
    InstanceSpec s;
    s.name = "job";
    s.target_size = target;
    s.image_size = util::Bits::from_megabytes(1);
    s.heartbeat_interval = sim::SimTime::from_seconds(30);
    return s;
  }

  /// The control message currently staged in the carousel config file
  /// (decoded from its stored wire bytes).
  std::optional<ControlMessage> staged_control() {
    const auto* file = channel.carousel().current().find("oddci.config");
    if (file == nullptr) return std::nullopt;
    return store.get_control(file->content_id);
  }
};

TEST_F(ControllerTest, DeployStagesTriggerApplication) {
  controller->deploy_pna();
  EXPECT_TRUE(controller->deployed());
  const auto autostarts = channel.ait().autostart_entries();
  ASSERT_EQ(autostarts.size(), 1u);
  EXPECT_EQ(autostarts[0].application_name, "oddci-pna");
  EXPECT_EQ(autostarts[0].base_file, "pna.xlet");
  EXPECT_NE(channel.carousel().current().find("pna.xlet"), nullptr);
  // The deployment hello is a signed reset matching no instance.
  const auto hello = staged_control();
  ASSERT_TRUE(hello.has_value());
  EXPECT_EQ(hello->type, ControlType::kReset);
  EXPECT_EQ(hello->instance, kNoInstance);
  EXPECT_TRUE(hello->verify_with(0x5EC7E7));
  EXPECT_EQ(hello->controller_node, controller->node_id());
}

TEST_F(ControllerTest, CreateInstanceRequiresDeploy) {
  EXPECT_THROW(controller->create_instance(spec(10), 0), std::logic_error);
}

TEST_F(ControllerTest, CreateInstanceStagesImageAndWakeup) {
  controller->deploy_pna();
  const InstanceId id = controller->create_instance(spec(10), 99);
  EXPECT_NE(id, kNoInstance);
  const auto wakeup = staged_control();
  ASSERT_TRUE(wakeup.has_value());
  EXPECT_EQ(wakeup->type, ControlType::kWakeup);
  EXPECT_EQ(wakeup->instance, id);
  EXPECT_EQ(wakeup->backend_node, 99u);
  EXPECT_TRUE(wakeup->verify_with(0x5EC7E7));
  // With no population info, the controller addresses everyone.
  EXPECT_DOUBLE_EQ(wakeup->probability, 1.0);
  EXPECT_NE(channel.carousel().current().find(wakeup->image.name), nullptr);
  const InstanceStatus* st = controller->status(id);
  ASSERT_NE(st, nullptr);
  EXPECT_TRUE(st->active);
  EXPECT_EQ(st->target_size, 10u);
  EXPECT_EQ(st->current_size, 0u);
}

TEST_F(ControllerTest, CreateInstanceValidation) {
  controller->deploy_pna();
  EXPECT_THROW(controller->create_instance(spec(0), 0),
               std::invalid_argument);
  auto s = spec(10);
  s.image_size = util::Bits(0);
  EXPECT_THROW(controller->create_instance(s, 0), std::invalid_argument);
}

TEST_F(ControllerTest, HeartbeatsBuildMembershipAndPool) {
  controller->deploy_pna();
  const InstanceId id = controller->create_instance(spec(2), 99);

  FakeAgent a(sim, net), b(sim, net), c(sim, net);
  a.beat(controller->node_id(), PnaState::kIdle, kNoInstance);
  b.beat(controller->node_id(), PnaState::kBusy, id);
  c.beat(controller->node_id(), PnaState::kJoining, id);
  sim.run_until(sim.now() + sim::SimTime::from_seconds(5));

  EXPECT_EQ(controller->idle_pool_estimate(), 1u);
  EXPECT_EQ(controller->known_pna_count(), 3u);
  EXPECT_EQ(controller->status(id)->current_size, 1u);  // only busy counts

  c.beat(controller->node_id(), PnaState::kBusy, id);
  sim.run_until(sim.now() + sim::SimTime::from_seconds(5));
  EXPECT_EQ(controller->status(id)->current_size, 2u);
  EXPECT_TRUE(controller->status(id)->reached_target_at.has_value());
}

TEST_F(ControllerTest, SizeCallbackFires) {
  controller->deploy_pna();
  const InstanceId id = controller->create_instance(spec(1), 99);
  std::vector<std::size_t> sizes;
  controller->set_size_callback(
      [&](InstanceId i, std::size_t current, std::size_t target) {
        EXPECT_EQ(i, id);
        EXPECT_EQ(target, 1u);
        sizes.push_back(current);
      });
  FakeAgent a(sim, net);
  a.beat(controller->node_id(), PnaState::kBusy, id);
  sim.run_until(sim.now() + sim::SimTime::from_seconds(5));
  EXPECT_EQ(sizes, (std::vector<std::size_t>{1}));
}

TEST_F(ControllerTest, OversizedInstanceTrimmedViaHeartbeatReplies) {
  controller->deploy_pna();
  const InstanceId id = controller->create_instance(spec(2), 99);
  std::vector<std::unique_ptr<FakeAgent>> agents;
  for (int i = 0; i < 4; ++i) {
    agents.push_back(std::make_unique<FakeAgent>(sim, net));
    agents.back()->beat(controller->node_id(), PnaState::kBusy, id);
  }
  sim.run_until(sim.now() + sim::SimTime::from_seconds(5));
  EXPECT_EQ(controller->status(id)->current_size, 4u);

  // Monitor tick computes pending trims; subsequent heartbeats are answered
  // with unicast resets until the instance shrinks to target.
  sim.run_until(sim.now() + sim::SimTime::from_seconds(11));
  for (auto& agent : agents) {
    agent->beat(controller->node_id(), PnaState::kBusy, id);
  }
  sim.run_until(sim.now() + sim::SimTime::from_seconds(1));
  int resets = 0;
  for (auto& agent : agents) resets += agent->resets;
  EXPECT_EQ(resets, 2);
  EXPECT_EQ(controller->status(id)->current_size, 2u);
  EXPECT_EQ(controller->stats().unicast_resets, 2u);
}

TEST_F(ControllerTest, DestroyBroadcastsResetAndDropsImage) {
  controller->deploy_pna();
  const InstanceId id = controller->create_instance(spec(2), 99);
  const std::string image_name = staged_control()->image.name;
  controller->destroy_instance(id);
  const auto reset = staged_control();
  ASSERT_TRUE(reset.has_value());
  EXPECT_EQ(reset->type, ControlType::kReset);
  EXPECT_EQ(reset->instance, id);
  EXPECT_EQ(channel.carousel().current().find(image_name), nullptr);
  EXPECT_FALSE(controller->status(id)->active);
  EXPECT_THROW(controller->destroy_instance(999), std::invalid_argument);
}

TEST_F(ControllerTest, BusyHeartbeatToInactiveInstanceGetsReset) {
  controller->deploy_pna();
  const InstanceId id = controller->create_instance(spec(2), 99);
  controller->destroy_instance(id);
  FakeAgent straggler(sim, net);
  straggler.beat(controller->node_id(), PnaState::kBusy, id);
  sim.run_until(sim.now() + sim::SimTime::from_seconds(5));
  EXPECT_EQ(straggler.resets, 1);
}

TEST_F(ControllerTest, ResizeAdjustsTarget) {
  controller->deploy_pna();
  const InstanceId id = controller->create_instance(spec(2), 99);
  controller->resize_instance(id, 5);
  EXPECT_EQ(controller->status(id)->target_size, 5u);
  EXPECT_THROW(controller->resize_instance(id, 0), std::invalid_argument);
  EXPECT_THROW(controller->resize_instance(999, 1), std::invalid_argument);
}

TEST_F(ControllerTest, StaleMembersPrunedAfterMissedHeartbeats) {
  controller->deploy_pna();
  const InstanceId id = controller->create_instance(spec(1), 99);
  FakeAgent a(sim, net);
  a.beat(controller->node_id(), PnaState::kBusy, id);
  sim.run_until(sim.now() + sim::SimTime::from_seconds(5));
  EXPECT_EQ(controller->status(id)->current_size, 1u);
  // Silence for > stale_factor * heartbeat_interval (3 x 30 s).
  sim.run_until(sim.now() + sim::SimTime::from_seconds(120));
  EXPECT_EQ(controller->status(id)->current_size, 0u);
  EXPECT_GE(controller->stats().members_pruned, 1u);
}

TEST_F(ControllerTest, RecompositionRebroadcastsWakeup) {
  controller->deploy_pna();
  const InstanceId id = controller->create_instance(spec(2), 99);
  FakeAgent idler(sim, net);
  // Keep one idle PNA announcing itself so the probability is positive.
  sim::PeriodicTask keep_alive(
      sim, sim::SimTime::from_seconds(1), sim::SimTime::from_seconds(20),
      [&] { idler.beat(controller->node_id(), PnaState::kIdle, kNoInstance); });
  // Wait beyond the recomposition cooldown (3 cycles + heartbeat interval).
  sim.run_until(sim::SimTime::from_seconds(300));
  keep_alive.cancel();
  EXPECT_GE(controller->stats().recompositions, 1u);
  EXPECT_GE(controller->status(id)->wakeups_broadcast, 2u);
  // The rebroadcast probability targets the deficit within the idle pool.
  const auto wakeup = staged_control();
  ASSERT_TRUE(wakeup.has_value());
  EXPECT_EQ(wakeup->type, ControlType::kWakeup);
  EXPECT_DOUBLE_EQ(wakeup->probability, 1.0);  // deficit 2 > idle pool 1
}

TEST_F(ControllerTest, OptionValidation) {
  // A bad policy knob must throw at construction.
  ControllerOptions bad;
  bad.policy.monitor_interval = sim::SimTime::zero();
  EXPECT_THROW(Controller(sim, net, channel, store, 1,
                          net::LinkSpec{kMbps(1), kMbps(1),
                                        sim::SimTime::zero()},
                          bad),
               std::invalid_argument);
  bad = ControllerOptions{};
  bad.policy.stale_factor = 1.0;
  EXPECT_THROW(Controller(sim, net, channel, store, 1,
                          net::LinkSpec{kMbps(1), kMbps(1),
                                        sim::SimTime::zero()},
                          bad),
               std::invalid_argument);
}

}  // namespace
}  // namespace oddci::core
