#include "core/pna.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace oddci::core {
namespace {

constexpr auto kMbps = [](double m) { return util::BitRate::from_mbps(m); };
constexpr broadcast::SigningKey kKey = 0x0DDC1;
constexpr std::uint32_t kAppId = 0x4F44;

/// Captures heartbeats and can answer with reset commands.
class FakeController final : public net::Endpoint {
 public:
  FakeController(sim::Simulation& sim, net::Network& net)
      : net_(&net) {
    id_ = net.register_endpoint(
        this, {kMbps(1000), kMbps(1000), sim::SimTime::zero()});
    (void)sim;
  }

  void on_message(net::NodeId from, const net::MessagePtr& message) override {
    if (message->tag() != kTagHeartbeat) return;
    const auto& hb = static_cast<const HeartbeatMessage&>(*message);
    heartbeats.push_back({hb.pna_id(), hb.state(), hb.instance()});
    if (reset_on_next_beat != kNoInstance) {
      net_->send(id_, from,
                 std::make_shared<HeartbeatReplyMessage>(
                     reset_on_next_beat, HeartbeatCommand::kReset));
      reset_on_next_beat = kNoInstance;
    }
  }

  struct Beat {
    std::uint64_t pna;
    PnaState state;
    InstanceId instance;
  };
  std::vector<Beat> heartbeats;
  InstanceId reset_on_next_beat = kNoInstance;
  [[nodiscard]] net::NodeId id() const { return id_; }

 private:
  net::Network* net_;
  net::NodeId id_ = net::kInvalidNode;
};

/// Serves a fixed number of scripted tasks.
class FakeBackend final : public net::Endpoint {
 public:
  FakeBackend(sim::Simulation& sim, net::Network& net, int tasks)
      : net_(&net), remaining_(tasks) {
    id_ = net.register_endpoint(
        this, {kMbps(1000), kMbps(1000), sim::SimTime::zero()});
    (void)sim;
  }

  void on_message(net::NodeId from, const net::MessagePtr& message) override {
    if (message->tag() == kTagTaskRequest) {
      ++requests;
      const auto& req = static_cast<const TaskRequestMessage&>(*message);
      if (remaining_ > 0) {
        --remaining_;
        net_->send(id_, from,
                   std::make_shared<TaskAssignMessage>(
                       req.instance(), next_index_++,
                       util::Bits::from_bytes(512),
                       util::Bits::from_bytes(256), 2.0));
      } else {
        net_->send(id_, from, std::make_shared<NoTaskMessage>(req.instance()));
      }
    } else if (message->tag() == kTagTaskResult) {
      ++results;
    } else if (message->tag() == kTagTaskAbort) {
      aborted.push_back(
          static_cast<const TaskAbortMessage&>(*message).task_index());
    }
  }

  int requests = 0;
  int results = 0;
  std::vector<std::uint64_t> aborted;
  [[nodiscard]] net::NodeId id() const { return id_; }

 private:
  net::Network* net_;
  net::NodeId id_ = net::kInvalidNode;
  int remaining_;
  std::uint64_t next_index_ = 0;
};

struct PnaTest : ::testing::Test {
  sim::Simulation sim;
  net::Network net{sim};
  broadcast::BroadcastChannel channel{
      sim,
      broadcast::TransportStream(kMbps(1.1), util::BitRate::from_kbps(100)),
      5};
  ContentStore store;
  FakeController controller{sim, net};
  FakeBackend backend{sim, net, /*tasks=*/3};
  PnaEnvironment env;
  obs::PnaCounters counters;
  obs::LogHistogram acquire_latency{1e-3};
  broadcast::VerifyCache verify_cache;
  net::MessagePool<HeartbeatMessage> heartbeat_pool;
  sim::Cadence heartbeats{sim, &PnaXlet::beat};
  dtv::XletRegistry registry;
  std::unique_ptr<dtv::Receiver> receiver;

  void SetUp() override {
    env.content_store = &store;
    env.counters = &counters;
    env.acquire_latency = &acquire_latency;
    env.verify_cache = &verify_cache;
    env.heartbeat_pool = &heartbeat_pool;
    env.heartbeats = &heartbeats;
    env.trusted_key = kKey;
    env.task_poll_interval = sim::SimTime::from_seconds(5);
    env.draw_seed = 77;

    receiver = std::make_unique<dtv::Receiver>(
        sim, net, dtv::DeviceProfile::reference_stb(),
        net::LinkSpec{util::BitRate::from_kbps(150),
                      util::BitRate::from_kbps(150),
                      sim::SimTime::from_millis(10)});
    registry.register_factory("oddci-pna", [this](dtv::Receiver&) {
      return std::make_unique<PnaXlet>(env);
    });
    receiver->application_manager().set_registry(&registry);
    receiver->tune(channel);

    // Deploy the PNA trigger application, as the Controller would.
    broadcast::AitEntry entry;
    entry.application_id = kAppId;
    entry.control_code = broadcast::AppControlCode::kAutostart;
    entry.application_name = "oddci-pna";
    entry.base_file = "pna.xlet";
    channel.ait().upsert(entry);
    channel.carousel().put_file("pna.xlet", util::Bits::from_kilobytes(64),
                                0);
  }

  void stage_control(ControlMessage msg,
                     broadcast::SigningKey key = kKey) {
    msg.controller_node = controller.id();
    if (msg.backend_node == net::kInvalidNode) {
      msg.backend_node = backend.id();
    }
    msg.sign_with(key);
    const auto content = store.put_control(msg);
    channel.carousel().put_file("oddci.config", util::Bits::from_bytes(512),
                                content);
    channel.commit();
  }

  ControlMessage wakeup(InstanceId instance, double probability = 1.0) {
    ControlMessage m;
    m.type = ControlType::kWakeup;
    m.instance = instance;
    m.probability = probability;
    m.heartbeat_interval = sim::SimTime::from_seconds(30);
    m.image = {1, "image-1", util::Bits::from_megabytes(1)};
    channel.carousel().put_file(m.image.name, m.image.size, m.image.image_id);
    return m;
  }

  PnaXlet* pna() {
    return dynamic_cast<PnaXlet*>(
        receiver->application_manager().find(kAppId));
  }
};

TEST_F(PnaTest, AutostartsAndHeartbeatsIdle) {
  ControlMessage hello;
  hello.type = ControlType::kReset;
  hello.instance = kNoInstance;
  stage_control(hello);
  sim.run_until(sim::SimTime::from_seconds(120));
  ASSERT_NE(pna(), nullptr);
  EXPECT_EQ(pna()->state(), PnaState::kIdle);
  ASSERT_FALSE(controller.heartbeats.empty());
  EXPECT_EQ(controller.heartbeats[0].state, PnaState::kIdle);
  EXPECT_EQ(controller.heartbeats[0].instance, kNoInstance);
  // ~1 heartbeat per 30 s.
  EXPECT_GE(controller.heartbeats.size(), 2u);
}

TEST_F(PnaTest, WakeupJoinsInstanceAndRunsTasks) {
  stage_control(wakeup(7));
  sim.run_until(sim::SimTime::from_seconds(300));
  ASSERT_NE(pna(), nullptr);
  EXPECT_EQ(pna()->state(), PnaState::kBusy);
  EXPECT_EQ(pna()->instance(), 7u);
  EXPECT_EQ(counters.joins.value(), 1u);
  ASSERT_NE(pna()->dve(), nullptr);
  EXPECT_EQ(pna()->dve()->image().name, "image-1");
  // All three scripted tasks executed (2 s each on the reference STB).
  EXPECT_EQ(backend.results, 3);
  EXPECT_EQ(counters.tasks_completed.value(), 3u);
  EXPECT_EQ(pna()->dve()->tasks_completed(), 3u);
}

TEST_F(PnaTest, ForgedSignatureRejected) {
  stage_control(wakeup(7), /*key=*/0xBAD);
  sim.run_until(sim::SimTime::from_seconds(120));
  ASSERT_NE(pna(), nullptr);
  EXPECT_EQ(pna()->state(), PnaState::kIdle);
  EXPECT_GE(counters.signature_failures.value(), 1u);
  EXPECT_EQ(counters.joins.value(), 0u);
  // An unverified message must not even configure heartbeating.
  EXPECT_TRUE(controller.heartbeats.empty());
}

TEST_F(PnaTest, ProbabilityZeroNeverJoins) {
  stage_control(wakeup(7, 0.0));
  sim.run_until(sim::SimTime::from_seconds(120));
  ASSERT_NE(pna(), nullptr);
  EXPECT_EQ(pna()->state(), PnaState::kIdle);
  EXPECT_GE(counters.wakeups_dropped_probability.value(), 1u);
}

TEST_F(PnaTest, RequirementsMismatchRejected) {
  ControlMessage m = wakeup(7);
  m.requirements.min_ram = util::Bits::from_megabytes(1024);  // > 256 MB
  stage_control(m);
  sim.run_until(sim::SimTime::from_seconds(120));
  ASSERT_NE(pna(), nullptr);
  EXPECT_EQ(pna()->state(), PnaState::kIdle);
  EXPECT_GE(counters.wakeups_rejected_requirements.value(), 1u);
}

TEST_F(PnaTest, DeviceKindRequirementMatches) {
  ControlMessage m = wakeup(7);
  m.requirements.device_kind = "reference-stb";
  stage_control(m);
  sim.run_until(sim::SimTime::from_seconds(300));
  EXPECT_EQ(pna()->state(), PnaState::kBusy);
}

TEST_F(PnaTest, BusyPnaDropsSecondWakeup) {
  stage_control(wakeup(7));
  sim.run_until(sim::SimTime::from_seconds(300));
  ASSERT_EQ(pna()->state(), PnaState::kBusy);
  ControlMessage second = wakeup(8);
  second.image.name = "image-2";
  second.image.image_id = 2;
  channel.carousel().put_file("image-2", second.image.size, 2);
  stage_control(second);
  sim.run_until(sim::SimTime::from_seconds(500));
  EXPECT_EQ(pna()->instance(), 7u);
  EXPECT_GE(counters.wakeups_dropped_busy.value(), 1u);
}

TEST_F(PnaTest, BroadcastResetReturnsToIdle) {
  stage_control(wakeup(7));
  sim.run_until(sim::SimTime::from_seconds(300));
  ASSERT_EQ(pna()->state(), PnaState::kBusy);
  ControlMessage reset;
  reset.type = ControlType::kReset;
  reset.instance = 7;
  stage_control(reset);
  sim.run_until(sim::SimTime::from_seconds(400));
  EXPECT_EQ(pna()->state(), PnaState::kIdle);
  EXPECT_EQ(counters.resets.value(), 1u);
  EXPECT_EQ(pna()->dve(), nullptr);
}

TEST_F(PnaTest, ResetForOtherInstanceIgnored) {
  stage_control(wakeup(7));
  sim.run_until(sim::SimTime::from_seconds(300));
  ASSERT_EQ(pna()->state(), PnaState::kBusy);
  ControlMessage reset;
  reset.type = ControlType::kReset;
  reset.instance = 99;
  stage_control(reset);
  sim.run_until(sim::SimTime::from_seconds(400));
  EXPECT_EQ(pna()->state(), PnaState::kBusy);
}

TEST_F(PnaTest, UnicastResetViaHeartbeatReply) {
  stage_control(wakeup(7));
  sim.run_until(sim::SimTime::from_seconds(300));
  ASSERT_EQ(pna()->state(), PnaState::kBusy);
  controller.reset_on_next_beat = 7;
  sim.run_until(sim::SimTime::from_seconds(400));
  EXPECT_EQ(pna()->state(), PnaState::kIdle);
  EXPECT_EQ(counters.resets.value(), 1u);
}

TEST_F(PnaTest, AssignmentRacingAResetIsHandedBack) {
  // The reset crossed an assignment on the wire: the PNA has left the
  // instance when the task lands, and hands it straight back rather than
  // leaving it to the Backend's re-dispatch timeout.
  stage_control(wakeup(7));
  sim.run_until(sim::SimTime::from_seconds(300));
  ASSERT_EQ(pna()->state(), PnaState::kBusy);
  controller.reset_on_next_beat = 7;
  sim.run_until(sim::SimTime::from_seconds(400));
  ASSERT_EQ(pna()->state(), PnaState::kIdle);
  net.send(backend.id(), receiver->node_id(),
           std::make_shared<TaskAssignMessage>(
               7, 41, util::Bits::from_bytes(512),
               util::Bits::from_bytes(256), 2.0));
  sim.run_until(sim::SimTime::from_seconds(401));
  ASSERT_EQ(backend.aborted.size(), 1u);
  EXPECT_EQ(backend.aborted[0], 41u);
  EXPECT_EQ(counters.tasks_completed.value(), 3u);  // the scripted three
}

TEST_F(PnaTest, JoiningStateReportedWhileImageLoads) {
  stage_control(wakeup(7));
  // The agent launches once its code base is read, then reads the wakeup
  // and starts the image read.
  while (counters.control_messages_seen.value() == 0) ASSERT_TRUE(sim.step());
  // The 1 MB image at ~1 Mbps takes ~8.4 s+ to read; before that the PNA
  // must have announced kJoining.
  sim.run_until(sim.now() + sim::SimTime::from_seconds(4));
  EXPECT_EQ(counters.joins.value(), 0u);
  bool saw_joining = false;
  for (const auto& hb : controller.heartbeats) {
    if (hb.state == PnaState::kJoining && hb.instance == 7) {
      saw_joining = true;
    }
  }
  ASSERT_NE(pna(), nullptr);
  EXPECT_TRUE(saw_joining || pna()->state() == PnaState::kJoining);
}

TEST_F(PnaTest, ImageReadOfAnEarlierJoinIsIgnored) {
  // Join instance 7 (a 4-MB image), be reset out of it while the image is
  // still being read, then join instance 8 (a 1-MB image). The first
  // join's read completes during the second join: it must not make the
  // agent a member of 8 running 7's image.
  ControlMessage first = wakeup(7);
  first.image.size = util::Bits::from_megabytes(4);
  channel.carousel().put_file(first.image.name, first.image.size,
                              first.image.image_id);
  stage_control(first);
  while (pna() == nullptr || pna()->state() != PnaState::kJoining) {
    ASSERT_TRUE(sim.step());
  }
  ControlMessage reset;
  reset.type = ControlType::kReset;
  reset.instance = 7;
  stage_control(reset);
  while (pna()->state() == PnaState::kJoining) ASSERT_TRUE(sim.step());
  ControlMessage second = wakeup(8);
  second.image = {2, "image-2", util::Bits::from_megabytes(1)};
  channel.carousel().put_file(second.image.name, second.image.size,
                              second.image.image_id);
  stage_control(second);
  while (pna()->state() != PnaState::kJoining) ASSERT_TRUE(sim.step());
  // The first join's image read is still in flight, beside the second's.
  ASSERT_EQ(channel.reads_pending(), 2u);
  ASSERT_EQ(counters.joins.value(), 0u);

  sim.run_until(sim.now() + sim::SimTime::from_seconds(600));
  EXPECT_EQ(pna()->instance(), 8u);
  ASSERT_NE(pna()->dve(), nullptr);
  EXPECT_EQ(pna()->dve()->image().name, "image-2");
  EXPECT_EQ(counters.joins.value(), 1u);
}

TEST_F(PnaTest, PowerOffDestroysXlet) {
  stage_control(wakeup(7));
  sim.run_until(sim::SimTime::from_seconds(300));
  ASSERT_NE(pna(), nullptr);
  receiver->set_power_mode(dtv::PowerMode::kOff);
  EXPECT_EQ(pna(), nullptr);
  sim.run_until(sim::SimTime::from_seconds(400));  // must not crash
}

TEST_F(PnaTest, FrozenOrDestroyedAgentsQueuedBeatNeverRuns) {
  // The agent's next beat waits in the shard's cadence. A hang freezes the
  // agent: that beat must not run until the watchdog relaunches it. A
  // power-off destroys the Xlet: the beat must leave the cadence with it.
  ControlMessage hello;
  hello.type = ControlType::kReset;
  hello.instance = kNoInstance;
  stage_control(hello);
  sim.run_until(sim::SimTime::from_seconds(100));
  ASSERT_NE(pna(), nullptr);
  ASSERT_EQ(heartbeats.armed(), 1u);
  ASSERT_TRUE(pna()->fault_hang(sim::SimTime::from_seconds(100)));
  EXPECT_EQ(heartbeats.armed(), 0u);
  // A beat on the wire when the hang began has landed a second later.
  sim.run_until(sim::SimTime::from_seconds(101));
  const std::size_t before_hang = controller.heartbeats.size();
  sim.run_until(sim::SimTime::from_seconds(199));  // three periods, hung
  EXPECT_EQ(controller.heartbeats.size(), before_hang);
  // The watchdog relaunches the agent at 200 s, and it beats again.
  sim.run_until(sim::SimTime::from_seconds(300));
  EXPECT_GT(controller.heartbeats.size(), before_hang);
  ASSERT_EQ(heartbeats.armed(), 1u);

  receiver->set_power_mode(dtv::PowerMode::kOff);
  ASSERT_EQ(pna(), nullptr);
  ASSERT_EQ(heartbeats.armed(), 0u);
  sim.run_until(sim::SimTime::from_seconds(301));
  const std::size_t at_power_off = controller.heartbeats.size();
  sim.run_until(sim::SimTime::from_seconds(400));
  EXPECT_EQ(controller.heartbeats.size(), at_power_off);
}

TEST_F(PnaTest, NullContentStoreRejected) {
  PnaEnvironment bad;
  bad.content_store = nullptr;
  EXPECT_THROW(PnaXlet{bad}, std::invalid_argument);
}

TEST_F(PnaTest, EnvironmentWithoutCountersRejected) {
  PnaEnvironment bad = env;
  bad.counters = nullptr;
  EXPECT_THROW(PnaXlet{bad}, std::invalid_argument);
  bad = env;
  bad.acquire_latency = nullptr;
  EXPECT_THROW(PnaXlet{bad}, std::invalid_argument);
}

TEST_F(PnaTest, EnvironmentWithoutVerifyCacheOrPoolRejected) {
  PnaEnvironment bad = env;
  bad.verify_cache = nullptr;
  EXPECT_THROW(PnaXlet{bad}, std::invalid_argument);
  bad = env;
  bad.heartbeat_pool = nullptr;
  EXPECT_THROW(PnaXlet{bad}, std::invalid_argument);
}

TEST_F(PnaTest, EnvironmentWithoutHeartbeatCadenceRejected) {
  PnaEnvironment bad = env;
  bad.heartbeats = nullptr;
  EXPECT_THROW(PnaXlet{bad}, std::invalid_argument);
  // A cadence that would hand its targets to another fire function.
  sim::Cadence foreign{sim, [](void*) {}};
  bad.heartbeats = &foreign;
  EXPECT_THROW(PnaXlet{bad}, std::invalid_argument);
}

TEST_F(PnaTest, RelaunchedAgentDrawsAFreshHeartbeatPhase) {
  // A power cycle destroys the Xlet and the factory builds a new one. Its
  // draws carry the host generation, which the power-off moved: the
  // relaunched agent must not replay its previous life's draws, starting
  // with the first-heartbeat phase (control receipt -> first beat).
  if (!obs::kTracingCompiledIn) GTEST_SKIP() << "needs the flight recorder";
  obs::FlightRecorder recorder;
  env.recorder = &recorder;
  ControlMessage hello;
  hello.type = ControlType::kReset;
  hello.instance = kNoInstance;
  stage_control(hello);
  const sim::SimTime cycle_at = sim::SimTime::from_seconds(60);
  sim.run_until(cycle_at);
  ASSERT_NE(pna(), nullptr);
  receiver->set_power_mode(dtv::PowerMode::kOff);
  receiver->set_power_mode(dtv::PowerMode::kStandby);
  sim.run_until(sim::SimTime::from_seconds(120));
  ASSERT_NE(pna(), nullptr);

  // Per life: the first control receipt and the first beat after it.
  struct Life {
    std::int64_t control_us = -1;
    std::int64_t beat_us = -1;
  };
  Life lives[2];
  for (const obs::TraceEvent& e : recorder.events()) {
    Life& life = lives[e.t_micros < cycle_at.micros() ? 0 : 1];
    if (e.kind == obs::TraceEventKind::kControlReceived &&
        life.control_us < 0) {
      life.control_us = e.t_micros;
    } else if (e.kind == obs::TraceEventKind::kHeartbeatSent &&
               life.control_us >= 0 && life.beat_us < 0) {
      life.beat_us = e.t_micros;
    }
  }
  for (const Life& life : lives) {
    ASSERT_GE(life.control_us, 0);
    ASSERT_GE(life.beat_us, 0);
  }
  EXPECT_NE(lives[0].beat_us - lives[0].control_us,
            lives[1].beat_us - lives[1].control_us);
}

}  // namespace
}  // namespace oddci::core
