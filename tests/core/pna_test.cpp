#include "core/pna.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
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

/// One agent on a reference set-top box, with its channel and fake
/// servers. A positive `pace_window` paces its heartbeats.
struct World {
  explicit World(sim::SimTime pace_window = sim::SimTime::zero())
      : heartbeats(sim, pace_window > sim::SimTime::zero()
                            ? &PnaXlet::paced_beat
                            : &PnaXlet::beat) {
    env.content_store = &store;
    env.counters = &counters;
    env.acquire_latency = &acquire_latency;
    env.verify_cache = &verify_cache;
    env.heartbeat_pool = &heartbeat_pool;
    env.heartbeats = &heartbeats;
    env.trusted_key = kKey;
    env.task_poll_interval = sim::SimTime::from_seconds(5);
    env.draw_seed = 77;
    env.heartbeat_pace_window = pace_window;

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

  /// The Controller's unicast reset of `instance`, as a heartbeat reply.
  void reset_by_reply(InstanceId instance) {
    pna()->on_direct_message(controller.id(),
                             std::make_shared<HeartbeatReplyMessage>(
                                 instance, HeartbeatCommand::kReset));
  }

  PnaXlet* pna() {
    return dynamic_cast<PnaXlet*>(
        receiver->application_manager().find(kAppId));
  }

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
  sim::Cadence heartbeats;
  dtv::XletRegistry registry;
  std::unique_ptr<dtv::Receiver> receiver;
};

struct PnaTest : ::testing::Test, World {};

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

// --- Paced heartbeats ----------------------------------------------------
//
// Every paced run is checked against the pacing rule applied to the unpaced
// run of the same script: each beat the unpaced agent sends at t is a
// request at t, which goes out at the agent's first slot after t unless a
// beat already pending absorbs it.

const sim::SimTime kWindow = sim::SimTime::from_seconds(10);

sim::SimTime seconds(double s) { return sim::SimTime::from_seconds(s); }

/// A heartbeat the agent sent: when, and the state it reported.
struct Sent {
  std::int64_t at;
  PnaState state;
};

/// What a script does to a world before the world runs.
using Script = std::function<void(World&)>;

/// A world that ran a script, with a flight recorder attached.
struct Trial {
  std::unique_ptr<obs::FlightRecorder> recorder =
      std::make_unique<obs::FlightRecorder>(1 << 12);
  std::unique_ptr<World> world;

  [[nodiscard]] std::vector<Sent> beats() const {
    std::vector<Sent> sent;
    for (const obs::TraceEvent& e : recorder->events()) {
      if (e.kind == obs::TraceEventKind::kHeartbeatSent) {
        sent.push_back({e.t_micros, static_cast<PnaState>(e.arg)});
      }
    }
    return sent;
  }
  /// Instants the agent received a control message.
  [[nodiscard]] std::vector<std::int64_t> controls() const {
    std::vector<std::int64_t> at;
    for (const obs::TraceEvent& e : recorder->events()) {
      if (e.kind == obs::TraceEventKind::kControlReceived) {
        at.push_back(e.t_micros);
      }
    }
    return at;
  }
  [[nodiscard]] std::vector<std::int64_t> sends() const {
    std::vector<std::int64_t> at;
    for (const Sent& s : beats()) at.push_back(s.at);
    return at;
  }
};

/// Runs `script` on a fresh world to `until`; a positive `window` paces
/// the agent's heartbeats, with its slot drawn from `phase_seed`.
Trial run(const Script& script, sim::SimTime until,
          sim::SimTime window = sim::SimTime::zero(),
          std::uint64_t phase_seed = 0, std::uint64_t draw_seed = 77) {
  Trial r;
  r.world = std::make_unique<World>(window);
  r.world->env.heartbeat_phase_seed = phase_seed;
  r.world->env.draw_seed = draw_seed;
  r.world->env.recorder = r.recorder.get();
  script(*r.world);
  r.world->sim.run_until(until);
  return r;
}

/// The pacing rule for one agent, in microseconds.
struct PaceRule {
  std::int64_t window = 0;
  std::int64_t phase = 0;  ///< the agent's slot offset within the window
  /// A hang or crash at each of these drops the pending beat.
  std::vector<std::int64_t> drops;
  /// A slot reached in [paused_from, paused_to) sends nothing.
  std::int64_t paused_from = 0;
  std::int64_t paused_to = 0;

  [[nodiscard]] std::int64_t slot_after(std::int64_t t) const {
    const std::int64_t slot = t / window * window + phase;
    return slot <= t ? slot + window : slot;
  }
};

PaceRule rule_for(const World& world, std::uint64_t phase_seed) {
  PaceRule rule;
  rule.window = kWindow.micros();
  rule.phase = static_cast<std::int64_t>(
      util::keyed_uniform(phase_seed, world.receiver->node_id(), 0) *
      static_cast<double>(rule.window));
  return rule;
}

/// The beats the rule sends through `until` for the unpaced agent's
/// beats, and how many requests it absorbs.
struct Paced {
  std::vector<std::int64_t> sends;
  std::uint64_t absorbed = 0;
  /// Pending beats an event-driven request made or rode: those a periodic
  /// request rode too, and those it did not.
  int shared = 0;
  int alone = 0;
};

Paced apply(const PaceRule& rule, const std::vector<Sent>& requests,
            std::int64_t until) {
  Paced out;
  std::optional<std::int64_t> slot;  // the pending beat
  bool periodic = false;
  bool event_driven = false;
  std::size_t drop = 0;
  const auto settle = [&](std::int64_t t) {
    for (;;) {
      const std::int64_t next_drop =
          drop < rule.drops.size() ? rule.drops[drop] : INT64_MAX;
      if (slot && *slot <= t && *slot < next_drop) {
        if (*slot < rule.paused_from || *slot >= rule.paused_to) {
          out.sends.push_back(*slot);
        }
        if (event_driven) ++(periodic ? out.shared : out.alone);
      } else if (next_drop <= t) {
        ++drop;
      } else {
        return;
      }
      slot.reset();
      periodic = event_driven = false;
    }
  };
  // A beat that reports a new state is the event-driven one that announced
  // it; the periodic beats repeat the state.
  PnaState last = PnaState::kIdle;
  for (const Sent& request : requests) {
    if (request.at > until) break;
    EXPECT_FALSE(slot && *slot == request.at)
        << "a request shares its pending slot's microsecond";
    settle(request.at);
    if (slot) {
      ++out.absorbed;
    } else {
      slot = rule.slot_after(request.at);
    }
    (request.state != last ? event_driven : periodic) = true;
    last = request.state;
  }
  settle(until);
  return out;
}

/// The first phase seed from 1 whose rule `fits`.
std::uint64_t phase_seed_where(
    const World& world, const std::function<bool(const PaceRule&)>& fits) {
  for (std::uint64_t seed = 1; seed < 1000; ++seed) {
    if (fits(rule_for(world, seed))) return seed;
  }
  ADD_FAILURE() << "no phase seed fits";
  return 0;
}

/// Runs `script` paced under `rule` (drawn from `phase_seed`) and checks
/// its beats and counters against the rule applied to `unpaced`. The run
/// stops at the rule's last send by `horizon`, where no beat is pending,
/// so both count the same absorbed requests. Returns the paced run.
Trial expect_rule(const Script& script, const Trial& unpaced,
                  const PaceRule& rule, std::uint64_t phase_seed,
                  sim::SimTime horizon, std::uint64_t draw_seed = 77) {
  const std::vector<Sent> requests = unpaced.beats();
  const Paced by_horizon = apply(rule, requests, horizon.micros());
  EXPECT_FALSE(by_horizon.sends.empty());
  const std::int64_t until =
      by_horizon.sends.empty() ? horizon.micros() : by_horizon.sends.back();
  const Paced expected = apply(rule, requests, until);
  Trial paced = run(script, sim::SimTime::from_micros(until), kWindow,
                    phase_seed, draw_seed);
  EXPECT_EQ(paced.sends(), expected.sends);
  const obs::PnaCounters& counters = paced.world->counters;
  EXPECT_EQ(counters.heartbeats_sent.value(), expected.sends.size());
  EXPECT_EQ(counters.heartbeats_paced.value(), expected.absorbed);
  return paced;
}

/// The first beat that repeats its predecessor's state: the first
/// periodic one.
std::int64_t first_periodic(const std::vector<Sent>& beats) {
  PnaState last = PnaState::kIdle;
  for (const Sent& beat : beats) {
    if (beat.state == last) return beat.at;
    last = beat.state;
  }
  ADD_FAILURE() << "no periodic beat";
  return 0;
}

/// Whether `slot` is one of the periodic beats' slots: the first periodic
/// beat at `first` repeats every `period`.
bool periodic_slot(const PaceRule& rule, std::int64_t first,
                   sim::SimTime period, std::int64_t slot) {
  const std::int64_t from = rule.slot_after(first);
  return slot >= from && (slot - from) % period.micros() == 0;
}

struct PacedBeats : ::testing::TestWithParam<int> {
  void SetUp() override {
    if (!obs::kTracingCompiledIn) GTEST_SKIP() << "needs the flight recorder";
  }
};

TEST_P(PacedBeats, EveryBeatGoesOutAtItsSlotAndPendingBeatsAbsorb) {
  // Join, leave, join again: five event-driven beats among the periodic
  // ones, at an interval that is a multiple of the window (the cadence
  // fires each beat at its slot) and one that is not (each periodic beat
  // is a request like an event-driven one).
  const sim::SimTime interval = seconds(GetParam());
  const Script script = [interval](World& w) {
    ControlMessage first = w.wakeup(7);
    first.heartbeat_interval = interval;
    w.stage_control(first);
    w.sim.schedule_at(seconds(150), [&w] { w.reset_by_reply(7); });
    w.sim.schedule_at(seconds(200), [&w, interval] {
      ControlMessage second = w.wakeup(8);
      second.heartbeat_interval = interval;
      w.stage_control(second);
    });
  };
  const sim::SimTime horizon = seconds(400);
  const Trial unpaced = run(script, horizon);
  const std::vector<Sent> requests = unpaced.beats();
  // A slot under which event-driven beats both ride a periodic beat and go
  // out alone.
  const std::uint64_t seed =
      phase_seed_where(*unpaced.world, [&](const PaceRule& rule) {
        const Paced paced = apply(rule, requests, horizon.micros());
        return paced.shared > 0 && paced.alone > 0;
      });
  const PaceRule rule = rule_for(*unpaced.world, seed);
  const Trial paced = expect_rule(script, unpaced, rule, seed, horizon);
  for (const std::int64_t at : paced.sends()) {
    EXPECT_EQ(at % rule.window, rule.phase);
  }
}

INSTANTIATE_TEST_SUITE_P(AlignedAndUnaligned, PacedBeats,
                         ::testing::Values(30, 25),
                         [](const ::testing::TestParamInfo<int>& param) {
                           return "interval" + std::to_string(param.param) +
                                  "s";
                         });

struct PacedEdgeCases : ::testing::Test {
  void SetUp() override {
    if (!obs::kTracingCompiledIn) GTEST_SKIP() << "needs the flight recorder";
  }
  static constexpr std::int64_t kMs = 1'000;
  const sim::SimTime period = seconds(30);
};

TEST_F(PacedEdgeCases, RequestOnePeriodBeforeTheFirstBeatGoesOutAtItsSlot) {
  // The join beat is requested when the agent arms its heartbeat. When the
  // first periodic deadline falls late in the period, the join's slot can
  // be the first beat's slot minus one period: same lap, but the cadence
  // does not fire there, so the join goes out alone, a period early.
  const Script script = [](World& w) { w.stage_control(w.wakeup(7)); };
  const sim::SimTime horizon = seconds(120);
  const std::int64_t late = period.micros() - kWindow.micros() / 2;
  std::uint64_t draw_seed = 1;
  std::optional<Trial> unpaced;
  for (; draw_seed < 100; ++draw_seed) {
    unpaced = run(script, horizon, sim::SimTime::zero(), 0, draw_seed);
    const std::vector<Sent> beats = unpaced->beats();
    if (first_periodic(beats) - beats.front().at > late) break;
  }
  const std::vector<Sent> beats = unpaced->beats();
  const std::int64_t join = beats.front().at;
  const std::int64_t first = first_periodic(beats);
  ASSERT_GT(first - join, late);
  const auto early = [&](const PaceRule& rule) {
    return rule.slot_after(join) + period.micros() == rule.slot_after(first);
  };
  const std::uint64_t seed = phase_seed_where(*unpaced->world, early);
  const PaceRule rule = rule_for(*unpaced->world, seed);
  ASSERT_TRUE(early(rule));
  const Trial paced =
      expect_rule(script, *unpaced, rule, seed, horizon, draw_seed);
  const std::vector<std::int64_t> sends = paced.sends();
  ASSERT_GE(sends.size(), 2u);
  EXPECT_EQ(sends[0], rule.slot_after(join));
}

TEST_F(PacedEdgeCases, ReparameterizedIntervalKeepsAPendingBeatsSlot) {
  // A leave is pending when a control message moves the interval from
  // 30 s to 10 s and the agent re-arms. Either the leave rides the old
  // arming's next beat and the new arming's first beat comes past that
  // slot (the new lap shares the slot but does not reach it), or the leave
  // waits for its own release and the new arming's first beat lands on
  // the same slot. Either way exactly one beat goes out at the slot.
  const sim::SimTime new_period = kWindow;
  const auto script_with = [new_period](std::optional<std::int64_t> leave) {
    return [new_period, leave](World& w) {
      w.stage_control(w.wakeup(7));
      w.sim.schedule_at(seconds(100), [&w, new_period] {
        ControlMessage hello;
        hello.type = ControlType::kReset;
        hello.instance = kNoInstance;
        hello.heartbeat_interval = new_period;
        w.stage_control(hello);
      });
      if (leave) {
        w.sim.schedule_at(sim::SimTime::from_micros(*leave),
                          [&w] { w.reset_by_reply(7); });
      }
    };
  };
  const sim::SimTime horizon = seconds(200);
  for (const bool rides : {true, false}) {
    SCOPED_TRACE(rides ? "leave rides the old beat" : "leave waits alone");
    // Draws under which the leave can follow an old deadline 2-5 s before
    // the re-arm and the new first beat comes over 7 s after the re-arm,
    // or under which the new first beat comes within 5 s of it.
    std::int64_t rearm = 0;
    std::int64_t due = 0;  // the last old deadline before the re-arm
    std::int64_t new_first = 0;
    std::uint64_t draw_seed = 1;
    for (; draw_seed < 200; ++draw_seed) {
      const Trial probe = run(script_with(std::nullopt), horizon,
                              sim::SimTime::zero(), 0, draw_seed);
      ASSERT_EQ(probe.controls().size(), 2u);
      rearm = probe.controls()[1];
      due = 0;
      new_first = 0;
      for (const Sent& beat : probe.beats()) {
        if (beat.at < rearm) due = beat.at;
        if (beat.at > rearm && new_first == 0) new_first = beat.at;
      }
      const bool suits =
          rides ? due > rearm - 5'000 * kMs && due < rearm - 2'000 * kMs &&
                      new_first > rearm + 7'000 * kMs
                : new_first < rearm + 5'000 * kMs;
      if (suits) break;
    }
    ASSERT_LT(draw_seed, 200u);
    const std::int64_t leave = rides ? due + kMs : rearm - 1'000 * kMs;
    const Script script = script_with(leave);
    const Trial unpaced =
        run(script, horizon, sim::SimTime::zero(), 0, draw_seed);
    const std::int64_t first = first_periodic(unpaced.beats());
    const auto fits = [&](const PaceRule& rule) {
      const std::int64_t slot = rule.slot_after(leave);
      if (slot <= rearm) return false;
      if (rides) return rule.slot_after(due) == slot && slot < new_first;
      return !periodic_slot(rule, first, period, slot) && slot > new_first;
    };
    const std::uint64_t seed = phase_seed_where(*unpaced.world, fits);
    const PaceRule rule = rule_for(*unpaced.world, seed);
    ASSERT_TRUE(fits(rule));
    const Trial paced =
        expect_rule(script, unpaced, rule, seed, horizon, draw_seed);
    const std::vector<std::int64_t> sends = paced.sends();
    EXPECT_EQ(std::count(sends.begin(), sends.end(), rule.slot_after(leave)),
              1);
  }
}

TEST_F(PacedEdgeCases, PauseAcrossTheSlotLeavesNothingCoalesced) {
  // A leave rides a periodic beat, and the agent is paused across that
  // beat's slot: the slot sends nothing, and it takes the coalesced leave
  // with it. After the resume, a join whose slot the cadence does not
  // fire goes out at that slot rather than into a beat that is gone.
  const std::vector<Sent> probe =
      run([](World& w) { w.stage_control(w.wakeup(7)); }, seconds(120))
          .beats();
  std::int64_t due = first_periodic(probe);
  while (due < seconds(40).micros()) due += period.micros();
  const std::int64_t resume = due + kWindow.micros() + kMs;
  const Script script = [due, resume](World& w) {
    w.stage_control(w.wakeup(7));
    auto& apps = w.receiver->application_manager();
    w.sim.schedule_at(sim::SimTime::from_micros(due + kMs),
                      [&w] { w.reset_by_reply(7); });
    w.sim.schedule_at(sim::SimTime::from_micros(due + 2 * kMs),
                      [&apps] { ASSERT_TRUE(apps.pause(kAppId)); });
    w.sim.schedule_at(sim::SimTime::from_micros(resume),
                      [&apps] { ASSERT_TRUE(apps.resume(kAppId)); });
    w.sim.schedule_at(sim::SimTime::from_micros(resume) + seconds(1),
                      [&w] { w.stage_control(w.wakeup(8)); });
  };
  const sim::SimTime horizon = seconds(200);
  const Trial unpaced = run(script, horizon);
  const std::vector<Sent> beats = unpaced.beats();
  std::int64_t join = 0;
  for (const Sent& beat : beats) {
    if (beat.at > resume && beat.state == PnaState::kJoining) {
      join = beat.at;
      break;
    }
  }
  ASSERT_GT(join, resume);
  const std::int64_t first = first_periodic(beats);
  const auto fits = [&](const PaceRule& rule) {
    return rule.slot_after(due) > due + 2 * kMs &&
           !periodic_slot(rule, first, period, rule.slot_after(join));
  };
  const std::uint64_t seed = phase_seed_where(*unpaced.world, fits);
  PaceRule rule = rule_for(*unpaced.world, seed);
  ASSERT_TRUE(fits(rule));
  rule.paused_from = due + 2 * kMs;
  rule.paused_to = resume;
  const Trial paced = expect_rule(script, unpaced, rule, seed, horizon);
  const std::vector<std::int64_t> sends = paced.sends();
  EXPECT_EQ(std::find(sends.begin(), sends.end(), rule.slot_after(due)),
            sends.end());
  EXPECT_NE(std::find(sends.begin(), sends.end(), rule.slot_after(join)),
            sends.end());
}

TEST_F(PacedEdgeCases, HangOrCrashDropsThePendingBeat) {
  // A hang freezes the agent while a leave rides a periodic beat; a crash
  // kills it while a leave waits for its own release. Neither beat goes
  // out, and the relaunched agent beats by the rule again.
  const std::vector<Sent> probe =
      run([](World& w) { w.stage_control(w.wakeup(7)); }, seconds(120))
          .beats();
  std::int64_t due = first_periodic(probe);
  while (due < seconds(40).micros()) due += period.micros();
  for (const bool hang : {true, false}) {
    SCOPED_TRACE(hang ? "hang" : "crash");
    // The leave: just after a periodic deadline (it rides that beat), or
    // half a period later (its slot is its own).
    const std::int64_t leave = due + (hang ? kMs : period.micros() / 2);
    const std::int64_t fault = leave + kMs;
    const Script script = [hang, leave, fault](World& w) {
      w.stage_control(w.wakeup(7));
      w.sim.schedule_at(sim::SimTime::from_micros(leave),
                        [&w] { w.reset_by_reply(7); });
      w.sim.schedule_at(sim::SimTime::from_micros(fault), [&w, hang] {
        ASSERT_TRUE(hang ? w.pna()->fault_hang(seconds(60))
                         : w.pna()->fault_crash());
      });
    };
    const sim::SimTime horizon = seconds(240);
    const Trial unpaced = run(script, horizon);
    const std::vector<Sent> beats = unpaced.beats();
    std::int64_t relaunched = 0;  // the first beat after the fault
    for (const Sent& beat : beats) {
      if (beat.at > fault) {
        relaunched = beat.at;
        break;
      }
    }
    ASSERT_GT(relaunched, fault);
    const std::int64_t first = first_periodic(beats);
    const auto fits = [&](const PaceRule& rule) {
      const std::int64_t slot = rule.slot_after(leave);
      return slot > fault &&
             periodic_slot(rule, first, period, slot) == hang &&
             rule.slot_after(relaunched) != slot;
    };
    const std::uint64_t seed = phase_seed_where(*unpaced.world, fits);
    PaceRule rule = rule_for(*unpaced.world, seed);
    ASSERT_TRUE(fits(rule));
    rule.drops = {fault};
    const Trial paced = expect_rule(script, unpaced, rule, seed, horizon);
    const std::vector<std::int64_t> sends = paced.sends();
    EXPECT_EQ(std::find(sends.begin(), sends.end(), rule.slot_after(leave)),
              sends.end());
  }
}

}  // namespace
}  // namespace oddci::core
