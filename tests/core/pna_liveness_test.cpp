// Liveness of the PNA's scheduled callbacks. A config read, a task poll, a
// result retry and a request watchdog are armed; then the agent is
// destroyed, crashed, hung (with or without the watchdog relaunch firing
// first) or its receiver is powered off. When the stale callbacks fire
// they must do nothing: no message leaves for the Backend and no control
// message is handled on the dead agent's behalf. Under ASan, a callback
// that reached a destroyed Xlet would also fail as a use-after-free.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "core/pna.hpp"

namespace oddci::core {
namespace {

constexpr auto kMbps = [](double m) { return util::BitRate::from_mbps(m); };
constexpr broadcast::SigningKey kKey = 0x0DDC1;
constexpr std::uint32_t kAppId = 0x4F44;

/// Ignores everything (stands in for the Controller).
class Sink final : public net::Endpoint {
 public:
  explicit Sink(net::Network& net) {
    id_ = net.register_endpoint(
        this, {kMbps(1000), kMbps(1000), sim::SimTime::zero()});
  }
  void on_message(net::NodeId, const net::MessagePtr&) override {}
  [[nodiscard]] net::NodeId id() const { return id_; }

 private:
  net::NodeId id_ = net::kInvalidNode;
};

/// Serves `tasks` tasks, then answers requests with NoTask or not at all.
/// Never acknowledges results.
class ScriptedBackend final : public net::Endpoint {
 public:
  explicit ScriptedBackend(net::Network& net) : net_(&net) {
    id_ = net.register_endpoint(
        this, {kMbps(1000), kMbps(1000), sim::SimTime::zero()});
  }

  void on_message(net::NodeId from, const net::MessagePtr& message) override {
    if (message->tag() == kTagTaskResult) {
      ++results;
      return;
    }
    if (message->tag() != kTagTaskRequest) return;
    ++requests;
    const auto& req = static_cast<const TaskRequestMessage&>(*message);
    if (tasks > 0) {
      --tasks;
      net_->send(id_, from,
                 std::make_shared<TaskAssignMessage>(
                     req.instance(), next_index_++,
                     util::Bits::from_bytes(512), util::Bits::from_bytes(256),
                     2.0));
    } else if (answer_no_task) {
      ++no_tasks;
      net_->send(id_, from, std::make_shared<NoTaskMessage>(req.instance()));
    }
  }

  int tasks = 0;
  bool answer_no_task = false;
  int requests = 0;
  int results = 0;
  int no_tasks = 0;
  [[nodiscard]] net::NodeId id() const { return id_; }

 private:
  net::Network* net_;
  net::NodeId id_ = net::kInvalidNode;
  std::uint64_t next_index_ = 0;
};

enum class Pending { kConfigRead, kTaskPoll, kResultRetry, kRequestWatchdog };
enum class Kill { kDestroy, kCrash, kHang, kHangRelaunch, kPowerOff };

std::string name_of(Pending p) {
  switch (p) {
    case Pending::kConfigRead:
      return "ConfigRead";
    case Pending::kTaskPoll:
      return "TaskPoll";
    case Pending::kResultRetry:
      return "ResultRetry";
    case Pending::kRequestWatchdog:
      return "RequestWatchdog";
  }
  return "?";
}

std::string name_of(Kill k) {
  switch (k) {
    case Kill::kDestroy:
      return "Destroy";
    case Kill::kCrash:
      return "Crash";
    case Kill::kHang:
      return "Hang";
    case Kill::kHangRelaunch:
      return "HangRelaunch";
    case Kill::kPowerOff:
      return "PowerOff";
  }
  return "?";
}

class PnaLiveness
    : public ::testing::TestWithParam<std::tuple<Pending, Kill>> {
 protected:
  sim::Simulation sim;
  net::Network net{sim};
  broadcast::BroadcastChannel channel{
      sim,
      broadcast::TransportStream(kMbps(1.1), util::BitRate::from_kbps(100)),
      5};
  ContentStore store;
  Sink controller{net};
  ScriptedBackend backend{net};
  obs::PnaCounters counters;
  obs::LogHistogram acquire_latency{1e-3};
  broadcast::VerifyCache verify_cache;
  net::MessagePool<HeartbeatMessage> heartbeat_pool;
  sim::Cadence heartbeats{sim, &PnaXlet::beat};
  PnaEnvironment::Recovery recovery;
  PnaEnvironment env;
  dtv::XletRegistry registry;
  std::unique_ptr<dtv::Receiver> receiver;

  void SetUp() override {
    env.content_store = &store;
    env.trusted_key = kKey;
    env.counters = &counters;
    env.acquire_latency = &acquire_latency;
    env.verify_cache = &verify_cache;
    env.heartbeat_pool = &heartbeat_pool;
    env.heartbeats = &heartbeats;
    env.task_poll_interval = sim::SimTime::from_seconds(20);
    env.draw_seed = 77;
    registry.register_factory("oddci-pna", [this](dtv::Receiver&) {
      return std::make_unique<PnaXlet>(env);
    });
    receiver = std::make_unique<dtv::Receiver>(
        sim, net, dtv::DeviceProfile::reference_stb(),
        net::LinkSpec{util::BitRate::from_kbps(150),
                      util::BitRate::from_kbps(150),
                      sim::SimTime::from_millis(10)});
    receiver->application_manager().set_registry(&registry);
    receiver->tune(channel);

    broadcast::AitEntry entry;
    entry.application_id = kAppId;
    entry.control_code = broadcast::AppControlCode::kAutostart;
    entry.application_name = "oddci-pna";
    entry.base_file = "pna.xlet";
    channel.ait().upsert(entry);
    channel.carousel().put_file("pna.xlet", util::Bits::from_kilobytes(64),
                                0);
  }

  PnaXlet* pna() {
    return dynamic_cast<PnaXlet*>(
        receiver->application_manager().find(kAppId));
  }

  void stage(ControlMessage m) {
    m.heartbeat_interval = sim::SimTime::from_seconds(30);
    m.controller_node = controller.id();
    m.backend_node = backend.id();
    m.sign_with(kKey);
    channel.carousel().put_file("oddci.config", util::Bits::from_bytes(512),
                                store.put_control(m));
    channel.commit();
  }

  void stage_wakeup() {
    ControlMessage m;
    m.type = ControlType::kWakeup;
    m.instance = 7;
    m.image = {1, "image-1", util::Bits::from_megabytes(1)};
    channel.carousel().put_file(m.image.name, m.image.size, m.image.image_id);
    stage(m);
  }

  template <typename Done>
  void step_until(Done done) {
    while (!done()) ASSERT_TRUE(sim.step());
  }

  /// Bring the agent to the point where the callback under test is armed.
  void arm(Pending pending) {
    switch (pending) {
      case Pending::kConfigRead:
        break;
      case Pending::kTaskPoll:
        backend.answer_no_task = true;
        break;
      case Pending::kResultRetry:
        recovery.request_watchdog = sim::SimTime::zero();
        recovery.result_retry_base = sim::SimTime::from_seconds(20);
        env.recovery = &recovery;
        backend.tasks = 1;
        break;
      case Pending::kRequestWatchdog:
        recovery.request_watchdog = sim::SimTime::from_seconds(20);
        env.recovery = &recovery;
        break;
    }
    if (pending == Pending::kConfigRead) {
      // A running agent (homed by a hello) reads each new configuration
      // when its signalling arrives, within one table repetition of the
      // commit; the read then spans the config module's next pass.
      ControlMessage hello;
      hello.type = ControlType::kReset;
      stage(hello);
      sim.run_until(sim::SimTime::from_seconds(60));
      ASSERT_EQ(counters.control_messages_seen.value(), 1u);
      stage_wakeup();
      sim.run_until(sim.now() + sim::SimTime::from_millis(500));
      ASSERT_EQ(counters.control_messages_seen.value(), 1u);
      return;
    }
    stage_wakeup();
    step_until([&] {
      switch (pending) {
        case Pending::kTaskPoll:
          return backend.no_tasks > 0;
        case Pending::kResultRetry:
          return backend.results > 0;
        default:
          return backend.requests > 0;
      }
    });
    if (HasFatalFailure()) return;
    // Let the NoTask reply land, then take the configuration off air so a
    // relaunched agent stays idle: every later Backend message could only
    // come from a stale callback.
    sim.run_until(sim.now() + sim::SimTime::from_millis(500));
    ASSERT_EQ(pna()->state(), PnaState::kBusy);
    channel.carousel().remove_file("oddci.config");
    channel.commit();
    sim.run_until(sim.now() + sim::SimTime::from_seconds(1));
  }

  void kill(Kill how) {
    switch (how) {
      case Kill::kDestroy:
        ASSERT_TRUE(receiver->application_manager().destroy(kAppId));
        break;
      case Kill::kCrash:
        ASSERT_TRUE(pna()->fault_crash());
        break;
      case Kill::kHang:
        ASSERT_TRUE(pna()->fault_hang(sim::SimTime::from_hours(1)));
        break;
      case Kill::kHangRelaunch:
        ASSERT_TRUE(pna()->fault_hang(sim::SimTime::from_millis(100)));
        break;
      case Kill::kPowerOff:
        receiver->set_power_mode(dtv::PowerMode::kOff);
        break;
    }
  }
};

TEST_P(PnaLiveness, StaleCallbacksDoNothing) {
  const auto [pending, how] = GetParam();
  arm(pending);
  if (HasFatalFailure()) return;
  const int requests = backend.requests;
  const int results = backend.results;
  kill(how);
  if (HasFatalFailure()) return;
  // Well past every armed callback (20 s poll and watchdog, retry backoff
  // within [10, 20) s, a configuration read within one carousel cycle).
  sim.run_until(sim.now() + sim::SimTime::from_seconds(120));

  const bool relaunched = how == Kill::kCrash || how == Kill::kHangRelaunch;
  if (pending == Pending::kConfigRead) {
    // Only a relaunched agent's own read handles the wakeup.
    EXPECT_EQ(counters.control_messages_seen.value(), relaunched ? 2u : 1u);
  } else {
    EXPECT_EQ(backend.requests, requests);
    EXPECT_EQ(backend.results, results);
  }
  const bool gone = how == Kill::kDestroy || how == Kill::kPowerOff;
  EXPECT_EQ(pna() == nullptr, gone);
}

INSTANTIATE_TEST_SUITE_P(
    AllCallbacksAndKills, PnaLiveness,
    ::testing::Combine(
        ::testing::Values(Pending::kConfigRead, Pending::kTaskPoll,
                          Pending::kResultRetry, Pending::kRequestWatchdog),
        ::testing::Values(Kill::kDestroy, Kill::kCrash, Kill::kHang,
                          Kill::kHangRelaunch, Kill::kPowerOff)),
    [](const auto& param_info) {
      return name_of(std::get<0>(param_info.param)) +
             name_of(std::get<1>(param_info.param));
    });

}  // namespace
}  // namespace oddci::core
