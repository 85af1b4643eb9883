// Direct tests of the fault injector at one and at two kernel shards: the
// wire path and the plan run the same code at every shard count.

#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "sim/sharded.hpp"

namespace oddci::fault {
namespace {

constexpr int kPingTag = 7;

class Ping final : public net::Message {
 public:
  [[nodiscard]] util::Bits wire_size() const override {
    return util::Bits::from_bytes(64);
  }
  [[nodiscard]] int tag() const override { return kPingTag; }
};

class Sink final : public net::Endpoint {
 public:
  void on_message(net::NodeId, const net::MessagePtr&) override {
    ++received;
  }
  std::uint64_t received = 0;
};

sim::ShardedSimulation::Options kernel_options(std::size_t shards) {
  sim::ShardedSimulation::Options options;
  options.shards = shards;
  return options;
}

/// A kernel of `shards` shards with one endpoint homed on each, and an
/// injector interposed on every send.
struct Harness {
  Harness(std::size_t shards, const FaultOptions& options)
      : kernel(kernel_options(shards)),
        network(kernel.control()),
        sinks(shards),
        injector(kernel, options, /*seed=*/99) {
    network.set_sharded(&kernel);
    const net::LinkSpec link{util::BitRate::from_mbps(100),
                             util::BitRate::from_mbps(100),
                             sim::SimTime::from_millis(10)};
    for (std::size_t s = 0; s < shards; ++s) {
      network.set_register_shard(static_cast<std::uint32_t>(s));
      nodes.push_back(network.register_endpoint(&sinks[s], link));
    }
    network.set_register_shard(0);
    network.set_interposer(&injector);
  }

  /// At `at`, every shard's endpoint sends one ping to the next shard's.
  void ping_around(sim::SimTime at) {
    const std::size_t k = nodes.size();
    for (std::size_t s = 0; s < k; ++s) {
      kernel.shard(s).schedule_at(at, [this, s, k] {
        network.send(nodes[s], nodes[(s + 1) % k], std::make_shared<Ping>());
      });
    }
  }

  sim::ShardedSimulation kernel;
  net::Network network;
  std::vector<Sink> sinks;
  std::vector<net::NodeId> nodes;
  FaultInjector injector;
};

class FaultInjectorTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FaultInjectorTest, LossDropsSendsFromEveryShardAndSumsTheShards) {
  const std::size_t k = GetParam();
  FaultOptions options;
  options.message_loss = 1.0;
  Harness h(k, options);
  h.injector.set_tracked_tag(kPingTag);
  obs::MetricsRegistry registry;
  h.injector.link_metrics(registry);
  h.injector.start();

  h.ping_around(sim::SimTime::from_seconds(1));
  h.kernel.run_until(sim::SimTime::from_seconds(2));

  for (const Sink& sink : h.sinks) EXPECT_EQ(sink.received, 0u);
  const FaultInjector::Stats stats = h.injector.stats();
  EXPECT_EQ(stats.messages_lost, k);
  EXPECT_EQ(stats.tracked_lost, k);
  EXPECT_EQ(registry.snapshot(2.0).counter_value("fault.messages_lost"), k);
}

TEST_P(FaultInjectorTest, WireFaultsLandInTheSendingShardsRing) {
  const std::size_t k = GetParam();
  FaultOptions options;
  options.message_loss = 1.0;
  Harness h(k, options);
  std::vector<std::unique_ptr<obs::FlightRecorder>> rings;
  for (std::size_t s = 0; s < k; ++s) {
    rings.push_back(std::make_unique<obs::FlightRecorder>(64));
    h.injector.set_shard_recorder(s, rings.back().get());
  }
  h.injector.start();

  h.ping_around(sim::SimTime::from_seconds(1));
  h.kernel.run_until(sim::SimTime::from_seconds(2));

  for (std::size_t s = 0; s < k; ++s) {
    const std::vector<obs::TraceEvent> events = rings[s]->events();
    ASSERT_EQ(events.size(), 1u) << "shard " << s;
    EXPECT_EQ(events[0].kind, obs::TraceEventKind::kFaultMessageLost);
    EXPECT_EQ(events[0].actor, h.nodes[(s + 1) % k]);
    EXPECT_EQ(events[0].t_micros, sim::SimTime::from_seconds(1).micros());
  }
}

TEST_P(FaultInjectorTest, FixedTimeCrashRunsBeforeADeliveryAtTheSameInstant) {
  const std::size_t k = GetParam();
  FaultOptions options;
  options.controller_crash_at = {sim::SimTime::from_seconds(10)};
  Harness h(k, options);
  std::vector<std::string> order;
  h.injector.set_controller_hooks([&order] { order.push_back("crash"); },
                                  [&order] { order.push_back("restart"); });
  h.injector.start();
  // Network deliveries are kDelivery events; one is due at the crash time.
  h.kernel.control().schedule_at(
      sim::SimTime::from_seconds(10),
      [&order] { order.push_back("delivery"); }, sim::EventPriority::kDelivery);

  h.kernel.run_until(sim::SimTime::from_seconds(11));

  EXPECT_EQ(order, (std::vector<std::string>{"crash", "delivery"}));
  EXPECT_EQ(h.injector.stats().controller_crashes, 1u);
}

INSTANTIATE_TEST_SUITE_P(OneAndTwoShards, FaultInjectorTest,
                         ::testing::Values(1u, 2u),
                         [](const ::testing::TestParamInfo<std::size_t>& p) {
                           return "K" + std::to_string(p.param);
                         });

}  // namespace
}  // namespace oddci::fault
