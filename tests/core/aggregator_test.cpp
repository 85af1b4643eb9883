#include "core/aggregator.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace oddci::core {
namespace {

constexpr auto kMbps = [](double m) { return util::BitRate::from_mbps(m); };

class ReportSink final : public net::Endpoint {
 public:
  void on_message(net::NodeId, const net::MessagePtr& message) override {
    if (message->tag() == kTagAggregateReport) {
      reports.push_back(
          std::static_pointer_cast<const AggregateReportMessage>(message));
    }
  }
  std::vector<std::shared_ptr<const AggregateReportMessage>> reports;
};

class BeatSource final : public net::Endpoint {
 public:
  explicit BeatSource(net::Network& net) : net_(&net) {
    id_ = net.register_endpoint(
        this, {kMbps(100), kMbps(100), sim::SimTime::zero()});
  }
  void beat(net::NodeId to, std::uint64_t pna, PnaState state,
            InstanceId instance) {
    net_->send(id_, to,
               std::make_shared<HeartbeatMessage>(pna, state, instance));
  }
  void on_message(net::NodeId, const net::MessagePtr&) override {}
  [[nodiscard]] net::NodeId id() const { return id_; }

 private:
  net::Network* net_;
  net::NodeId id_;
};

struct AggregatorTest : ::testing::Test {
  sim::Simulation sim;
  net::Network net{sim};
  ReportSink controller;
  net::NodeId controller_id = net.register_endpoint(
      &controller, {kMbps(1000), kMbps(1000), sim::SimTime::zero()});
  AggregatorOptions options;
};

TEST_F(AggregatorTest, ConsolidatesWindowIntoOneReport) {
  HeartbeatAggregator agg(sim, net, controller_id,
                          {kMbps(1000), kMbps(1000), sim::SimTime::zero()},
                          options);
  BeatSource src(net);
  for (std::uint64_t pna = 0; pna < 50; ++pna) {
    src.beat(agg.node_id(), pna, PnaState::kIdle, kNoInstance);
  }
  // The flush fires at t = 10 s; allow the report's network delivery.
  sim.run_until(sim::SimTime::from_seconds(11));
  ASSERT_EQ(controller.reports.size(), 1u);
  EXPECT_EQ(controller.reports[0]->entries().size(), 50u);
  EXPECT_EQ(agg.stats().heartbeats_received, 50u);
  EXPECT_EQ(agg.stats().reports_sent, 1u);
  EXPECT_EQ(agg.stats().entries_forwarded, 50u);
}

TEST_F(AggregatorTest, LatestStateWinsWithinWindow) {
  HeartbeatAggregator agg(sim, net, controller_id,
                          {kMbps(1000), kMbps(1000), sim::SimTime::zero()},
                          options);
  BeatSource src(net);
  src.beat(agg.node_id(), 7, PnaState::kIdle, kNoInstance);
  src.beat(agg.node_id(), 7, PnaState::kBusy, 3);
  sim.run_until(sim::SimTime::from_seconds(11));
  ASSERT_EQ(controller.reports.size(), 1u);
  const auto& entries = controller.reports[0]->entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].pna_id, 7u);
  EXPECT_EQ(entries[0].state, PnaState::kBusy);
  EXPECT_EQ(entries[0].instance, 3u);
}

TEST_F(AggregatorTest, EmptyWindowsSendNothing) {
  HeartbeatAggregator agg(sim, net, controller_id,
                          {kMbps(1000), kMbps(1000), sim::SimTime::zero()},
                          options);
  sim.run_until(sim::SimTime::from_seconds(60));
  EXPECT_TRUE(controller.reports.empty());
  EXPECT_EQ(agg.stats().reports_sent, 0u);
}

TEST_F(AggregatorTest, SteadyHeartbeatsRefreshEveryWindow) {
  HeartbeatAggregator agg(sim, net, controller_id,
                          {kMbps(1000), kMbps(1000), sim::SimTime::zero()},
                          options);
  BeatSource src(net);
  sim::PeriodicTask beats(sim, sim::SimTime::from_seconds(1),
                          sim::SimTime::from_seconds(5), [&] {
                            src.beat(agg.node_id(), 1, PnaState::kIdle,
                                     kNoInstance);
                          });
  sim.run_until(sim::SimTime::from_seconds(45));
  beats.cancel();
  // One report per 10 s window, each carrying the PNA's fresh state — this
  // is what keeps the Controller's liveness view from going stale.
  EXPECT_GE(controller.reports.size(), 4u);
}

TEST_F(AggregatorTest, ReportWireSizeScalesWithEntries) {
  std::vector<AggregateReportMessage::Entry> one = {{1, PnaState::kIdle, 0}};
  std::vector<AggregateReportMessage::Entry> many(100,
                                                  {1, PnaState::kIdle, 0});
  const AggregateReportMessage small(std::move(one));
  const AggregateReportMessage big(std::move(many));
  EXPECT_EQ(big.wire_size().count() - small.wire_size().count(),
            99 * 16 * 8);
  // Batched entries beat per-heartbeat headers: 100 heartbeats cost
  // 100 * 64 B of headers, one report costs 64 B + 100 * 16 B.
  const HeartbeatMessage hb(1, PnaState::kIdle, 0);
  EXPECT_LT(big.wire_size().count(), 100 * hb.wire_size().count());
}

// Agents pick aggregators[pna_id % A] and a failed-over slot re-homes its
// agents to the Controller, so a heartbeat from outside the shard is a
// routing bug, not a case to absorb.
TEST_F(AggregatorTest, HeartbeatFromOutsideTheShardThrows) {
  HeartbeatAggregator agg(sim, net, controller_id,
                          {kMbps(1000), kMbps(1000), sim::SimTime::zero()},
                          options);
  agg.set_shard(4, 1);
  BeatSource src(net);
  src.beat(agg.node_id(), 5, PnaState::kIdle, kNoInstance);  // 5 % 4 == 1
  sim.run_until(sim::SimTime::from_seconds(1));
  EXPECT_EQ(agg.stats().heartbeats_received, 1u);
  src.beat(agg.node_id(), 6, PnaState::kIdle, kNoInstance);
  EXPECT_THROW(sim.run_until(sim::SimTime::from_seconds(2)), std::logic_error);
}

TEST_F(AggregatorTest, OptionValidation) {
  AggregatorOptions bad;
  bad.report_interval = sim::SimTime::zero();
  EXPECT_THROW(HeartbeatAggregator(sim, net, controller_id,
                                   {kMbps(1), kMbps(1), sim::SimTime::zero()},
                                   bad),
               std::invalid_argument);
}

}  // namespace
}  // namespace oddci::core
