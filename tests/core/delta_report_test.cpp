// Delta-encoded aggregate reports: wire round-trips (including the
// epoch-wrap serial arithmetic and foreign-frame rejection), the
// aggregator's ledger/flush behaviour, and the resync protocol hooks the
// Controller drives over the same channel.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/aggregator.hpp"
#include "core/messages.hpp"
#include "core/wire.hpp"

namespace oddci::core {
namespace {

constexpr auto kMbps = [](double m) { return util::BitRate::from_mbps(m); };

using Kind = DeltaReportMessage::Kind;
using Op = DeltaReportMessage::Op;
using Entry = DeltaReportMessage::Entry;

// --- wire round-trips -------------------------------------------------------

DeltaReportMessage round_trip(const DeltaReportMessage& in) {
  const std::string bytes = wire::encode(in);
  const net::MessagePtr out = wire::decode_message(bytes);
  EXPECT_EQ(out->tag(), kTagDeltaReport);
  return *std::static_pointer_cast<const DeltaReportMessage>(out);
}

TEST(DeltaWire, DeltaFrameRoundTripsAllFields) {
  std::vector<Entry> entries;
  entries.push_back({7, Op::kUpdate, PnaState::kBusy, 3,
                     obs::TraceContext{0xABCDull, 0x1234ull}});
  entries.push_back({9, Op::kExpire, PnaState::kIdle, kNoInstance, {}});
  const DeltaReportMessage in(5, 42, Kind::kDelta, 0xDEADBEEFCAFEull,
                              entries);
  const DeltaReportMessage out = round_trip(in);

  EXPECT_EQ(out.origin(), 5u);
  EXPECT_EQ(out.epoch(), 42u);
  EXPECT_EQ(out.kind(), Kind::kDelta);
  EXPECT_EQ(out.checksum(), 0xDEADBEEFCAFEull);
  ASSERT_EQ(out.entries().size(), 2u);
  EXPECT_EQ(out.entries()[0].pna_id, 7u);
  EXPECT_EQ(out.entries()[0].op, Op::kUpdate);
  EXPECT_EQ(out.entries()[0].state, PnaState::kBusy);
  EXPECT_EQ(out.entries()[0].instance, 3u);
  EXPECT_EQ(out.entries()[0].trace.trace_id, 0xABCDull);
  EXPECT_EQ(out.entries()[0].trace.parent_span, 0x1234ull);
  EXPECT_EQ(out.entries()[1].pna_id, 9u);
  EXPECT_EQ(out.entries()[1].op, Op::kExpire);
}

TEST(DeltaWire, ResyncFrameAtEpochWrapRoundTrips) {
  // The epoch that precedes the wrap and the checksum with all bits set
  // must both survive the trip — a resync at the serial boundary is the
  // worst case for the Controller's gap detection.
  const DeltaReportMessage in(0, 0xFFFFFFFFu, Kind::kResync,
                              ~0ull, {{1, Op::kUpdate, PnaState::kIdle,
                                       kNoInstance, {}}});
  const DeltaReportMessage out = round_trip(in);
  EXPECT_EQ(out.epoch(), 0xFFFFFFFFu);
  EXPECT_EQ(out.kind(), Kind::kResync);
  EXPECT_EQ(out.checksum(), ~0ull);
}

TEST(DeltaWire, EmptyDeltaIsAValidKeepalive) {
  const DeltaReportMessage out =
      round_trip(DeltaReportMessage(3, 17, Kind::kDelta, 0, {}));
  EXPECT_EQ(out.origin(), 3u);
  EXPECT_TRUE(out.entries().empty());
}

TEST(DeltaWire, BatchRoundTripsFramesInOrder) {
  std::vector<std::shared_ptr<const DeltaReportMessage>> frames;
  frames.push_back(std::make_shared<DeltaReportMessage>(
      0, 1, Kind::kDelta, 0,
      std::vector<Entry>{{10, Op::kUpdate, PnaState::kBusy, 1, {}}}));
  frames.push_back(std::make_shared<DeltaReportMessage>(
      1, 6, Kind::kResync, 99, std::vector<Entry>{}));
  const DeltaBatchMessage in(frames);

  const net::MessagePtr decoded = wire::decode_message(wire::encode(in));
  ASSERT_EQ(decoded->tag(), kTagDeltaBatch);
  const auto& out = *std::static_pointer_cast<const DeltaBatchMessage>(decoded);
  ASSERT_EQ(out.frames().size(), 2u);
  EXPECT_EQ(out.frames()[0]->origin(), 0u);
  EXPECT_EQ(out.frames()[0]->epoch(), 1u);
  ASSERT_EQ(out.frames()[0]->entries().size(), 1u);
  EXPECT_EQ(out.frames()[0]->entries()[0].pna_id, 10u);
  EXPECT_EQ(out.frames()[1]->origin(), 1u);
  EXPECT_EQ(out.frames()[1]->kind(), Kind::kResync);
  EXPECT_EQ(out.frames()[1]->checksum(), 99u);
}

// Frame layout: tag(1) origin(4) epoch(4) kind(1) checksum(8) count(4),
// then 34-byte entries starting with pna_id(8) op(1).
TEST(DeltaWire, CorruptKindByteIsRejected) {
  std::string bytes =
      wire::encode(DeltaReportMessage(0, 1, Kind::kDelta, 0, {}));
  bytes[9] = 0x09;  // neither kDelta nor kResync
  EXPECT_THROW((void)wire::decode_message(bytes), wire::WireError);
}

TEST(DeltaWire, CorruptOpByteIsRejected) {
  std::string bytes = wire::encode(DeltaReportMessage(
      0, 1, Kind::kDelta, 0,
      {{1, Op::kUpdate, PnaState::kIdle, kNoInstance, {}}}));
  bytes[22 + 8] = 0x07;  // first entry's op, past kExpire
  EXPECT_THROW((void)wire::decode_message(bytes), wire::WireError);
}

TEST(DeltaWire, ImplausibleEntryCountIsRejected) {
  // A foreign frame promising more entries than the buffer could hold must
  // be rejected before any allocation is attempted.
  std::string bytes =
      wire::encode(DeltaReportMessage(0, 1, Kind::kDelta, 0, {}));
  for (int i = 18; i < 22; ++i) bytes[i] = static_cast<char>(0xFF);
  EXPECT_THROW((void)wire::decode_message(bytes), wire::WireError);
}

TEST(DeltaWire, ImplausibleBatchCountIsRejected) {
  std::string bytes = wire::encode(DeltaBatchMessage({}));
  // Batch count is the u32 right after the tag byte.
  for (int i = 1; i < 5; ++i) bytes[i] = static_cast<char>(0xFF);
  EXPECT_THROW((void)wire::decode_message(bytes), wire::WireError);
}

TEST(DeltaWire, TruncatedFrameIsRejected) {
  const std::string bytes = wire::encode(DeltaReportMessage(
      0, 1, Kind::kDelta, 0,
      {{1, Op::kUpdate, PnaState::kIdle, kNoInstance, {}}}));
  EXPECT_THROW(
      (void)wire::decode_message(std::string_view(bytes).substr(0, 30)),
      wire::WireError);
}

// --- protocol primitives ----------------------------------------------------

TEST(DeltaProtocol, EpochFollowsWrapsLikeSerialArithmetic) {
  EXPECT_TRUE(epoch_follows(1, 0));
  EXPECT_TRUE(epoch_follows(0, 0xFFFFFFFFu));  // RFC 1982 wrap
  EXPECT_FALSE(epoch_follows(2, 0));           // gap
  EXPECT_FALSE(epoch_follows(0, 0));           // replay
  EXPECT_FALSE(epoch_follows(0xFFFFFFFFu, 0));
}

TEST(DeltaProtocol, MemberMixIsOrderIndependentAndCancels) {
  const std::uint64_t a = delta_member_mix(1, PnaState::kBusy, 7);
  const std::uint64_t b = delta_member_mix(2, PnaState::kIdle, kNoInstance);
  const std::uint64_t c = delta_member_mix(3, PnaState::kJoining, 7);
  // Set checksum: XOR in any order is the same, add-then-remove cancels.
  EXPECT_EQ((a ^ b) ^ c, (c ^ a) ^ b);
  EXPECT_EQ((a ^ b) ^ b, a);
  // Single-member differences are visible in every field.
  EXPECT_NE(a, delta_member_mix(2, PnaState::kBusy, 7));
  EXPECT_NE(a, delta_member_mix(1, PnaState::kIdle, 7));
  EXPECT_NE(a, delta_member_mix(1, PnaState::kBusy, 8));
}

// --- aggregator ledger behaviour -------------------------------------------

class DeltaSink final : public net::Endpoint {
 public:
  void on_message(net::NodeId, const net::MessagePtr& message) override {
    if (message->tag() == kTagDeltaReport) {
      frames.push_back(
          std::static_pointer_cast<const DeltaReportMessage>(message));
    }
  }
  std::vector<std::shared_ptr<const DeltaReportMessage>> frames;
};

net::LinkSpec fast_link(double mbps) {
  net::LinkSpec link;
  link.uplink = kMbps(mbps);
  link.downlink = kMbps(mbps);
  link.latency = sim::SimTime::zero();
  return link;
}

class BeatSource final : public net::Endpoint {
 public:
  explicit BeatSource(net::Network& net) : net_(&net) {
    id_ = net.register_endpoint(this, fast_link(100));
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

struct DeltaAggregatorTest : ::testing::Test {
  sim::Simulation sim;
  net::Network net{sim};
  DeltaSink controller;
  net::NodeId controller_id =
      net.register_endpoint(&controller, fast_link(1000));
  net::LinkSpec fast = fast_link(1000);
  AggregatorOptions options = [] {
    AggregatorOptions o;
    o.mode = HeartbeatMode::kDelta;
    o.resync_every = 4;
    return o;
  }();
};

TEST_F(DeltaAggregatorTest, FirstFrameIsAChecksummedResync) {
  HeartbeatAggregator agg(sim, net, controller_id, fast, options);
  BeatSource src(net);
  src.beat(agg.node_id(), 1, PnaState::kIdle, kNoInstance);
  src.beat(agg.node_id(), 2, PnaState::kBusy, 5);
  sim.run_until(sim::SimTime::from_seconds(11));

  ASSERT_EQ(controller.frames.size(), 1u);
  const auto& f = *controller.frames[0];
  EXPECT_EQ(f.kind(), Kind::kResync);
  ASSERT_EQ(f.entries().size(), 2u);
  std::uint64_t expect = 0;
  for (const auto& e : f.entries()) {
    expect ^= delta_member_mix(e.pna_id, e.state, e.instance);
  }
  EXPECT_EQ(f.checksum(), expect);
  EXPECT_EQ(agg.stats().resyncs_sent, 1u);
  EXPECT_EQ(agg.ledger_members(), 2u);
}

TEST_F(DeltaAggregatorTest, SteadyStateShipsOnlyChanges) {
  HeartbeatAggregator agg(sim, net, controller_id, fast, options);
  BeatSource src(net);
  // 20 members re-beat unchanged every window; one newcomer joins after
  // the initial resync.
  sim::PeriodicTask beats(sim, sim::SimTime::from_seconds(1),
                          sim::SimTime::from_seconds(5), [&] {
                            for (std::uint64_t pna = 0; pna < 20; ++pna) {
                              src.beat(agg.node_id(), pna, PnaState::kIdle,
                                       kNoInstance);
                            }
                          });
  sim.run_until(sim::SimTime::from_seconds(12));
  ASSERT_EQ(controller.frames.size(), 1u);  // the resync
  src.beat(agg.node_id(), 100, PnaState::kBusy, 2);
  sim.run_until(sim::SimTime::from_seconds(22));
  beats.cancel();

  ASSERT_EQ(controller.frames.size(), 2u);
  const auto& f = *controller.frames[1];
  EXPECT_EQ(f.kind(), Kind::kDelta);
  ASSERT_EQ(f.entries().size(), 1u);  // 20 unchanged members not re-sent
  EXPECT_EQ(f.entries()[0].pna_id, 100u);
  EXPECT_EQ(f.entries()[0].state, PnaState::kBusy);
  EXPECT_TRUE(epoch_follows(f.epoch(), controller.frames[0]->epoch()));
}

TEST_F(DeltaAggregatorTest, QuietWindowsSendEmptyKeepalives) {
  HeartbeatAggregator agg(sim, net, controller_id, fast, options);
  BeatSource src(net);
  src.beat(agg.node_id(), 1, PnaState::kIdle, kNoInstance);
  sim.run_until(sim::SimTime::from_seconds(35));
  // Resync at t=10, then empty keepalive deltas every window so the
  // Controller's liveness/failover view of this aggregator stays fresh.
  ASSERT_GE(controller.frames.size(), 3u);
  EXPECT_EQ(controller.frames[1]->kind(), Kind::kDelta);
  EXPECT_TRUE(controller.frames[1]->entries().empty());
  // Epochs stay consecutive across keepalives.
  for (std::size_t i = 1; i < controller.frames.size(); ++i) {
    EXPECT_TRUE(epoch_follows(controller.frames[i]->epoch(),
                              controller.frames[i - 1]->epoch()));
  }
}

TEST_F(DeltaAggregatorTest, PeriodicResyncEveryNthFrame) {
  HeartbeatAggregator agg(sim, net, controller_id, fast, options);
  BeatSource src(net);
  sim::PeriodicTask beats(sim, sim::SimTime::from_seconds(1),
                          sim::SimTime::from_seconds(5), [&] {
                            src.beat(agg.node_id(), 1, PnaState::kIdle,
                                     kNoInstance);
                          });
  // resync_every = 4: frames 1, 5, 9 are resyncs.
  sim.run_until(sim::SimTime::from_seconds(95));
  beats.cancel();
  ASSERT_GE(controller.frames.size(), 9u);
  EXPECT_EQ(controller.frames[0]->kind(), Kind::kResync);
  EXPECT_EQ(controller.frames[4]->kind(), Kind::kResync);
  EXPECT_EQ(controller.frames[8]->kind(), Kind::kResync);
  EXPECT_EQ(controller.frames[1]->kind(), Kind::kDelta);
  EXPECT_EQ(agg.stats().resyncs_sent, 3u);
}

TEST_F(DeltaAggregatorTest, SilentMembersAreExpiredWithExplicitDeltas) {
  options.expiry = sim::SimTime::from_seconds(25);
  HeartbeatAggregator agg(sim, net, controller_id, fast, options);
  BeatSource src(net);
  src.beat(agg.node_id(), 1, PnaState::kBusy, 9);
  // Member 2 keeps beating; member 1 goes silent after its first beat.
  sim::PeriodicTask beats(sim, sim::SimTime::from_seconds(1),
                          sim::SimTime::from_seconds(5), [&] {
                            src.beat(agg.node_id(), 2, PnaState::kIdle,
                                     kNoInstance);
                          });
  sim.run_until(sim::SimTime::from_seconds(60));
  beats.cancel();

  bool expired = false;
  for (const auto& f : controller.frames) {
    for (const auto& e : f->entries()) {
      if (e.pna_id == 1 && e.op == Op::kExpire) expired = true;
    }
  }
  EXPECT_TRUE(expired);
  EXPECT_GE(agg.stats().expiries_sent, 1u);
  EXPECT_EQ(agg.ledger_members(), 1u);  // only the live member remains
}

TEST_F(DeltaAggregatorTest, RestartAfterCrashLeadsWithAResync) {
  HeartbeatAggregator agg(sim, net, controller_id, fast, options);
  BeatSource src(net);
  sim::PeriodicTask beats(sim, sim::SimTime::from_seconds(1),
                          sim::SimTime::from_seconds(5), [&] {
                            src.beat(agg.node_id(), 1, PnaState::kIdle,
                                     kNoInstance);
                          });
  sim.run_until(sim::SimTime::from_seconds(12));
  const std::size_t before = controller.frames.size();
  sim.schedule_in(sim::SimTime::from_seconds(1), [&] { agg.crash(); });
  sim.schedule_in(sim::SimTime::from_seconds(5), [&] { agg.restart(); });
  sim.run_until(sim::SimTime::from_seconds(60));
  beats.cancel();

  // The ledger died with the crash; the first post-restart frame must be a
  // full resync so the Controller can rebuild the slice.
  ASSERT_GT(controller.frames.size(), before);
  EXPECT_EQ(controller.frames[before]->kind(), Kind::kResync);
}

TEST_F(DeltaAggregatorTest, ResyncRequestForcesFullFrameNextFlush) {
  options.resync_every = 1000;  // no scheduled resync inside this test
  HeartbeatAggregator agg(sim, net, controller_id, fast, options);
  BeatSource src(net);
  sim::PeriodicTask beats(sim, sim::SimTime::from_seconds(1),
                          sim::SimTime::from_seconds(5), [&] {
                            src.beat(agg.node_id(), 1, PnaState::kIdle,
                                     kNoInstance);
                          });
  sim.run_until(sim::SimTime::from_seconds(25));
  ASSERT_GE(controller.frames.size(), 2u);
  EXPECT_EQ(controller.frames[1]->kind(), Kind::kDelta);

  // The Controller's desync signal: an empty kResync frame sent downstream.
  const std::size_t before = controller.frames.size();
  net.send(controller_id, agg.node_id(),
           std::make_shared<DeltaReportMessage>(
               options.origin, 0, Kind::kResync, 0,
               std::vector<Entry>{}));
  sim.run_until(sim::SimTime::from_seconds(45));
  beats.cancel();

  ASSERT_GT(controller.frames.size(), before);
  EXPECT_EQ(controller.frames[before]->kind(), Kind::kResync);
}

}  // namespace
}  // namespace oddci::core
