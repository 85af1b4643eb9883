// The shared commit fan-out: keyed announcement phases on per-shard queues.
// A listener hears a commit at the same instant at every shard count
// (except that, off the control shard, an instant inside the commit's own
// window moves to that window's boundary), each commit costs the kernel
// K - 1 clamped mail items, and a re-tune replaces its pending
// announcement instead of adding one.

#include "broadcast/audience.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "broadcast/channel.hpp"
#include "sim/sharded.hpp"

namespace oddci::broadcast {
namespace {

using sim::SimTime;

constexpr std::size_t kListeners = 2000;
constexpr SimTime kWindow = SimTime::from_millis(5);
/// Inside the window [1.000 s, 1.005 s).
constexpr SimTime kCommitAt = SimTime::from_micros(1'002'300);
constexpr SimTime kBoundary = SimTime::from_millis(1005);

/// Records what it hears on its own shard's clock.
class Probe final : public BroadcastListener {
 public:
  explicit Probe(sim::Simulation& sim) : sim_(&sim) {}
  void on_signalling(const Ait&, const CarouselSnapshot& snapshot) override {
    heard.push_back({sim_->now(), snapshot.generation});
  }
  void on_signalling_capsule(
      const std::shared_ptr<const SignallingCapsule>& capsule) override {
    heard.push_back({sim_->now(), capsule->snapshot.generation});
  }
  struct Heard {
    SimTime at;
    std::uint64_t generation = 0;
  };
  std::vector<Heard> heard;

 private:
  sim::Simulation* sim_;
};

/// A channel on a K-shard kernel with `kListeners` probes, listener i + 1
/// on shard i % K.
struct Rig {
  explicit Rig(std::size_t shards)
      : kernel(sim::ShardedSimulation::Options{shards, kWindow}),
        channel(kernel.control(),
                TransportStream(util::BitRate::from_mbps(1.1),
                                util::BitRate::from_kbps(100)),
                42) {
    channel.set_sharded(kernel);
    for (std::size_t i = 0; i < kListeners; ++i) {
      probes.emplace_back(kernel.shard(shard_of(i + 1)));
      channel.tune(static_cast<ListenerId>(i + 1), &probes.back(),
                   shard_of(i + 1));
    }
    channel.carousel().put_file("f", util::Bits(800), 1);
  }

  [[nodiscard]] std::uint32_t shard_of(ListenerId id) const {
    return static_cast<std::uint32_t>((id - 1) % kernel.shard_count());
  }

  /// Commit on the control shard at `at`.
  void commit_at(SimTime at) {
    kernel.control().schedule_at(at, [this] { channel.commit(); });
  }

  /// Run `fn` on listener `id`'s shard at `at`.
  template <typename F>
  void on_shard_of(ListenerId id, SimTime at, F fn) {
    kernel.shard(shard_of(id)).schedule_at(at, std::move(fn));
  }

  sim::ShardedSimulation kernel;
  BroadcastChannel channel;
  std::deque<Probe> probes;
};

TEST(Audience, KeyedPhasesDoNotDependOnTheShardCount) {
  Rig one(1);
  one.commit_at(kCommitAt);
  one.kernel.run_until(SimTime::from_seconds(2));

  // K = 1: each listener hears generation 1 once, at its keyed phase.
  for (std::size_t i = 0; i < kListeners; ++i) {
    const auto id = static_cast<ListenerId>(i + 1);
    ASSERT_EQ(one.probes[i].heard.size(), 1u) << "listener " << id;
    EXPECT_EQ(one.probes[i].heard[0].generation, 1u);
    EXPECT_EQ(one.probes[i].heard[0].at,
              kCommitAt + one.channel.announcement_phase(1, id, 1))
        << "listener " << id;
  }
  EXPECT_EQ(one.channel.announcements(), kListeners);

  for (const std::size_t k : {2u, 4u}) {
    Rig rig(k);
    rig.commit_at(kCommitAt);
    rig.kernel.run_until(SimTime::from_seconds(2));
    std::size_t at_boundary = 0;
    for (std::size_t i = 0; i < kListeners; ++i) {
      const auto id = static_cast<ListenerId>(i + 1);
      const SimTime drawn = one.probes[i].heard[0].at;
      // Off the control shard the commit arrives at the window boundary,
      // so a phase drawn inside the commit's window fires there.
      SimTime expected = drawn;
      if (rig.shard_of(id) != 0 && drawn < kBoundary) {
        expected = kBoundary;
        ++at_boundary;
      }
      ASSERT_EQ(rig.probes[i].heard.size(), 1u) << "K " << k << " id " << id;
      EXPECT_EQ(rig.probes[i].heard[0].at, expected)
          << "K " << k << " id " << id;
      EXPECT_EQ(rig.probes[i].heard[0].generation, 1u);
    }
    EXPECT_GT(at_boundary, 0u) << "K " << k;
    EXPECT_EQ(rig.channel.announcements(), kListeners) << "K " << k;
  }
}

TEST(Audience, EachCommitClampsOneMailItemPerOtherShard) {
  for (const std::size_t k : {1u, 2u, 4u}) {
    Rig rig(k);
    rig.commit_at(kCommitAt);
    rig.commit_at(SimTime::from_micros(2'003'100));
    rig.kernel.run_until(SimTime::from_seconds(3));
    EXPECT_EQ(rig.kernel.clamped_posts(), 2 * (k - 1)) << "K " << k;
    EXPECT_EQ(rig.kernel.cross_posts(), 2 * (k - 1)) << "K " << k;
    for (const Probe& p : rig.probes) {
      ASSERT_EQ(p.heard.size(), 2u) << "K " << k;
      EXPECT_EQ(p.heard[1].generation, 2u);
    }
  }
}

TEST(Audience, TuneWhileOnAirDrawsTheSamePhaseAtEveryShardCount) {
  const SimTime tune_at = SimTime::from_micros(1'600'700);
  const auto id = static_cast<ListenerId>(kListeners + 1);
  std::vector<SimTime> heard_at;
  for (const std::size_t k : {1u, 2u, 4u}) {
    Rig rig(k);
    Probe late(rig.kernel.shard(rig.shard_of(id)));
    rig.commit_at(kCommitAt);
    rig.on_shard_of(id, tune_at, [&rig, &late, id] {
      rig.channel.tune(id, &late, rig.shard_of(id));
    });
    rig.kernel.run_until(SimTime::from_seconds(3));
    ASSERT_EQ(late.heard.size(), 1u) << "K " << k;
    EXPECT_EQ(late.heard[0].generation, 1u);
    EXPECT_EQ(late.heard[0].at,
              tune_at + rig.channel.announcement_phase(1, id, 1));
    heard_at.push_back(late.heard[0].at);
    EXPECT_EQ(rig.channel.announcements(), kListeners + 1) << "K " << k;
    EXPECT_EQ(rig.channel.tuned_count(), kListeners + 1) << "K " << k;
  }
  EXPECT_EQ(heard_at[1], heard_at[0]);
  EXPECT_EQ(heard_at[2], heard_at[0]);
}

TEST(Audience, RetuneReplacesThePendingAnnouncement) {
  // Untune and re-tune (a power cycle) while the commit's announcement is
  // still queued: the listener hears the generation once, at the phase of
  // its second tune, at K = 1 and at K = 4.
  const SimTime retune_at = kCommitAt + SimTime::from_millis(100);
  for (const std::size_t k : {1u, 4u}) {
    Rig rig(k);
    // A listener off the control shard at K = 4 whose first phase is still
    // pending at the re-tune.
    ListenerId id = 2;
    while (rig.channel.announcement_phase(1, id, 1) <
           SimTime::from_millis(300)) {
      id += 4;
    }
    Probe& probe = rig.probes[id - 1];
    rig.commit_at(kCommitAt);
    rig.on_shard_of(id, retune_at, [&rig, &probe, id] {
      rig.channel.untune(id, rig.shard_of(id));
      rig.channel.tune(id, &probe, rig.shard_of(id));
    });
    rig.kernel.run_until(SimTime::from_seconds(2));
    ASSERT_EQ(probe.heard.size(), 1u) << "K " << k;
    EXPECT_EQ(probe.heard[0].at,
              retune_at + rig.channel.announcement_phase(1, id, 2))
        << "K " << k;
    EXPECT_EQ(rig.channel.tuned_count(), kListeners);
  }
}

TEST(Audience, RejectsBadTunes) {
  sim::Simulation sim;
  BroadcastChannel channel(sim,
                           TransportStream(util::BitRate::from_mbps(1.1),
                                           util::BitRate::from_kbps(100)),
                           1);
  Probe probe(sim);
  EXPECT_THROW(channel.tune(0, &probe, 0), std::invalid_argument);
  EXPECT_THROW(channel.tune(1, nullptr, 0), std::invalid_argument);
  EXPECT_THROW(channel.tune(1, &probe, 1), std::out_of_range);
  channel.tune(1, &probe, 0);
  EXPECT_THROW(channel.tune(1, &probe, 0), std::invalid_argument);
  channel.untune(7, 0);  // never tuned: nothing to do
  EXPECT_EQ(channel.tuned_count(), 1u);
}

}  // namespace
}  // namespace oddci::broadcast
