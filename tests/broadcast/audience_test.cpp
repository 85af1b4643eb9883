// The shared commit fan-out: keyed announcement phases on per-shard queues.
// A listener hears a commit at the same instant at every shard count
// (except that, off the control shard, an instant inside the commit's own
// window moves to that window's boundary), reads from the capsule it hears
// with the same keyed draw at every shard count, each commit costs the
// kernel K - 1 clamped mail items, and a re-tune replaces its pending
// announcement instead of adding one.

#include "broadcast/audience.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "broadcast/channel.hpp"
#include "broadcast/multicast.hpp"
#include "sim/sharded.hpp"

namespace oddci::broadcast {
namespace {

using sim::SimTime;

constexpr std::size_t kListeners = 2000;
constexpr SimTime kWindow = SimTime::from_millis(5);
/// Inside the window [1.000 s, 1.005 s).
constexpr SimTime kCommitAt = SimTime::from_micros(1'002'300);
constexpr SimTime kBoundary = SimTime::from_millis(1005);

/// Records what it hears on its own shard's clock, and reads file "f" from
/// each capsule as a receiver does: from now, with its keyed read draw.
class Probe final : public BroadcastListener {
 public:
  Probe(sim::Simulation& sim, ListenerId id) : sim_(&sim), id_(id) {}
  void on_signalling_capsule(
      const std::shared_ptr<const SignallingCapsule>& capsule) override {
    const SimTime now = sim_->now();
    const auto ready =
        capsule->ready_at("f", now, capsule->read_draw(id_, ++reads_));
    // Multicast snapshots carry no carousel layout.
    const auto clean =
        capsule->session_seconds.empty()
            ? capsule->snapshot.read_completion_time("f", now)
            : std::nullopt;
    heard.push_back({now, capsule->snapshot.generation,
                     ready.value_or(SimTime::zero()),
                     clean.value_or(SimTime::zero())});
  }
  struct Heard {
    SimTime at;
    std::uint64_t generation = 0;
    /// When the read of "f" begun at `at` completes, and (carousel only)
    /// when it would on a clean one: rotation wait and full read.
    SimTime ready;
    SimTime clean;
  };
  std::vector<Heard> heard;

 private:
  sim::Simulation* sim_;
  ListenerId id_;
  std::uint32_t reads_ = 0;
};

/// What the rig broadcasts on.
enum class Medium { kCarousel, kLossyCarousel, kMulticast };

std::unique_ptr<BroadcastMedium> make_medium(sim::Simulation& control,
                                             Medium medium) {
  if (medium == Medium::kMulticast) {
    auto multicast = std::make_unique<MulticastChannel>(
        control, util::BitRate::from_mbps(1.0), 42);
    multicast->put_file("f", util::Bits(1'000'000), 1);
    return multicast;
  }
  auto channel = std::make_unique<BroadcastChannel>(
      control,
      TransportStream(util::BitRate::from_mbps(1.1),
                      util::BitRate::from_kbps(100)),
      42);
  if (medium == Medium::kLossyCarousel) {
    // 256 sections of 4 KB: about 72% of reads lose one or more.
    channel->set_section_loss(0.005);
    channel->put_file("f", util::Bits::from_megabytes(1), 1);
  } else {
    channel->put_file("f", util::Bits(800), 1);
  }
  return channel;
}

/// A medium on a K-shard kernel with `kListeners` probes, listener i + 1
/// on shard i % K.
struct Rig {
  explicit Rig(std::size_t shards, Medium medium = Medium::kCarousel)
      : kernel(sim::ShardedSimulation::Options{shards, kWindow}),
        channel(make_medium(kernel.control(), medium)) {
    channel->set_sharded(kernel);
    for (std::size_t i = 0; i < kListeners; ++i) {
      const auto id = static_cast<ListenerId>(i + 1);
      probes.emplace_back(kernel.shard(shard_of(id)), id);
      channel->tune(id, &probes.back(), shard_of(id));
    }
  }

  [[nodiscard]] std::uint32_t shard_of(ListenerId id) const {
    return static_cast<std::uint32_t>((id - 1) % kernel.shard_count());
  }

  /// Commit on the control shard at `at`.
  void commit_at(SimTime at) {
    kernel.control().schedule_at(at, [this] { channel->commit(); });
  }

  /// Run `fn` on listener `id`'s shard at `at`.
  template <typename F>
  void on_shard_of(ListenerId id, SimTime at, F fn) {
    kernel.shard(shard_of(id)).schedule_at(at, std::move(fn));
  }

  sim::ShardedSimulation kernel;
  std::unique_ptr<BroadcastMedium> channel;
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
              kCommitAt + one.channel->announcement_phase(1, id, 1))
        << "listener " << id;
  }
  EXPECT_EQ(one.channel->announcements(), kListeners);

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
    EXPECT_EQ(rig.channel->announcements(), kListeners) << "K " << k;
  }
}

TEST(Audience, KeyedReadDrawsDoNotDependOnTheShardCount) {
  // Each listener reads "f" from the capsule it hears, with a draw keyed
  // by (medium seed, generation, listener id, read ordinal). On a lossy
  // carousel the whole cycles section loss adds, and on multicast the
  // jittered acquisition time, are then the same at K = 1, 2 and 4; a
  // listener that hears the commit at the same instant acquires the file
  // at the same instant.
  for (const Medium medium : {Medium::kLossyCarousel, Medium::kMulticast}) {
    const bool lossy = medium == Medium::kLossyCarousel;
    Rig one(1, medium);
    one.commit_at(kCommitAt);
    one.kernel.run_until(SimTime::from_seconds(2));
    std::size_t lost = 0;
    for (const Probe& p : one.probes) {
      ASSERT_EQ(p.heard.size(), 1u);
      if (p.heard[0].ready > p.heard[0].clean) ++lost;
    }
    if (lossy) {
      // The draws vary by listener: most lose a section, some do not.
      EXPECT_GT(lost, kListeners / 2);
      EXPECT_LT(lost, kListeners);
    }
    for (const std::size_t k : {2u, 4u}) {
      Rig rig(k, medium);
      rig.commit_at(kCommitAt);
      rig.kernel.run_until(SimTime::from_seconds(2));
      std::size_t same_instant = 0;
      for (std::size_t i = 0; i < kListeners; ++i) {
        const Probe::Heard& a = one.probes[i].heard[0];
        ASSERT_EQ(rig.probes[i].heard.size(), 1u);
        const Probe::Heard& b = rig.probes[i].heard[0];
        if (lossy) {
          EXPECT_EQ(b.ready - b.clean, a.ready - a.clean)
              << "K " << k << " listener " << i + 1;
        } else {
          EXPECT_EQ(b.ready - b.at, a.ready - a.at)
              << "K " << k << " listener " << i + 1;
        }
        if (b.at == a.at) {
          ++same_instant;
          EXPECT_EQ(b.ready, a.ready) << "K " << k << " listener " << i + 1;
        }
      }
      EXPECT_GT(same_instant, kListeners / 2) << "K " << k;
    }
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
    Probe late(rig.kernel.shard(rig.shard_of(id)), id);
    rig.commit_at(kCommitAt);
    rig.on_shard_of(id, tune_at, [&rig, &late, id] {
      rig.channel->tune(id, &late, rig.shard_of(id));
    });
    rig.kernel.run_until(SimTime::from_seconds(3));
    ASSERT_EQ(late.heard.size(), 1u) << "K " << k;
    EXPECT_EQ(late.heard[0].generation, 1u);
    EXPECT_EQ(late.heard[0].at,
              tune_at + rig.channel->announcement_phase(1, id, 1));
    heard_at.push_back(late.heard[0].at);
    EXPECT_EQ(rig.channel->announcements(), kListeners + 1) << "K " << k;
    EXPECT_EQ(rig.channel->tuned_count(), kListeners + 1) << "K " << k;
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
    while (rig.channel->announcement_phase(1, id, 1) <
           SimTime::from_millis(300)) {
      id += 4;
    }
    Probe& probe = rig.probes[id - 1];
    rig.commit_at(kCommitAt);
    rig.on_shard_of(id, retune_at, [&rig, &probe, id] {
      rig.channel->untune(id, rig.shard_of(id));
      rig.channel->tune(id, &probe, rig.shard_of(id));
    });
    rig.kernel.run_until(SimTime::from_seconds(2));
    ASSERT_EQ(probe.heard.size(), 1u) << "K " << k;
    EXPECT_EQ(probe.heard[0].at,
              retune_at + rig.channel->announcement_phase(1, id, 2))
        << "K " << k;
    EXPECT_EQ(rig.channel->tuned_count(), kListeners);
  }
}

TEST(Audience, RejectsBadTunes) {
  sim::Simulation sim;
  BroadcastChannel channel(sim,
                           TransportStream(util::BitRate::from_mbps(1.1),
                                           util::BitRate::from_kbps(100)),
                           1);
  Probe probe(sim, 1);
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
