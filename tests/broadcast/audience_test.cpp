// The shared commit fan-out and module reads: keyed announcement phases and
// keyed read instants on per-shard queues. A listener hears a commit at the
// same instant at every shard count (except that, off the control shard, an
// instant inside the commit's own window moves to that window's boundary),
// reads from the capsule it hears with the same keyed draw at every shard
// count, and its read completes at that keyed instant; reads due at one
// instant complete in (id, read ordinal) order; each commit costs the
// kernel K - 1 clamped mail items; a re-tune replaces its pending
// announcement instead of adding one and drops its pending reads.

#include "broadcast/audience.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <utility>
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
/// each capsule as a receiver does: from now, with its keyed read draw,
/// queued on its medium's read queue once attached to one.
class Probe final : public BroadcastListener {
 public:
  Probe(sim::Simulation& sim, ListenerId id) : sim_(&sim), id_(id) {}
  void on_signalling_capsule(
      const std::shared_ptr<const SignallingCapsule>& capsule) override {
    capsule_ = capsule;
    const SimTime now = sim_->now();
    const std::uint32_t ordinal = ++reads_;
    const auto ready =
        capsule->ready_at("f", now, capsule->read_draw(id_, ordinal));
    // Multicast snapshots carry no carousel layout.
    const auto clean =
        capsule->session_seconds.empty()
            ? capsule->snapshot.read_completion_time("f", now)
            : std::nullopt;
    heard.push_back({now, capsule->snapshot.generation,
                     ready.value_or(SimTime::zero()),
                     clean.value_or(SimTime::zero())});
    if (medium != nullptr && ready) {
      queue_read(*ready, ordinal, capsule->snapshot.find("f")->version);
    }
  }
  /// Queue a read of "f" (module version `version`) due at `at`.
  void queue_read(SimTime at, std::uint32_t ordinal,
                  std::uint32_t version = 1) {
    ModuleRead read;
    read.at = at;
    read.id = id_;
    read.ordinal = ordinal;
    read.version = version;
    read.module = module_key("f");
    medium->read(shard, read);
  }
  void on_read_done(const ModuleRead& read) override {
    // As a receiver does: the module must still be on air in the capsule
    // it holds now.
    const CarouselFile* file = capsule_->snapshot.find("f");
    done.push_back({sim_->now(), read, capsule_->snapshot.generation,
                    file != nullptr && file->version == read.version});
    if (log != nullptr) log->push_back(read);
  }

  struct Heard {
    SimTime at;
    std::uint64_t generation = 0;
    /// When the read of "f" begun at `at` completes, and (carousel only)
    /// when it would on a clean one: rotation wait and full read.
    SimTime ready;
    SimTime clean;
  };
  struct Done {
    SimTime at;
    ModuleRead read;
    /// The generation this listener held at completion, and whether the
    /// module read was still on air in it.
    std::uint64_t holding = 0;
    bool ok = false;
  };
  std::vector<Heard> heard;
  std::vector<Done> done;
  /// Where reads are queued (null: hear only), on which shard.
  BroadcastMedium* medium = nullptr;
  std::uint32_t shard = 0;
  /// Completions across listeners, in order (optional).
  std::vector<ModuleRead>* log = nullptr;

 private:
  sim::Simulation* sim_;
  ListenerId id_;
  std::uint32_t reads_ = 0;
  std::shared_ptr<const SignallingCapsule> capsule_;
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
      probes.back().medium = channel.get();
      probes.back().shard = shard_of(id);
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

/// When listener i + 1 hears the commit at K = 1 on `medium`.
SimTime one_heard(Medium medium, std::size_t i) {
  static std::vector<SimTime> heard[3];
  std::vector<SimTime>& at = heard[static_cast<int>(medium)];
  if (at.empty()) {
    Rig one(1, medium);
    one.commit_at(kCommitAt);
    one.kernel.run_until(SimTime::from_seconds(2));
    for (const Probe& p : one.probes) at.push_back(p.heard.at(0).at);
  }
  return at[i];
}

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

TEST(Audience, ReadsCompleteAtTheirKeyedInstantAtEveryShardCount) {
  // Each listener queues a read of "f" on the capsule it hears. The read
  // completes at its keyed instant, on its own shard's read queue, and a
  // listener that hears the commit at the same instant as at K = 1 (all
  // but the boundary-moved ones) completes its read at the same instant.
  for (const Medium medium :
       {Medium::kCarousel, Medium::kLossyCarousel, Medium::kMulticast}) {
    std::vector<SimTime> at_one;
    for (const std::size_t k : {1u, 2u, 4u}) {
      Rig rig(k, medium);
      rig.commit_at(kCommitAt);
      rig.kernel.run_until(SimTime::from_seconds(120));
      std::size_t same = 0;
      for (std::size_t i = 0; i < kListeners; ++i) {
        const Probe& p = rig.probes[i];
        ASSERT_EQ(p.heard.size(), 1u);
        ASSERT_EQ(p.done.size(), 1u) << "K " << k << " listener " << i + 1;
        EXPECT_EQ(p.done[0].at, p.heard[0].ready);
        EXPECT_EQ(p.done[0].read.ordinal, 1u);
        EXPECT_TRUE(p.done[0].ok);
        if (k == 1) {
          at_one.push_back(p.done[0].at);
        } else if (p.heard[0].at == one_heard(medium, i)) {
          ++same;
          EXPECT_EQ(p.done[0].at, at_one[i])
              << "K " << k << " listener " << i + 1;
        }
      }
      if (k > 1) {
        EXPECT_GT(same, kListeners / 2) << "K " << k;
      }
      EXPECT_EQ(rig.channel->reads_pending(), 0u);
    }
  }
}

TEST(Audience, ReadsDueAtOneInstantCompleteInIdAndOrdinalOrder) {
  // Queued in descending id order, with one listener's two reads queued
  // last ordinal first: they complete in (id, ordinal) order, on shard 0
  // at K = 1 and on shard 1 at K = 4.
  for (const std::size_t k : {1u, 4u}) {
    Rig rig(k);
    rig.commit_at(kCommitAt);
    rig.kernel.run_until(SimTime::from_seconds(2));
    std::vector<ModuleRead> log;
    const SimTime due = SimTime::from_seconds(3);
    for (const ListenerId id : {ListenerId{18}, ListenerId{10}, ListenerId{6},
                                ListenerId{2}}) {
      Probe& p = rig.probes[id - 1];
      p.log = &log;
      if (id == 10) {
        p.queue_read(due, 9);
        p.queue_read(due, 8);
      } else {
        p.queue_read(due, 7);
      }
    }
    rig.kernel.run_until(SimTime::from_seconds(4));
    std::vector<std::pair<ListenerId, std::uint32_t>> order;
    for (const ModuleRead& r : log) {
      EXPECT_EQ(r.at, due);
      order.emplace_back(r.id, r.ordinal);
    }
    EXPECT_EQ(order, (std::vector<std::pair<ListenerId, std::uint32_t>>{
                         {2, 7}, {6, 7}, {10, 8}, {10, 9}, {18, 7}}))
        << "K " << k;
  }
}

TEST(Audience, ReadsDropWhenTheListenerUntunesPowerCyclesOrRetunes) {
  // Four listeners on one shard queue a read due at 3 s. One stays tuned,
  // one untunes, one power-cycles (untunes, tunes again 100 ms later) and
  // one re-tunes at once: only the first read completes.
  for (const std::size_t k : {1u, 4u}) {
    Rig rig(k);
    rig.commit_at(kCommitAt);
    rig.kernel.run_until(SimTime::from_seconds(2));
    const ListenerId stays = 3, untunes = 7, cycles = 11, retunes = 15;
    const std::uint32_t shard = rig.shard_of(stays);
    for (const ListenerId id : {stays, untunes, cycles, retunes}) {
      ASSERT_EQ(rig.shard_of(id), shard);
      rig.probes[id - 1].queue_read(SimTime::from_seconds(3), 7);
    }
    const auto at = [](int millis) {
      return SimTime::from_millis(2000 + millis);
    };
    rig.on_shard_of(stays, at(100), [&rig, shard, untunes, cycles, retunes] {
      rig.channel->untune(untunes, shard);
      rig.channel->untune(cycles, shard);
      rig.channel->untune(retunes, shard);
      rig.channel->tune(retunes, &rig.probes[retunes - 1], shard);
    });
    rig.on_shard_of(stays, at(200), [&rig, shard, cycles] {
      rig.channel->tune(cycles, &rig.probes[cycles - 1], shard);
    });
    rig.kernel.run_until(SimTime::from_seconds(4));
    for (const ListenerId id : {stays, untunes, cycles, retunes}) {
      std::size_t completed = 0;
      for (const Probe::Done& d : rig.probes[id - 1].done) {
        if (d.read.ordinal == 7) ++completed;
      }
      EXPECT_EQ(completed, id == stays ? 1u : 0u)
          << "K " << k << " listener " << id;
    }
    EXPECT_EQ(rig.channel->reads_pending(), 0u);
  }
}

TEST(Audience, ReadSurvivesAnUnrelatedCommitAndFailsOnAVersionBump) {
  // Every listener reads a 1-Mbit "f" off a 1-Mbps carousel, a read of one
  // to three seconds, and a second commit lands while the reads are in
  // flight. The audience delivers every read: it drops reads only by tune
  // epoch. Checked against the capsule each listener holds at completion,
  // a read survives a commit that changed another module, and fails once
  // the listener has heard a commit that bumped the version of "f".
  for (const bool bump : {false, true}) {
    sim::Simulation sim;
    BroadcastChannel channel(sim,
                             TransportStream(util::BitRate::from_mbps(1.1),
                                             util::BitRate::from_kbps(100)),
                             42);
    channel.put_file("f", util::Bits(1'000'000), 1);
    channel.put_file("g", util::Bits(1'000'000), 2);
    std::deque<Probe> probes;
    for (ListenerId id = 1; id <= kListeners; ++id) {
      probes.emplace_back(sim, id);
      probes.back().medium = &channel;
      channel.tune(id, &probes.back(), 0);
    }
    sim.schedule_at(kCommitAt, [&channel] { channel.commit(); });
    sim.schedule_at(SimTime::from_millis(1800), [&channel, bump] {
      channel.put_file(bump ? "f" : "g", util::Bits(1'000'000), 3);
      channel.commit();
    });
    sim.run_until(SimTime::from_seconds(20));
    std::size_t after_second = 0;
    for (const Probe& p : probes) {
      ASSERT_FALSE(p.done.empty());
      const Probe::Done& first = p.done[0];
      ASSERT_EQ(first.read.ordinal, 1u);
      if (first.holding == 2) ++after_second;
      EXPECT_EQ(first.ok, !bump || first.holding == 1)
          << "bump " << bump << " listener " << first.read.id;
    }
    // Most reads complete after their listener heard the second commit.
    EXPECT_GT(after_second, kListeners / 2) << "bump " << bump;
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
