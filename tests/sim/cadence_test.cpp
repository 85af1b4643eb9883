// Property tests for the same-period heartbeat cadence, checked against the
// naive reference scheduler the kernel's timer tests use. The cadence fires
// each beat at its exact microsecond; beats that share an instant are
// compared as per-instant multisets, and the order the cadence documents
// for them is checked on its own.

#include "sim/cadence.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "naive_scheduler.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace oddci::sim {
namespace {

using reference::by_timestamp;
using reference::NaiveScheduler;

using Firings = std::vector<std::pair<std::int64_t, int>>;

/// Beats that log (instant, id) when fired and, on a scripted firing,
/// cancel themselves or re-arm with another period from inside the fire.
/// The reference replays the same script after each of its instants.
class Script {
 public:
  static constexpr SimTime kShort = SimTime::from_seconds(3);
  static constexpr SimTime kLong = SimTime::from_seconds(5);

  explicit Script(int beats) : beats_(beats), handles_(beats) {
    for (int id = 0; id < beats; ++id) beats_[id] = Beat{this, id};
  }

  /// Phases on a 100-ms grid, so first beats, both lanes and re-armed
  /// beats share instants.
  static SimTime phase(int id, int salt) {
    return SimTime::from_millis(100 * ((id * 7 + salt * 13) % 50));
  }
  static SimTime period_of(int id) { return id % 2 == 0 ? kShort : kLong; }

  void arm(int id, SimTime first, SimTime period) {
    handles_[id] = cadence.arm(&beats_[id], first, period);
    reference.arm(id, first, period);
  }
  void cancel(int id) {
    EXPECT_TRUE(cadence.cancel(handles_[id])) << id;
    EXPECT_TRUE(reference.disarm(id)) << id;
    handles_[id] = Cadence::kNone;
  }
  [[nodiscard]] Cadence::Handle handle(int id) const { return handles_[id]; }
  [[nodiscard]] bool armed(int id) const {
    return handles_[id] != Cadence::kNone;
  }

  /// Run both sides to `horizon` (inclusive).
  void run_until(SimTime horizon) {
    sim.run_until(horizon);
    for (SimTime next = reference.next_deadline(); next <= horizon;
         next = reference.next_deadline()) {
      for (const auto& firing : reference.run_until(next)) {
        expected.push_back(firing);
        react(firing.second, next, /*reference_side=*/true);
      }
    }
  }

  Simulation sim;
  Cadence cadence{sim, &Script::fire};
  NaiveScheduler reference;
  Firings fired;
  Firings expected;

 private:
  struct Beat {
    Script* script;
    int id;
  };

  static void fire(void* target) {
    auto* beat = static_cast<Beat*>(target);
    Script& script = *beat->script;
    script.fired.emplace_back(script.sim.now().micros(), beat->id);
    script.react(beat->id, script.sim.now(), /*reference_side=*/false);
  }

  /// On its second firing, an id ending in 3 cancels itself and one ending
  /// in 5 re-arms with the other period at a fresh phase.
  void react(int id, SimTime now, bool reference_side) {
    auto& count = reference_side ? reference_counts_[id] : counts_[id];
    if (++count != 2 || (id % 10 != 3 && id % 10 != 5)) return;
    if (reference_side) {
      reference.disarm(id);
      if (id % 10 == 5) {
        reference.arm(id, now + phase(id, 1), other_period(id));
      }
      return;
    }
    EXPECT_TRUE(cadence.cancel(handles_[id]));
    handles_[id] = Cadence::kNone;
    if (id % 10 == 5) {
      handles_[id] =
          cadence.arm(&beats_[id], now + phase(id, 1), other_period(id));
    }
  }
  static SimTime other_period(int id) {
    return period_of(id) == kShort ? kLong : kShort;
  }

  std::vector<Beat> beats_;
  std::vector<Cadence::Handle> handles_;
  std::map<int, int> counts_;
  std::map<int, int> reference_counts_;
};

TEST(Cadence, RandomPhasesTwoPeriodsAndCancelsMatchReference) {
  constexpr int kBeats = 200;
  Script script(kBeats);
  util::Random rng(2024);
  for (int id = 0; id < kBeats; ++id) {
    script.arm(id, Script::phase(id, 0), Script::period_of(id));
  }
  EXPECT_EQ(script.cadence.armed(), script.reference.size());

  for (int round = 1; round <= 12; ++round) {
    script.run_until(SimTime::from_millis(2'350 * round));
    ASSERT_EQ(script.cadence.armed(), script.reference.size())
        << "round " << round;
    // Cancels from outside a fire: a few armed beats each round. Every
    // third round re-arms some disarmed ones at a fresh phase; their slots
    // are the ones just freed, still queued under the old generation.
    for (int k = 0; k < 8; ++k) {
      const int id = static_cast<int>(rng.uniform(0.0, kBeats));
      if (script.armed(id)) script.cancel(id);
    }
    if (round % 3 == 0) {
      for (int id = 0; id < kBeats; ++id) {
        if (!script.armed(id) && rng.bernoulli(0.5)) {
          script.arm(id, script.sim.now() + Script::phase(id, round),
                     Script::period_of(id));
        }
      }
    }
    ASSERT_EQ(script.cadence.armed(), script.reference.size());
  }
  script.run_until(SimTime::from_seconds(40));
  EXPECT_EQ(script.cadence.armed(), script.reference.size());
  ASSERT_EQ(script.fired.size(), script.expected.size());
  EXPECT_EQ(by_timestamp(script.fired), by_timestamp(script.expected));
  // The scripted in-fire cancels and re-arms happened.
  EXPECT_GT(script.fired.size(), 1000u);
}

TEST(Cadence, StaleEntryOfAReusedSlotNeverFiresTheNewArming) {
  // Cancel a beat, then arm another that takes its slot while the first
  // one's entry is still queued: the stale entry is dropped at the head,
  // and the new arming fires on its own phase only. Beat 2 stays armed
  // throughout, so the cadence keeps its queues.
  Script script(3);
  script.arm(0, SimTime::from_seconds(1), SimTime::from_seconds(10));
  script.arm(2, SimTime::from_seconds(3), SimTime::from_seconds(10));
  script.run_until(SimTime::from_seconds(4));  // 0 waits in its lane at 11 s
  const Cadence::Handle old = script.handle(0);
  script.cancel(0);
  EXPECT_FALSE(script.cadence.cancel(old));  // its slot is free
  script.arm(1, SimTime::from_seconds(7), SimTime::from_seconds(10));
  EXPECT_EQ(script.handle(1), old);  // the freed slot, reused
  script.run_until(SimTime::from_seconds(30));
  EXPECT_EQ(script.fired, script.expected);
  EXPECT_EQ(script.fired, (Firings{{1'000'000, 0},
                                   {3'000'000, 2},
                                   {7'000'000, 1},
                                   {13'000'000, 2},
                                   {17'000'000, 1},
                                   {23'000'000, 2},
                                   {27'000'000, 1}}));
}

TEST(Cadence, SameInstantOrderIsFirstBeatsThenLanes) {
  // Lane 0 is the 10-s period (armed first), lane 1 the 5-s one. At 10 s
  // the first beats of slots 0 and 2 run before slot 1's steady beat; from
  // then on, lane 0 keeps the order of its previous round.
  Script script(3);
  script.arm(0, SimTime::from_seconds(10), SimTime::from_seconds(10));
  script.arm(1, SimTime::from_seconds(5), SimTime::from_seconds(5));
  script.arm(2, SimTime::from_seconds(10), SimTime::from_seconds(10));
  script.run_until(SimTime::from_seconds(20));
  EXPECT_EQ(script.fired, (Firings{{5'000'000, 1},
                                   {10'000'000, 0},
                                   {10'000'000, 2},
                                   {10'000'000, 1},
                                   {15'000'000, 1},
                                   {20'000'000, 0},
                                   {20'000'000, 2},
                                   {20'000'000, 1}}));
}

TEST(Cadence, NothingArmedHoldsNoKernelEvent) {
  Script script(2);
  script.arm(0, SimTime::from_seconds(1), SimTime::from_seconds(30));
  script.arm(1, SimTime::from_seconds(2), SimTime::from_seconds(30));
  script.run_until(SimTime::from_seconds(3));
  EXPECT_EQ(script.sim.pending_events(), 1u);  // the one serve event
  EXPECT_EQ(script.cadence.next_serve(), SimTime::from_seconds(31));
  script.cancel(0);
  script.cancel(1);
  EXPECT_TRUE(script.sim.empty());
  EXPECT_EQ(script.cadence.next_serve(), SimTime::max());
  script.sim.run();
  EXPECT_EQ(script.sim.now(), SimTime::from_seconds(3));
}

TEST(Cadence, DestructionCancelsTheServeEvent) {
  Simulation sim;
  int fired = 0;
  {
    Cadence cadence(sim, [](void* count) { ++*static_cast<int*>(count); });
    cadence.arm(&fired, SimTime::from_seconds(1), SimTime::from_seconds(1));
    sim.run_until(SimTime::from_seconds(2));
  }
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(sim.empty());
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Cadence, RejectsInvalidArmings) {
  Simulation sim;
  EXPECT_THROW((Cadence{sim, nullptr}), std::invalid_argument);
  Cadence cadence(sim, [](void*) {});
  int target = 0;
  sim.run_until(SimTime::from_seconds(5));
  EXPECT_THROW(
      cadence.arm(nullptr, SimTime::from_seconds(6), SimTime::from_seconds(1)),
      std::invalid_argument);
  EXPECT_THROW(
      cadence.arm(&target, SimTime::from_seconds(4), SimTime::from_seconds(1)),
      std::invalid_argument);
  EXPECT_THROW(cadence.arm(&target, SimTime::from_seconds(6), SimTime::zero()),
               std::invalid_argument);
  EXPECT_FALSE(cadence.cancel(Cadence::kNone));
  EXPECT_FALSE(cadence.cancel(7));
  EXPECT_EQ(cadence.armed(), 0u);
}

}  // namespace
}  // namespace oddci::sim
