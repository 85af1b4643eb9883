// Properties of the conservative time-window barrier (sim/sharded.hpp):
//  * no cross-shard delivery executes inside the window it was sent in —
//    everything is clamped to a boundary at or after max(send time, at);
//  * mailbox drains are deterministic: within one boundary, deliveries to
//    a shard run in (source shard, send sequence) order;
//  * K = 1 degenerates to the classic kernel (no clamping, no windows);
//  * the barrier carries data both ways under contention, and a worker's
//    exception surfaces on the caller only after the window completes.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/sharded.hpp"
#include "sim/simulation.hpp"

namespace oddci::sim {
namespace {

ShardedSimulation::Options opts(std::size_t shards, SimTime window) {
  ShardedSimulation::Options o;
  o.shards = shards;
  o.window = window;
  return o;
}

// A mistyped shard count fails in validate(), before the kernel allocates
// K² mailboxes or starts K-1 threads; validate() itself builds nothing.
TEST(ShardedOptions, ShardCountAboveTheBoundIsRejected) {
  ShardedSimulation::Options options;
  options.shards = std::size_t{1} << 20;
  EXPECT_THROW(options.validate(), std::invalid_argument);
  options.shards = ShardedSimulation::kMaxShards + 1;
  EXPECT_THROW(options.validate(), std::invalid_argument);
  options.shards = ShardedSimulation::kMaxShards;
  EXPECT_NO_THROW(options.validate());
}

TEST(ShardedBarrier, CrossShardPostsNeverExecuteInsideTheirSendWindow) {
  const SimTime w = SimTime::from_millis(5);
  ShardedSimulation kernel(opts(4, w));

  // From each shard, at a send time strictly inside a window, post to the
  // next shard "for now" — which must be clamped to the window boundary.
  std::mutex mu;
  struct Obs {
    std::int64_t sent_us;
    std::int64_t ran_us;
  };
  std::vector<Obs> observed;
  for (std::size_t s = 0; s < 4; ++s) {
    kernel.shard(s).schedule_at(
        SimTime::from_micros(1'700 + static_cast<std::int64_t>(s)),
        [&kernel, &mu, &observed, s] {
          const SimTime sent = kernel.shard(s).now();
          const std::size_t dst = (s + 1) % 4;
          kernel.post(s, dst, sent, [&kernel, &mu, &observed, sent, dst] {
            const std::lock_guard<std::mutex> lock(mu);
            observed.push_back({sent.micros(), kernel.shard(dst).now().micros()});
          });
        });
  }
  kernel.run_until(SimTime::from_millis(50));

  ASSERT_EQ(observed.size(), 4u);
  for (const auto& o : observed) {
    // Ran at a boundary strictly after the send instant...
    EXPECT_GT(o.ran_us, o.sent_us);
    // ...specifically the *next* boundary (send was mid-window).
    EXPECT_EQ(o.ran_us % w.micros(), 0);
    EXPECT_EQ(o.ran_us, ((o.sent_us / w.micros()) + 1) * w.micros());
  }
}

TEST(ShardedBarrier, FutureTimestampsSurviveClampingUnchanged) {
  const SimTime w = SimTime::from_millis(5);
  ShardedSimulation kernel(opts(2, w));

  // A post aimed well past the next boundary keeps its timestamp.
  std::int64_t ran_us = -1;
  kernel.shard(0).schedule_at(SimTime::from_micros(100), [&] {
    kernel.post(0, 1, SimTime::from_micros(42'000),
                [&] { ran_us = kernel.shard(1).now().micros(); });
  });
  kernel.run_until(SimTime::from_millis(100));
  EXPECT_EQ(ran_us, 42'000);
}

TEST(ShardedBarrier, MailboxDrainOrderIsSourceShardThenSendSequence) {
  const SimTime w = SimTime::from_millis(5);
  ShardedSimulation kernel(opts(4, w));

  // Shards 1..3 each send two back-to-back messages to shard 0 inside the
  // same window. All six land on the same boundary; the drain must order
  // them (src 1 seq 0), (src 1 seq 1), (src 2 seq 0), ... regardless of
  // which worker thread finished its window first.
  std::vector<std::pair<std::size_t, int>> order;
  for (std::size_t s = 1; s < 4; ++s) {
    kernel.shard(s).schedule_at(
        // Stagger send times *backwards* across shards so arrival order
        // within the window disagrees with shard order on purpose.
        SimTime::from_micros(3'000 - static_cast<std::int64_t>(s) * 500),
        [&kernel, &order, s] {
          const SimTime now = kernel.shard(s).now();
          for (int seq = 0; seq < 2; ++seq) {
            kernel.post(s, 0, now,
                        [&order, s, seq] { order.emplace_back(s, seq); });
          }
        });
  }
  kernel.run_until(SimTime::from_millis(20));

  const std::vector<std::pair<std::size_t, int>> want = {
      {1, 0}, {1, 1}, {2, 0}, {2, 1}, {3, 0}, {3, 1}};
  EXPECT_EQ(order, want);
}

TEST(ShardedBarrier, DrainOrderIsReproducibleAcrossRuns) {
  auto run = [] {
    ShardedSimulation kernel(opts(8, SimTime::from_millis(2)));
    std::vector<std::size_t> order;
    for (std::size_t s = 0; s < 8; ++s) {
      kernel.shard(s).schedule_at(
          SimTime::from_micros(500 + static_cast<std::int64_t>(s) * 7),
          [&kernel, &order, s] {
            // Fan out to every other shard; those echo back to shard 0.
            for (std::size_t dst = 0; dst < 8; ++dst) {
              if (dst == s) continue;
              kernel.post(s, dst, kernel.shard(s).now(),
                          [&kernel, &order, s, dst] {
                            kernel.post(dst, 0, kernel.shard(dst).now(),
                                        [&order, s, dst] {
                                          order.push_back(s * 8 + dst);
                                        });
                          });
            }
          });
    }
    kernel.run_until(SimTime::from_millis(30));
    return order;
  };

  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first.size(), 56u);
  EXPECT_EQ(first, second);
}

TEST(ShardedBarrier, GlobalTasksRunAtBoundariesInPostOrder) {
  ShardedSimulation kernel(opts(4, SimTime::from_millis(5)));

  std::vector<int> order;
  std::vector<std::int64_t> at_us;
  kernel.shard(2).schedule_at(SimTime::from_micros(1'000), [&] {
    kernel.post_global(2, kernel.shard(2).now(), [&] {
      order.push_back(0);
      at_us.push_back(kernel.now().micros());
    });
    kernel.post_global(2, kernel.shard(2).now(), [&] {
      order.push_back(1);
      at_us.push_back(kernel.now().micros());
    });
  });
  kernel.run_until(SimTime::from_millis(20));

  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  ASSERT_EQ(at_us.size(), 2u);
  // Both ran at the same boundary, not inside the send window.
  EXPECT_EQ(at_us[0], at_us[1]);
  EXPECT_GE(at_us[0], 5'000);
  EXPECT_EQ(at_us[0] % 5'000, 0);
}

TEST(ShardedBarrier, SingleShardDelegatesWithoutClamping) {
  ShardedSimulation kernel(opts(1, SimTime::from_millis(5)));

  // K = 1: post is schedule_at — same-instant delivery, no boundary snap.
  std::int64_t ran_us = -1;
  kernel.shard(0).schedule_at(SimTime::from_micros(1'234), [&] {
    kernel.post(0, 0, kernel.now(),
                [&] { ran_us = kernel.now().micros(); });
  });
  kernel.run_until(SimTime::from_millis(10));
  EXPECT_EQ(ran_us, 1'234);
  EXPECT_EQ(kernel.cross_posts(), 0u);
  EXPECT_EQ(kernel.windows_run(), 0u);
}

TEST(ShardedBarrier, StopEndsTheRunFromAnyShard) {
  ShardedSimulation kernel(opts(4, SimTime::from_millis(5)));

  bool late_ran = false;
  kernel.shard(3).schedule_at(SimTime::from_millis(7), [&] {
    kernel.post_global(3, kernel.shard(3).now(), [&] { kernel.stop(); });
  });
  kernel.shard(1).schedule_at(SimTime::from_hours(1),
                              [&] { late_ran = true; });
  kernel.run_until(SimTime::from_hours(2));

  EXPECT_FALSE(late_ran);
  EXPECT_LT(kernel.now().micros(), SimTime::from_hours(1).micros());
}

TEST(ShardedBarrier, WorkerExceptionSurfacesAfterEveryWorkerFinishes) {
  ShardedSimulation kernel(opts(4, SimTime::from_millis(5)));

  // Plain variables: a worker writes them and the caller reads them after
  // run_until, so only the barrier orders the two.
  std::thread::id thrower;
  bool sibling_done = false;
  bool later_window_ran = false;
  kernel.shard(2).schedule_at(SimTime::from_millis(7), [&] {
    thrower = std::this_thread::get_id();
    throw std::runtime_error("shard 2 failed");
  });
  // A sibling still busy long after the throw: the coordinator must not
  // rethrow until it has finished its window.
  kernel.shard(3).schedule_at(SimTime::from_millis(6), [&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    sibling_done = true;
  });
  kernel.shard(1).schedule_at(SimTime::from_millis(20),
                              [&] { later_window_ran = true; });

  try {
    kernel.run_until(SimTime::from_millis(50));
    ADD_FAILURE() << "run_until returned normally";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "shard 2 failed");
  }
  EXPECT_NE(thrower, std::this_thread::get_id());
  EXPECT_TRUE(sibling_done);
  EXPECT_EQ(kernel.shard(3).now().micros(), 10'000);
  EXPECT_FALSE(later_window_ran);
  EXPECT_EQ(kernel.windows_run(), 2u);
  // Leaving scope destroys the kernel, which must wake and join every
  // worker.
}

// Barrier stress: 10k windows of 1 ms in which every shard mails every
// other shard, and the last shard posts a global task every third window.
// Each delivery folds (time, source, sequence, tag) into its destination
// shard's order-sensitive digest. Each global task reads every shard's
// delivery count and writes a tag that the shards read in later windows,
// so data crosses the barrier in both directions where a race detector
// can see it.
class BarrierStress : public ::testing::TestWithParam<std::size_t> {};

constexpr std::int64_t kStressWindows = 10'000;

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 0x100000001b3ULL;
}

struct StressResult {
  std::vector<std::uint64_t> digests;  // per shard, then the global tasks'
  std::uint64_t deliveries = 0;
  std::uint64_t windows = 0;
  bool operator==(const StressResult&) const = default;
};

struct StressRun {
  struct alignas(64) Shard {
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    std::uint64_t delivered = 0;
    std::uint64_t sent = 0;
  };

  explicit StressRun(std::size_t k)
      : kernel(opts(k, SimTime::from_millis(1))), shards(k), tags(k, 0) {}

  void tick(std::size_t s) {
    const std::size_t k = shards.size();
    const SimTime now = kernel.shard(s).now();
    for (std::size_t d = 0; d < k; ++d) {
      if (d == s) continue;
      const std::uint64_t seq = shards[s].sent++;
      kernel.post(s, d, now, [this, s, d, seq] {
        Shard& dst = shards[d];
        const auto at =
            static_cast<std::uint64_t>(kernel.shard(d).now().micros());
        for (const std::uint64_t v : {at, std::uint64_t{s}, seq, tags[d]}) {
          dst.digest = mix(dst.digest, v);
        }
        ++dst.delivered;
      });
    }
    const std::int64_t window = now.micros() / 1'000;
    if (s == k - 1 && window % 3 == 0) {
      kernel.post_global(s, now, [this, window] {
        for (std::size_t i = 0; i < shards.size(); ++i) {
          global_digest = mix(global_digest, shards[i].delivered);
          tags[i] = static_cast<std::uint64_t>(window);
        }
      });
    }
    const SimTime next = now + SimTime::from_millis(1);
    if (next < SimTime::from_millis(kStressWindows)) {
      kernel.shard(s).schedule_at(next, [this, s] { tick(s); });
    }
  }

  StressResult run() {
    for (std::size_t s = 0; s < shards.size(); ++s) {
      kernel.shard(s).schedule_at(
          SimTime::from_micros(50 * static_cast<std::int64_t>(s + 1)),
          [this, s] { tick(s); });
    }
    kernel.run_until(SimTime::from_millis(kStressWindows));
    StressResult out;
    for (const Shard& shard : shards) {
      out.digests.push_back(shard.digest);
      out.deliveries += shard.delivered;
    }
    out.digests.push_back(global_digest);
    out.windows = kernel.windows_run();
    return out;
  }

  ShardedSimulation kernel;
  std::vector<Shard> shards;        // each touched only by its shard
  std::vector<std::uint64_t> tags;  // written only by global tasks
  std::uint64_t global_digest = 0xcbf29ce484222325ULL;
};

TEST_P(BarrierStress, ManyWindowsOfAllToAllMailReplayIdentically) {
  const std::size_t k = GetParam();
  const StressResult first = StressRun(k).run();
  const StressResult second = StressRun(k).run();

  // One window per millisecond, plus the fixpoint pass at the horizon that
  // runs the mail drained at exactly t.
  EXPECT_EQ(first.windows, static_cast<std::uint64_t>(kStressWindows) + 1);
  EXPECT_EQ(first.deliveries,
            k * (k - 1) * static_cast<std::uint64_t>(kStressWindows));
  EXPECT_EQ(first, second);
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, BarrierStress,
                         ::testing::Values(std::size_t{2}, std::size_t{4},
                                           std::size_t{8}),
                         [](const auto& param_info) {
                           return "K" + std::to_string(param_info.param);
                         });

}  // namespace
}  // namespace oddci::sim
