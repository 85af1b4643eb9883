#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace oddci::util {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  auto f = pool.submit([] { return 7 * 6; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ManyTasksAllComplete) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ExceptionsPropagate) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10,
                                 [](std::size_t i) {
                                   if (i == 5) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ParallelForWaitsForEveryTaskBeforeRethrowing) {
  // Task 0 throws at once while the others are still queued or sleeping;
  // parallel_for must not return (and destroy the callable its tasks
  // reference) until every one of them has run.
  constexpr std::size_t kTasks = 8;
  ThreadPool pool(2);
  std::atomic<std::size_t> finished{0};
  EXPECT_THROW(pool.parallel_for(kTasks,
                                 [&finished](std::size_t i) {
                                   if (i == 0) {
                                     throw std::runtime_error("boom");
                                   }
                                   std::this_thread::sleep_for(
                                       std::chrono::milliseconds(2));
                                   finished.fetch_add(1);
                                 }),
               std::runtime_error);
  EXPECT_EQ(finished.load(), kTasks - 1);
}

TEST(ThreadPool, ResultsAggregateCorrectly) {
  ThreadPool pool(4);
  std::vector<std::future<long>> futures;
  for (long i = 0; i < 50; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  long sum = 0;
  for (auto& f : futures) sum += f.get();
  long expected = 0;
  for (long i = 0; i < 50; ++i) expected += i * i;
  EXPECT_EQ(sum, expected);
}

TEST(ThreadPool, DefaultSizeUsesHardware) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

}  // namespace
}  // namespace oddci::util
