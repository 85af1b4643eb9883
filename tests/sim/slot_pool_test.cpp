// Unit tests for the kernel's chunked slot pool: stable addresses across
// chunk growth, last-in first-out reuse, generation-tagged ids, and element
// lifetimes.

#include "sim/slot_pool.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace oddci::sim {
namespace {

struct Payload {
  explicit Payload(std::uint64_t v) : value(v) {}
  std::uint64_t value;
};

TEST(SlotPool, GrowthAcrossChunksNeverMovesALiveElement) {
  SlotPool<Payload> pool;
  constexpr std::uint32_t kCount = 3 * SlotPool<Payload>::kChunkSlots + 17;
  std::vector<const Payload*> addresses;
  for (std::uint32_t i = 0; i < kCount; ++i) {
    const std::uint32_t index = pool.emplace(i * 7u);
    ASSERT_EQ(index, i);  // fresh slots are handed out in order
    addresses.push_back(&pool[index]);
    // Every element placed so far is still where it was put.
    if (i % SlotPool<Payload>::kChunkSlots == 0) {
      for (std::uint32_t j = 0; j < i; ++j) {
        ASSERT_EQ(&pool[j], addresses[j]) << "slot " << j << " moved";
      }
    }
  }
  EXPECT_EQ(pool.size(), kCount);
  EXPECT_EQ(pool.high_water(), kCount);
  EXPECT_EQ(pool.capacity(), 4u * SlotPool<Payload>::kChunkSlots);
  for (std::uint32_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(&pool[i], addresses[i]);
    EXPECT_EQ(pool[i].value, i * 7u);
  }
}

TEST(SlotPool, FreedSlotsAreReusedLastInFirstOut) {
  SlotPool<Payload> pool;
  for (std::uint64_t i = 0; i < 10; ++i) pool.emplace(i);
  pool.erase(3);
  pool.erase(7);
  pool.erase(5);
  EXPECT_EQ(pool.size(), 7u);
  EXPECT_EQ(pool.emplace(50u), 5u);
  EXPECT_EQ(pool.emplace(70u), 7u);
  EXPECT_EQ(pool.emplace(30u), 3u);
  EXPECT_EQ(pool.emplace(100u), 10u);  // free list drained: next fresh slot
  EXPECT_EQ(pool.high_water(), 11u);
  EXPECT_EQ(pool[5].value, 50u);
  EXPECT_EQ(pool[7].value, 70u);
  EXPECT_EQ(pool[3].value, 30u);
}

TEST(SlotPool, GenerationTagsRejectAStaleIdAfterReuse) {
  SlotPool<Payload> pool;
  const std::uint32_t index = pool.emplace(1u);
  const SlotPool<Payload>::Id first = pool.id(index);
  EXPECT_NE(first, 0u);
  EXPECT_TRUE(pool.contains(first));
  EXPECT_TRUE(pool.live(index));
  EXPECT_EQ(pool.generation(index) % 2, 1u);  // odd while live

  pool.erase(index);
  EXPECT_FALSE(pool.contains(first));
  EXPECT_FALSE(pool.live(index));

  ASSERT_EQ(pool.emplace(2u), index);  // same slot, next occupancy
  const SlotPool<Payload>::Id second = pool.id(index);
  EXPECT_NE(second, first);
  EXPECT_FALSE(pool.contains(first)) << "stale id accepted after reuse";
  EXPECT_TRUE(pool.contains(second));
  EXPECT_EQ(SlotPool<Payload>::index_of(second), index);

  EXPECT_FALSE(pool.contains(0));  // the invalid handle
  EXPECT_FALSE(pool.contains(second + 1));  // a slot never handed out
}

struct Counted {
  explicit Counted(int* destroyed) : destroyed_(destroyed) {}
  Counted(const Counted&) = delete;
  Counted& operator=(const Counted&) = delete;
  ~Counted() { ++*destroyed_; }
  int* destroyed_;
};

TEST(SlotPool, DestroysEachElementExactlyOnce) {
  int destroyed = 0;
  {
    SlotPool<Counted> pool;
    for (int i = 0; i < 6; ++i) pool.emplace(&destroyed);
    pool.erase(1);
    pool.erase(4);
    EXPECT_EQ(destroyed, 2);
  }
  EXPECT_EQ(destroyed, 6);  // the pool destroyed the four still live
}

struct Throwing {
  explicit Throwing(bool fail) {
    if (fail) throw std::runtime_error("construction failed");
  }
};

TEST(SlotPool, FailedConstructionLeavesTheFreeListIntact) {
  SlotPool<Throwing> pool;
  pool.emplace(false);
  pool.emplace(false);
  pool.erase(0);
  EXPECT_THROW(pool.emplace(true), std::runtime_error);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.emplace(false), 0u);  // the freed slot is still first
  EXPECT_THROW(pool.emplace(true), std::runtime_error);
  EXPECT_EQ(pool.emplace(false), 2u);  // a fresh slot was not consumed
}

}  // namespace
}  // namespace oddci::sim
