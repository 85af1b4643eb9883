// MessagePool recycling semantics: an exclusively-held slot is reused in
// place (same object, same control block), anything still referenced is
// left alone, and a full ring degrades to plain allocation — correctness
// never depends on consumers releasing promptly.

#include "net/message_pool.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "core/messages.hpp"

namespace oddci::net {
namespace {

using oddci::core::HeartbeatMessage;
using oddci::core::PnaState;

TEST(MessagePool, RecyclesExclusivelyHeldSlot) {
  MessagePool<HeartbeatMessage> pool(4);
  const HeartbeatMessage* raw = nullptr;
  {
    auto first = pool.acquire(1u, PnaState::kIdle, 0u);
    raw = first.get();
  }  // dropped: the pool holds the only reference
  // Cursor walks the ring; after a full lap the released slot is reused.
  for (int i = 0; i < 3; ++i) (void)pool.acquire(9u, PnaState::kIdle, 0u);
  auto again = pool.acquire(2u, PnaState::kBusy, 7u);
  EXPECT_EQ(again.get(), raw);  // same object, no new allocation
  EXPECT_EQ(again->pna_id(), 2u);
  EXPECT_EQ(again->state(), PnaState::kBusy);
  EXPECT_EQ(again->instance(), 7u);
  EXPECT_EQ(pool.reused().value(), 1u);
  EXPECT_EQ(pool.allocated().value(), 4u);
}

TEST(MessagePool, InFlightMessagesAreNeverRecycled) {
  MessagePool<HeartbeatMessage> pool(2);
  auto a = pool.acquire(1u, PnaState::kIdle, 0u);
  auto b = pool.acquire(2u, PnaState::kIdle, 0u);
  // Both slots are still referenced: the next acquire must not touch them.
  auto c = pool.acquire(3u, PnaState::kBusy, 5u);
  EXPECT_NE(c.get(), a.get());
  EXPECT_NE(c.get(), b.get());
  EXPECT_EQ(a->pna_id(), 1u);  // untouched
  EXPECT_EQ(b->pna_id(), 2u);
  EXPECT_EQ(pool.reused().value(), 0u);
  EXPECT_EQ(pool.allocated().value(), 3u);
}

TEST(MessagePool, PooledBytesCountWireBytesServedFromSlots) {
  MessagePool<HeartbeatMessage> pool(1);
  const auto beat_bytes = static_cast<std::uint64_t>(
      oddci::core::kHeaderBits.count() / 8);
  {
    auto m = pool.acquire(1u, PnaState::kIdle, 0u);
    EXPECT_EQ(pool.pooled_bytes().value(), beat_bytes);
  }
  {
    auto m = pool.acquire(2u, PnaState::kIdle, 0u);  // recycled
    EXPECT_EQ(pool.pooled_bytes().value(), 2 * beat_bytes);

    // Off-ring fallback while the slot is busy: not pooled, not counted.
    auto overflow = pool.acquire(3u, PnaState::kIdle, 0u);
    EXPECT_EQ(pool.pooled_bytes().value(), 2 * beat_bytes);
  }
  EXPECT_EQ(pool.reused().value(), 1u);
  EXPECT_EQ(pool.allocated().value(), 2u);
}

}  // namespace
}  // namespace oddci::net
