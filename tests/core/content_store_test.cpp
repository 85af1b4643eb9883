#include "core/content_store.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "broadcast/signature.hpp"
#include "core/wire.hpp"

namespace oddci::core {
namespace {

TEST(ContentStore, PutGetRoundTripThroughWireBytes) {
  ContentStore store;
  ControlMessage m;
  m.type = ControlType::kWakeup;
  m.instance = 3;
  m.image = {1, "image-1", util::Bits::from_megabytes(2)};
  m.sign_with(0xAB);
  const auto id = store.put_control(m);
  const auto got = store.get_control(id);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->instance, 3u);
  EXPECT_EQ(got->image.name, "image-1");
  EXPECT_TRUE(got->verify_with(0xAB));  // signature survives the encoding
  EXPECT_EQ(store.size(), 1u);
  // The stored representation really is the wire encoding.
  const std::string* bytes = store.get_bytes(id);
  ASSERT_NE(bytes, nullptr);
  EXPECT_EQ(*bytes, wire::encode(m));
}

TEST(ContentStore, IdsAreUniqueAndNonZero) {
  ContentStore store;
  ControlMessage m;
  const auto a = store.put_control(m);
  const auto b = store.put_control(m);
  EXPECT_NE(a, 0u);
  EXPECT_NE(a, b);
}

TEST(ContentStore, UnknownIdReturnsNullopt) {
  ContentStore store;
  EXPECT_FALSE(store.get_control(42).has_value());
  EXPECT_EQ(store.get_bytes(42), nullptr);
  EXPECT_EQ(store.get_control_shared(42), nullptr);
}

TEST(ContentStore, SharedControlIsDecodedOnceAndPrepared) {
  ContentStore store;
  ControlMessage m;
  m.type = ControlType::kWakeup;
  m.instance = 9;
  m.sign_with(0xAB);
  const auto id = store.put_control(m);

  const auto prepared = store.get_control_shared(id);
  ASSERT_NE(prepared, nullptr);
  EXPECT_EQ(prepared->message.instance, 9u);
  // Canonical bytes and digest were computed once, at preparation time.
  EXPECT_EQ(prepared->canonical, m.canonical_bytes());
  EXPECT_EQ(prepared->digest, broadcast::content_digest(prepared->canonical));
  EXPECT_TRUE(prepared->verify_with(0xAB));
  EXPECT_FALSE(prepared->verify_with(0xCD));
  // Every subsequent reader shares the same decoded object: the memo turns
  // per-receiver decodes into one decode per broadcast.
  EXPECT_EQ(store.get_control_shared(id).get(), prepared.get());
}

TEST(ContentStore, EncoderWriterIsReusedAcrossPuts) {
  ContentStore store;
  ControlMessage m;
  m.instance = 1;
  const auto a = store.put_control(m);
  EXPECT_EQ(store.writer_reuses().value(), 0u);  // first encode allocates
  m.instance = 2;
  const auto b = store.put_control(m);
  EXPECT_EQ(store.writer_reuses().value(), 1u);
  // Reuse never corrupts the stored bytes.
  EXPECT_EQ(store.get_control(a)->instance, 1u);
  EXPECT_EQ(store.get_control(b)->instance, 2u);
}

TEST(ContentStore, RemoveDropsPreparedMemo) {
  ContentStore store;
  ControlMessage m;
  const auto id = store.put_control(m);
  ASSERT_NE(store.get_control_shared(id), nullptr);
  EXPECT_TRUE(store.remove(id));
  EXPECT_EQ(store.get_control_shared(id), nullptr);
}

TEST(ContentStore, StoredCopyIsIndependent) {
  ContentStore store;
  ControlMessage m;
  m.instance = 1;
  const auto id = store.put_control(m);
  m.instance = 2;  // mutate the original
  EXPECT_EQ(store.get_control(id)->instance, 1u);
}

TEST(ContentStore, RemoveDropsBlob) {
  ContentStore store;
  ControlMessage m;
  const auto id = store.put_control(m);
  EXPECT_TRUE(store.remove(id));
  EXPECT_FALSE(store.remove(id));
  EXPECT_FALSE(store.get_control(id).has_value());
  EXPECT_EQ(store.size(), 0u);
}

// The shared, cached reader path must see exactly what a receiver decoding
// and verifying the stored bytes on its own sees: the same message and the
// same verdict, on the first (hashed) and the second (cached) ask.
TEST(ContentStore, SharedReaderPathMatchesPerReaderDecodeAndVerify) {
  constexpr broadcast::SigningKey kKey = 0xAB;
  std::vector<std::pair<std::string, ControlMessage>> cases;

  ControlMessage hello;  // the deployment hello: a reset naming no instance
  hello.type = ControlType::kReset;
  hello.probability = 0.0;
  hello.controller_node = 1;
  hello.sign_with(kKey);
  cases.emplace_back("hello", hello);

  ControlMessage wakeup;
  wakeup.type = ControlType::kWakeup;
  wakeup.instance = 7;
  wakeup.probability = 0.25;
  wakeup.image = {3, "image-3", util::Bits::from_megabytes(4)};
  wakeup.controller_node = 1;
  wakeup.backend_node = 2;
  wakeup.aggregators = {10, 11, 12};
  wakeup.trace = {0x5EED, 42};
  wakeup.sign_with(kKey);
  cases.emplace_back("wakeup", wakeup);

  ControlMessage reset;
  reset.type = ControlType::kReset;
  reset.instance = 7;
  reset.trace = {0x5EED, 43};
  reset.sign_with(kKey);
  cases.emplace_back("reset", reset);

  // A signed field flipped after signing, as the control-corruption fault
  // does on air.
  ControlMessage tampered = wakeup;
  tampered.probability = tampered.probability * 0.5 + 0.25;
  cases.emplace_back("tampered", tampered);

  ControlMessage foreign = wakeup;
  foreign.sign_with(kKey + 1);
  cases.emplace_back("wrong key", foreign);

  ContentStore store;
  broadcast::VerifyCache cache;
  for (const auto& [name, message] : cases) {
    SCOPED_TRACE(name);
    const auto id = store.put_control(message);
    const std::optional<ControlMessage> decoded = store.get_control(id);
    const PreparedControlPtr prepared = store.get_control_shared(id);
    ASSERT_TRUE(decoded.has_value());
    ASSERT_NE(prepared, nullptr);
    EXPECT_EQ(prepared->message.canonical_bytes(), decoded->canonical_bytes());
    EXPECT_EQ(prepared->message.signature, decoded->signature);
    EXPECT_EQ(prepared->message.trace, decoded->trace);
    const bool expected = decoded->verify_with(kKey);
    EXPECT_EQ(prepared->verify_with(kKey, cache), expected);
    EXPECT_EQ(prepared->verify_with(kKey, cache), expected);
  }
  // Every case asked twice: one hash, then one cache hit, per message.
  EXPECT_EQ(cache.misses().value(), cases.size());
  EXPECT_EQ(cache.hits().value(), cases.size());
}

}  // namespace
}  // namespace oddci::core
