#include "core/content_store.hpp"

#include <mutex>
#include <utility>

namespace oddci::core {

std::uint64_t ContentStore::put_control(const ControlMessage& message) {
  const std::uint64_t id = next_id_++;
  // Count buffer reuse from the second encode on (a fresh Writer's string
  // may report small-buffer capacity without any heap allocation to reuse).
  if (writer_used_) writer_reuses_.inc();
  writer_used_ = true;
  writer_.clear();
  wire::encode_into(message, writer_);
  // Decode once at put time: every reader of the id then shares one
  // immutable PreparedControl, and readers on other shards never mutate
  // the memo.
  PreparedControlPtr prepared;
  try {
    prepared = PreparedControl::make(wire::decode_control(writer_.bytes()));
  } catch (const wire::WireError&) {
    prepared = nullptr;
  }
  std::unique_lock lock(mutex_, std::defer_lock);
  if (concurrent_) lock.lock();
  blobs_.emplace(id, writer_.bytes());
  if (prepared != nullptr) prepared_.emplace(id, std::move(prepared));
  return id;
}

std::optional<ControlMessage> ContentStore::get_control(
    std::uint64_t id) const {
  std::shared_lock lock(mutex_, std::defer_lock);
  if (concurrent_) lock.lock();
  auto it = blobs_.find(id);
  if (it == blobs_.end()) return std::nullopt;
  try {
    return wire::decode_control(it->second);
  } catch (const wire::WireError&) {
    return std::nullopt;
  }
}

PreparedControlPtr ContentStore::get_control_shared(std::uint64_t id) const {
  std::shared_lock lock(mutex_, std::defer_lock);
  if (concurrent_) lock.lock();
  auto it = prepared_.find(id);
  return it == prepared_.end() ? nullptr : it->second;
}

const std::string* ContentStore::get_bytes(std::uint64_t id) const {
  std::shared_lock lock(mutex_, std::defer_lock);
  if (concurrent_) lock.lock();
  auto it = blobs_.find(id);
  return it == blobs_.end() ? nullptr : &it->second;
}

bool ContentStore::remove(std::uint64_t id) {
  std::unique_lock lock(mutex_, std::defer_lock);
  if (concurrent_) lock.lock();
  prepared_.erase(id);
  return blobs_.erase(id) > 0;
}

}  // namespace oddci::core
