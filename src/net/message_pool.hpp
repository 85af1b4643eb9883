#pragma once

#include <atomic>
#include <memory>
#include <utility>
#include <vector>

#include "net/message.hpp"
#include "obs/metrics.hpp"

/// Recycling pool for direct-channel messages.
///
/// The heartbeat storm is the highest-rate message stream in the system —
/// every PNA of a million-receiver population beats every interval — and
/// each beat used to be a fresh `make_shared`. `MessagePool` keeps a ring
/// of `shared_ptr<T>`: a slot whose use_count() has dropped back to 1
/// (nobody but the pool holds it — the network delivered it and every
/// handler let go) is *recycled in place* via `T::reset(...)`, reusing both
/// the object and its shared_ptr control block. Steady state allocates
/// nothing per message.
///
/// Safety is structural, not conventional: a message still referenced
/// anywhere (in flight on the network, retained by a handler) has
/// use_count() > 1 and is simply skipped — the pool falls back to a fresh
/// `make_shared` rather than ever mutating shared state.
///
/// `T` must derive from `net::Message` and provide `reset(args...)`
/// mirroring its constructor.
namespace oddci::net {

template <typename T>
class MessagePool {
 public:
  /// Capacity bounds the number of recyclable in-flight messages; a full
  /// ring degrades to plain allocation, never blocks.
  explicit MessagePool(std::size_t capacity = 4096)
      : ring_(capacity == 0 ? 1 : capacity) {}

  MessagePool(const MessagePool&) = delete;
  MessagePool& operator=(const MessagePool&) = delete;

  template <typename... Args>
  [[nodiscard]] std::shared_ptr<T> acquire(Args&&... args) {
    std::shared_ptr<T>& slot = ring_[cursor_];
    cursor_ = (cursor_ + 1) % ring_.size();
    if (!slot) {
      slot = std::make_shared<T>(std::forward<Args>(args)...);
      allocated_.inc();
      pooled_bytes_.inc(
          static_cast<std::uint64_t>(slot->wire_size().count() / 8));
      return slot;
    }
    if (slot.use_count() == 1) {
      // Under the sharded kernel the last foreign reference may have been
      // dropped by another worker thread (its control-block decrement is a
      // release); pair it with an acquire fence before mutating the object.
      std::atomic_thread_fence(std::memory_order_acquire);
      slot->reset(std::forward<Args>(args)...);
      reused_.inc();
      pooled_bytes_.inc(
          static_cast<std::uint64_t>(slot->wire_size().count() / 8));
      return slot;
    }
    // Slot still in flight: allocate off-ring (the ring keeps its claim).
    allocated_.inc();
    return std::make_shared<T>(std::forward<Args>(args)...);
  }

  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }

  [[nodiscard]] const obs::Counter& reused() const { return reused_; }
  [[nodiscard]] const obs::Counter& allocated() const { return allocated_; }
  [[nodiscard]] const obs::Counter& pooled_bytes() const {
    return pooled_bytes_;
  }

 private:
  std::vector<std::shared_ptr<T>> ring_;
  std::size_t cursor_ = 0;
  obs::Counter reused_;
  obs::Counter allocated_;
  obs::Counter pooled_bytes_;  ///< wire bytes served from pooled slots
};

}  // namespace oddci::net
