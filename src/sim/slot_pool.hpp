#pragma once

#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

/// Chunked slot pool: the storage behind the kernel's event slab.
///
/// Elements live in fixed chunks of `kChunkSlots` slots. Growth allocates
/// one more chunk; it never copies, never doubles and never moves a live
/// element, so a slot's address is stable for as long as it is live.
/// Freed slots are reused last-in first-out through a free list threaded
/// through the free slots themselves.
///
/// Every slot carries a 32-bit generation in a dense per-chunk array: odd
/// while the slot is live, even while it is free. Each emplace and each
/// erase bumps it, so an `Id` (`generation << 32 | index`) names one
/// occupancy of one slot and a stale id is rejected in O(1) after the slot
/// has been reused. A live id is never 0.
///
/// A fresh chunk is left untouched until its slots are handed out, so the
/// resident cost of a pool follows its high-water mark, not its capacity.
namespace oddci::sim {

template <typename T>
class SlotPool {
 public:
  using Id = std::uint64_t;
  static constexpr std::uint32_t kChunkSlots = 4096;
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  SlotPool() = default;
  ~SlotPool() {
    for (std::uint32_t i = 0; i < fresh_; ++i) {
      if (live(i)) slot(i).value.~T();
    }
  }
  SlotPool(const SlotPool&) = delete;
  SlotPool& operator=(const SlotPool&) = delete;

  /// Construct a T from `args` in the most recently freed slot (or the next
  /// fresh one, adding a chunk when all are in use). Returns its index.
  template <typename... Args>
  std::uint32_t emplace(Args&&... args) {
    std::uint32_t index = free_head_;
    const bool fresh = index == kNone;
    if (fresh) {
      if (fresh_ == kChunkSlots * chunks_.size()) {
        chunks_.push_back(std::unique_ptr<Chunk>(new Chunk));
      }
      index = fresh_;
    }
    Slot& s = slot(index);
    if (!fresh) free_head_ = s.next_free;
    try {
      ::new (static_cast<void*>(&s.value)) T(std::forward<Args>(args)...);
    } catch (...) {
      if (!fresh) {  // the slot goes back on the list it came from
        s.next_free = free_head_;
        free_head_ = index;
      }
      throw;
    }
    if (fresh) {
      generation_ref(index) = 1;
      ++fresh_;
    } else {
      ++generation_ref(index);
    }
    ++live_;
    return index;
  }

  /// Destroy the live element at `index` and push its slot on the free
  /// list.
  void erase(std::uint32_t index) {
    Slot& s = slot(index);
    s.value.~T();
    s.next_free = free_head_;
    free_head_ = index;
    ++generation_ref(index);
    --live_;
  }

  [[nodiscard]] T& operator[](std::uint32_t index) {
    return slot(index).value;
  }
  [[nodiscard]] const T& operator[](std::uint32_t index) const {
    return slot(index).value;
  }

  /// Generation of slot `index` (< high_water()): odd while live.
  [[nodiscard]] std::uint32_t generation(std::uint32_t index) const {
    return chunks_[index / kChunkSlots]->generations[index % kChunkSlots];
  }
  [[nodiscard]] bool live(std::uint32_t index) const {
    return (generation(index) & 1u) != 0;
  }

  /// Handle of the live element at `index`.
  [[nodiscard]] Id id(std::uint32_t index) const {
    return (static_cast<Id>(generation(index)) << 32) | index;
  }
  [[nodiscard]] static std::uint32_t index_of(Id id) {
    return static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
  }
  /// True while `id` names the current, live occupancy of its slot.
  [[nodiscard]] bool contains(Id id) const {
    const std::uint32_t index = index_of(id);
    if (index >= fresh_) return false;
    const auto gen = static_cast<std::uint32_t>(id >> 32);
    return (gen & 1u) != 0 && generation(index) == gen;
  }

  /// Live elements.
  [[nodiscard]] std::size_t size() const { return live_; }
  /// Slots ever handed out (the pool's resident high-water mark).
  [[nodiscard]] std::size_t high_water() const { return fresh_; }
  /// Chunks allocated (one heap block each).
  [[nodiscard]] std::size_t chunks() const { return chunks_.size(); }
  /// Slots in allocated chunks.
  [[nodiscard]] std::size_t capacity() const {
    return static_cast<std::size_t>(kChunkSlots) * chunks_.size();
  }

 private:
  /// A live slot holds a T; a free one holds the free-list link.
  union Slot {
    Slot() {}
    ~Slot() {}
    T value;
    std::uint32_t next_free;
  };
  struct Chunk {
    // Default-initialized: no slot or generation is written (or paged
    // in) before it is first handed out.
    Slot slots[kChunkSlots];
    std::uint32_t generations[kChunkSlots];
  };

  [[nodiscard]] Slot& slot(std::uint32_t index) {
    return chunks_[index / kChunkSlots]->slots[index % kChunkSlots];
  }
  [[nodiscard]] const Slot& slot(std::uint32_t index) const {
    return chunks_[index / kChunkSlots]->slots[index % kChunkSlots];
  }
  [[nodiscard]] std::uint32_t& generation_ref(std::uint32_t index) {
    return chunks_[index / kChunkSlots]->generations[index % kChunkSlots];
  }

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::uint32_t free_head_ = kNone;
  std::uint32_t fresh_ = 0;
  std::size_t live_ = 0;
};

}  // namespace oddci::sim
