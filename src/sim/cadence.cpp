#include "sim/cadence.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "sim/simulation.hpp"

namespace oddci::sim {

namespace {

inline void prefetch(const void* p) {
#if defined(__GNUC__)
  __builtin_prefetch(p);
#else
  (void)p;
#endif
}

/// Min-heap order on (deadline, slot) for std::push_heap's max-heap.
struct Later {
  template <typename E>
  bool operator()(const E& a, const E& b) const {
    if (a.deadline != b.deadline) return a.deadline > b.deadline;
    return a.slot > b.slot;
  }
};

}  // namespace

void Cadence::Fifo::push(const Entry& entry) {
  if (size_ == ring_.size()) {
    std::vector<Entry> grown(std::max<std::size_t>(64, 2 * ring_.size()));
    for (std::size_t i = 0; i < size_; ++i) grown[i] = at(i);
    ring_ = std::move(grown);
    head_ = 0;
  }
  ring_[(head_ + size_) & (ring_.size() - 1)] = entry;
  ++size_;
}

Cadence::Cadence(Simulation& simulation, Fire fire_fn)
    : simulation_(simulation), fire_(fire_fn) {
  if (fire_ == nullptr) {
    throw std::invalid_argument("Cadence: null fire function");
  }
}

Cadence::~Cadence() { schedule(SimTime::max()); }

Cadence::Handle Cadence::arm(void* target, SimTime first, SimTime period) {
  if (target == nullptr) {
    throw std::invalid_argument("Cadence: null target");
  }
  if (first < simulation_.now()) {
    throw std::invalid_argument("Cadence: first beat in the past");
  }
  if (period <= SimTime::zero()) {
    throw std::invalid_argument("Cadence: period must be positive");
  }
  std::uint32_t lane = 0;
  while (lane < lanes_.size() && lanes_[lane].period != period) ++lane;
  if (lane == lanes_.size()) lanes_.push_back(Lane{period, {}});

  std::uint32_t index = free_head_;
  if (index != kNoSlot) {
    free_head_ = slots_[index].lane;
  } else {
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[index];
  slot.target = target;
  slot.lane = lane;
  ++slot.generation;
  ++armed_;
  push_first(Entry{first, index, slot.generation});
  if (!serving_ && first < event_at_) schedule(first);
  return index + 1;
}

bool Cadence::cancel(Handle handle) {
  if (handle == kNone || handle > slots_.size()) return false;
  const std::uint32_t index = handle - 1;
  Slot& slot = slots_[index];
  if ((slot.generation & 1u) == 0) return false;
  ++slot.generation;
  slot.target = nullptr;
  slot.lane = free_head_;
  free_head_ = index;
  if (--armed_ == 0) {
    // Every queued entry is stale: drop them and the event now, so a
    // cadence with nothing armed holds no kernel event.
    std::vector<Entry>().swap(first_);
    for (Lane& lane : lanes_) lane.queue.clear();
    if (!serving_) schedule(SimTime::max());
  }
  return true;
}

void Cadence::push_first(const Entry& entry) {
  first_.push_back(entry);
  std::push_heap(first_.begin(), first_.end(), Later{});
}

void Cadence::pop(std::size_t source) {
  if (source != kFirstBeats) {
    lanes_[source].queue.pop();
    return;
  }
  std::pop_heap(first_.begin(), first_.end(), Later{});
  first_.pop_back();
  // A deploy fills the heap once; its buffer goes back when it drains.
  if (first_.empty()) std::vector<Entry>().swap(first_);
}

std::size_t Cadence::earliest() {
  std::size_t best = kDrained;
  SimTime at = SimTime::max();
  while (!first_.empty() && stale(first_.front())) pop(kFirstBeats);
  if (!first_.empty()) {
    best = kFirstBeats;
    at = first_.front().deadline;
  }
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    Fifo& queue = lanes_[i].queue;
    while (!queue.empty() && stale(queue.at(0))) queue.pop();
    if (!queue.empty() && queue.at(0).deadline < at) {
      best = i;
      at = queue.at(0).deadline;
    }
  }
  return best;
}

void Cadence::serve() {
  event_ = kInvalidEvent;
  event_at_ = SimTime::max();
  serving_ = true;
  const SimTime now = simulation_.now();
  for (;;) {
    const std::size_t source = earliest();
    if (source == kDrained || head(source).deadline > now) break;
    const Entry entry = head(source);
    pop(source);
    if (source != kFirstBeats) {
      // The FIFO knows who beats next: load the slot kAhead entries out,
      // and the first 64 bytes (one or two lines) of the target halfway
      // there, whose slot the serve kAhead / 2 beats ago loaded. Written
      // out here: GCC reads a helper holding only prefetches as free of
      // side effects and drops the call.
      const Fifo& queue = lanes_[source].queue;
      if (queue.size() > kAhead) prefetch(&slots_[queue.at(kAhead).slot]);
      if (queue.size() > kAhead / 2) {
        const auto* target = static_cast<const unsigned char*>(
            slots_[queue.at(kAhead / 2).slot].target);
        if (target != nullptr) {  // null: a cancelled arming's slot
          prefetch(target);
          prefetch(target + 63);
        }
      }
    }
    fire_(slots_[entry.slot].target);
    // The fire may have cancelled this arming, and an arm since may have
    // reused its slot: only the same generation re-queues.
    const Slot& slot = slots_[entry.slot];
    if (slot.generation == entry.generation) {
      Lane& lane = lanes_[slot.lane];
      lane.queue.push(
          Entry{entry.deadline + lane.period, entry.slot, entry.generation});
    }
  }
  serving_ = false;
  const std::size_t next = earliest();
  schedule(next == kDrained ? SimTime::max() : head(next).deadline);
}

void Cadence::schedule(SimTime at) {
  if (at == event_at_) return;
  if (event_ != kInvalidEvent) simulation_.cancel(event_);
  event_ = kInvalidEvent;
  event_at_ = at;
  if (at == SimTime::max()) return;
  event_ = simulation_.schedule_at(
      at, [this] { serve(); }, EventPriority::kTimer);
}

}  // namespace oddci::sim
