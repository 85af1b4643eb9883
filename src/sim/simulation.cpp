#include "sim/simulation.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/profiler.hpp"  // header-only recording; no link dependency

namespace oddci::sim {
namespace {

/// RAII execute-phase timer: two steady_clock reads when a profiler is
/// attached, nothing otherwise.
class ExecuteScope {
 public:
  ExecuteScope(obs::KernelProfiler* profiler, std::uint32_t shard)
      : profiler_(profiler),
        shard_(shard),
        start_(profiler != nullptr ? obs::KernelProfiler::now_nanos() : 0) {}

  ~ExecuteScope() {
    if (profiler_ != nullptr) {
      profiler_->add_execute(shard_,
                             obs::KernelProfiler::now_nanos() - start_);
    }
  }

  ExecuteScope(const ExecuteScope&) = delete;
  ExecuteScope& operator=(const ExecuteScope&) = delete;

 private:
  obs::KernelProfiler* profiler_;
  std::uint32_t shard_;
  std::uint64_t start_;
};

}  // namespace

std::string SimTime::to_string() const {
  const double s = seconds();
  if (s >= 3600.0) return std::to_string(s / 3600.0) + " h";
  if (s >= 60.0) return std::to_string(s / 60.0) + " min";
  if (s >= 1.0) return std::to_string(s) + " s";
  return std::to_string(millis()) + " ms";
}

Simulation::Simulation() : wheel_(std::make_unique<TimerWheel>(*this)) {}

Simulation::~Simulation() = default;

EventId Simulation::schedule_at(SimTime t, Callback cb,
                                EventPriority priority) {
  if (t < now_) {
    throw std::invalid_argument("Simulation: scheduling into the past");
  }
  if (!cb) {
    throw std::invalid_argument("Simulation: empty callback");
  }
  const auto p = static_cast<int>(priority);
  if (p < -128 || p > 127) {
    throw std::invalid_argument("Simulation: priority outside [-128, 127]");
  }
  if (next_seq_ >> kSeqBits != 0) {
    throw std::overflow_error("Simulation: event sequence exhausted");
  }

  const std::uint32_t index = slots_.emplace(std::move(cb));
  const std::uint64_t seq = next_seq_++;
  const std::uint64_t key =
      (static_cast<std::uint64_t>(p + 128) << kSeqBits) | seq;
  heap_.push_back(Entry{t, key, index, slots_.generation(index)});
  std::push_heap(heap_.begin(), heap_.end());
  ++live_events_;
  return slots_.id(index);
}

EventId Simulation::schedule_in(SimTime delay, Callback cb,
                                EventPriority priority) {
  if (delay < SimTime::zero()) {
    throw std::invalid_argument("Simulation: negative delay");
  }
  return schedule_at(now_ + delay, std::move(cb), priority);
}

bool Simulation::cancel(EventId id) {
  if (!slots_.contains(id)) return false;
  // The heap entry stays behind as a tombstone and is skimmed lazily when
  // it reaches the top; the callback's resources are released now.
  slots_.erase(SlotPool<EventSlot>::index_of(id));
  --live_events_;
  ++events_cancelled_;
  return true;
}

bool Simulation::skim_top() {
  while (!heap_.empty()) {
    if (entry_live(heap_.front())) return true;
    std::pop_heap(heap_.begin(), heap_.end());
    heap_.pop_back();
  }
  return false;
}

EventFn Simulation::take_top(Entry& out) {
  out = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end());
  heap_.pop_back();
  // Move the callback out and recycle the slot *before* invoking, so the
  // callback may freely schedule new events (which may reuse the slot) and
  // a self-cancel attempt correctly reports false.
  EventFn fn = std::move(slots_[out.slot]);
  slots_.erase(out.slot);
  --live_events_;
  return fn;
}

bool Simulation::step() {
  if (!skim_top()) return false;
  Entry e;
  EventFn fn = take_top(e);
  now_ = e.time;
  ++events_executed_;
  fn();
  return true;
}

void Simulation::run() {
  stopping_ = false;
  ExecuteScope scope(profiler_, profiler_shard_);
  while (!stopping_ && step()) {
  }
}

void Simulation::run_until(SimTime t) {
  if (t < now_) {
    throw std::invalid_argument("Simulation: run_until into the past");
  }
  stopping_ = false;
  ExecuteScope scope(profiler_, profiler_shard_);
  while (!stopping_ && skim_top()) {
    if (heap_.front().time > t) break;  // beyond the horizon: leave queued
    Entry e;
    EventFn fn = take_top(e);
    now_ = e.time;
    ++events_executed_;
    fn();
  }
  if (!stopping_) now_ = t;
}

void Simulation::run_window(SimTime end) {
  if (end < now_) {
    throw std::invalid_argument("Simulation: run_window into the past");
  }
  stopping_ = false;
  ExecuteScope scope(profiler_, profiler_shard_);
  while (!stopping_ && skim_top()) {
    if (heap_.front().time >= end) break;  // next window's business
    Entry e;
    EventFn fn = take_top(e);
    now_ = e.time;
    ++events_executed_;
    fn();
  }
  if (!stopping_) now_ = end;
}

SimTime Simulation::next_event_time() {
  if (!skim_top()) return SimTime::max();
  return heap_.front().time;
}

SimTime PeriodicTask::positive(SimTime period) {
  if (period <= SimTime::zero()) {
    throw std::invalid_argument("PeriodicTask: period must be positive");
  }
  return period;
}

PeriodicTask::PeriodicTask(PeriodicTask&& other) noexcept
    : simulation_(std::exchange(other.simulation_, nullptr)),
      id_(std::exchange(other.id_, kInvalidTimer)) {}

PeriodicTask& PeriodicTask::operator=(PeriodicTask&& other) noexcept {
  if (this != &other) {
    cancel();
    simulation_ = std::exchange(other.simulation_, nullptr);
    id_ = std::exchange(other.id_, kInvalidTimer);
  }
  return *this;
}

PeriodicTask::~PeriodicTask() { cancel(); }

void PeriodicTask::cancel() {
  if (simulation_ != nullptr && id_ != kInvalidTimer) {
    simulation_->cancel_timer(id_);
    id_ = kInvalidTimer;
  }
}

bool PeriodicTask::active() const {
  return simulation_ != nullptr && id_ != kInvalidTimer &&
         simulation_->timer_active(id_);
}

}  // namespace oddci::sim
