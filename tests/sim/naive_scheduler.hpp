#pragma once

// Reference scheduler shared by the kernel's timer property tests and the
// heartbeat cadence's.

#include <algorithm>
#include <cstdint>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/event.hpp"
#include "sim/time.hpp"

namespace oddci::sim::reference {

/// Reference model: fires each armed id at its exact deadline; periodic
/// timers re-arm with exact arithmetic (deadline += period). Firings follow
/// the kernel's ordering contract, (time, priority, sequence): every arm
/// and every periodic re-arm takes the next sequence number, as a
/// PeriodicTask's tick schedules its next tick when it has run.
class NaiveScheduler {
 public:
  void arm(int id, SimTime deadline, SimTime period,
           EventPriority priority = EventPriority::kTimer) {
    armed_[id] = {deadline, period, static_cast<int>(priority), next_seq_++};
  }

  bool disarm(int id) { return armed_.erase(id) > 0; }

  [[nodiscard]] std::size_t size() const { return armed_.size(); }
  /// Earliest armed deadline, or SimTime::max() when nothing is armed.
  [[nodiscard]] SimTime next_deadline() const {
    SimTime next = SimTime::max();
    for (const auto& [id, armed] : armed_) {
      next = std::min(next, armed.deadline);
    }
    return next;
  }
  [[nodiscard]] std::vector<int> armed_ids() const {
    std::vector<int> ids;
    for (const auto& [id, armed] : armed_) ids.push_back(id);
    return ids;
  }

  /// All (time, id) firings with time <= horizon, in (time, priority,
  /// sequence) order.
  std::vector<std::pair<std::int64_t, int>> run_until(SimTime horizon) {
    std::vector<std::pair<std::int64_t, int>> fired;
    for (;;) {
      auto next = armed_.end();
      for (auto it = armed_.begin(); it != armed_.end(); ++it) {
        if (next == armed_.end() || it->second.key() < next->second.key()) {
          next = it;
        }
      }
      if (next == armed_.end() || next->second.deadline > horizon) break;
      fired.emplace_back(next->second.deadline.micros(), next->first);
      if (next->second.period > SimTime::zero()) {
        next->second.deadline += next->second.period;
        next->second.seq = next_seq_++;
      } else {
        armed_.erase(next);
      }
    }
    return fired;
  }

 private:
  struct Armed {
    SimTime deadline;
    SimTime period;
    int priority = 0;
    std::uint64_t seq = 0;

    [[nodiscard]] std::tuple<SimTime, int, std::uint64_t> key() const {
      return {deadline, priority, seq};
    }
  };
  std::map<int, Armed> armed_;
  std::uint64_t next_seq_ = 0;
};

/// Group (time, id) firings into per-timestamp sorted id lists, for
/// schedulers whose same-instant order is their own (the cadence's).
inline std::map<std::int64_t, std::vector<int>> by_timestamp(
    const std::vector<std::pair<std::int64_t, int>>& fired) {
  std::map<std::int64_t, std::vector<int>> grouped;
  for (const auto& [t, id] : fired) grouped[t].push_back(id);
  for (auto& [t, ids] : grouped) std::sort(ids.begin(), ids.end());
  return grouped;
}

}  // namespace oddci::sim::reference
