#pragma once

// Reference scheduler shared by the property tests of the timer wheel and
// the heartbeat cadence.

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace oddci::sim::reference {

/// Reference model: fires each armed id at its exact deadline; periodic
/// timers re-arm with exact arithmetic (deadline += period).
class NaiveScheduler {
 public:
  void arm(int id, SimTime deadline, SimTime period) {
    armed_[id] = {deadline, period};
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

  /// All (time, id) firings with time <= horizon, in time order.
  std::vector<std::pair<std::int64_t, int>> run_until(SimTime horizon) {
    std::vector<std::pair<std::int64_t, int>> fired;
    for (;;) {
      auto next = armed_.end();
      for (auto it = armed_.begin(); it != armed_.end(); ++it) {
        if (next == armed_.end() ||
            it->second.deadline < next->second.deadline) {
          next = it;
        }
      }
      if (next == armed_.end() || next->second.deadline > horizon) break;
      fired.emplace_back(next->second.deadline.micros(), next->first);
      if (next->second.period > SimTime::zero()) {
        next->second.deadline += next->second.period;
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
  };
  std::map<int, Armed> armed_;
};

/// Group (time, id) firings into per-timestamp sorted id lists so that
/// cross-timer tie order (unspecified for the wheel) is ignored.
inline std::map<std::int64_t, std::vector<int>> by_timestamp(
    const std::vector<std::pair<std::int64_t, int>>& fired) {
  std::map<std::int64_t, std::vector<int>> grouped;
  for (const auto& [t, id] : fired) grouped[t].push_back(id);
  for (auto& [t, ids] : grouped) std::sort(ids.begin(), ids.end());
  return grouped;
}

}  // namespace oddci::sim::reference
