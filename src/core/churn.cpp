#include "core/churn.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace oddci::core {

void ChurnOptions::validate() const {
  if (mean_on_seconds <= 0.0 || mean_off_seconds <= 0.0) {
    throw std::invalid_argument("ChurnOptions: mean durations must be > 0");
  }
  if (in_use_probability < 0.0 || in_use_probability > 1.0) {
    throw std::invalid_argument(
        "ChurnOptions: in_use_probability out of [0,1]");
  }
  if (initial_on_fraction > 1.0) {
    throw std::invalid_argument(
        "ChurnOptions: initial_on_fraction out of range");
  }
}

void DiurnalOptions::validate() const {
  if (evening_start_hour_mean < 0.0 || evening_start_hour_mean >= 24.0 ||
      day_start_hour_mean < 0.0 || day_start_hour_mean >= 24.0) {
    throw std::invalid_argument("DiurnalOptions: start hours out of [0,24)");
  }
  if (evening_start_hour_sigma < 0.0 || day_start_hour_sigma < 0.0 ||
      viewing_hours_sigma < 0.0) {
    throw std::invalid_argument("DiurnalOptions: negative sigma");
  }
  if (viewing_hours_median <= 0.0) {
    throw std::invalid_argument("DiurnalOptions: session length must be > 0");
  }
  if (day_session_probability < 0.0 || day_session_probability > 1.0 ||
      standby_probability < 0.0 || standby_probability > 1.0) {
    throw std::invalid_argument("DiurnalOptions: probability out of [0,1]");
  }
}

DiurnalAudience::DiurnalAudience(sim::Simulation& simulation,
                                 std::vector<dtv::Receiver*> receivers,
                                 std::uint64_t seed, DiurnalOptions options)
    : simulation_(simulation),
      receivers_(std::move(receivers)),
      rng_(seed),
      options_(options),
      active_(std::make_shared<bool>(false)) {
  options_.validate();
}

DiurnalAudience::~DiurnalAudience() { *active_ = false; }

dtv::PowerMode DiurnalAudience::idle_mode() {
  return rng_.bernoulli(options_.standby_probability)
             ? dtv::PowerMode::kStandby
             : dtv::PowerMode::kOff;
}

void DiurnalAudience::set_mode(std::size_t index, dtv::PowerMode mode) {
  receivers_[index]->set_power_mode(mode);
}

void DiurnalAudience::start(double start_hour) {
  *active_ = true;
  start_hour_ = start_hour;
  // The current "day" began `start_hour` hours ago in simulated time.
  const sim::SimTime midnight =
      simulation_.now() - sim::SimTime::from_hours(start_hour);
  for (std::size_t i = 0; i < receivers_.size(); ++i) {
    // Initial state: idle-mode until a session starts today.
    set_mode(i, idle_mode());
    plan_day(i, midnight);
  }
}

void DiurnalAudience::plan_day(std::size_t index, sim::SimTime midnight) {
  std::weak_ptr<bool> active = active_;
  auto schedule_session = [&](double start_hour, double hours) {
    const sim::SimTime begin =
        midnight + sim::SimTime::from_hours(start_hour);
    const sim::SimTime end = begin + sim::SimTime::from_hours(hours);
    if (end <= simulation_.now()) return;  // already over
    if (begin > simulation_.now()) {
      simulation_.schedule_at(begin, [this, index, active] {
        auto guard = active.lock();
        if (!guard || !*guard) return;
        set_mode(index, dtv::PowerMode::kInUse);
      });
    } else {
      set_mode(index, dtv::PowerMode::kInUse);
    }
    simulation_.schedule_at(end, [this, index, active] {
      auto guard = active.lock();
      if (!guard || !*guard) return;
      set_mode(index, idle_mode());
    });
  };

  // Evening prime-time session.
  const double evening = std::clamp(
      rng_.normal(options_.evening_start_hour_mean,
                  options_.evening_start_hour_sigma),
      0.0, 26.0);
  const double evening_len = rng_.lognormal(
      std::log(options_.viewing_hours_median), options_.viewing_hours_sigma);
  schedule_session(evening, evening_len);

  // Optional daytime session.
  if (rng_.bernoulli(options_.day_session_probability)) {
    const double day = std::clamp(
        rng_.normal(options_.day_start_hour_mean,
                    options_.day_start_hour_sigma),
        0.0, 24.0);
    schedule_session(day, rng_.lognormal(
                              std::log(options_.viewing_hours_median / 2.0),
                              options_.viewing_hours_sigma));
  }

  // Re-plan at the receiver's next midnight.
  const sim::SimTime next_midnight = midnight + sim::SimTime::from_hours(24);
  std::weak_ptr<bool> weak = active_;
  simulation_.schedule_at(next_midnight, [this, index, next_midnight, weak] {
    auto guard = weak.lock();
    if (!guard || !*guard) return;
    plan_day(index, next_midnight);
  });
}

std::size_t DiurnalAudience::in_use_count() const {
  std::size_t n = 0;
  for (const auto* r : receivers_) {
    if (r->power_mode() == dtv::PowerMode::kInUse) ++n;
  }
  return n;
}

std::size_t DiurnalAudience::standby_count() const {
  std::size_t n = 0;
  for (const auto* r : receivers_) {
    if (r->power_mode() == dtv::PowerMode::kStandby) ++n;
  }
  return n;
}

std::size_t DiurnalAudience::off_count() const {
  std::size_t n = 0;
  for (const auto* r : receivers_) {
    if (!r->powered()) ++n;
  }
  return n;
}

ChurnProcess::ChurnProcess(sim::Simulation& simulation,
                           std::vector<dtv::Receiver*> receivers,
                           std::uint64_t seed, ChurnOptions options)
    : simulation_(simulation),
      receivers_(std::move(receivers)),
      dwells_(receivers_.size(), sim::kInvalidEvent),
      seed_(seed),
      options_(options) {
  options_.validate();
}

ChurnProcess::~ChurnProcess() { stop(); }

double ChurnProcess::draw(std::uint32_t index, std::uint32_t ordinal,
                          Draw what) const {
  return util::keyed_uniform(seed_, receivers_[index]->node_id(),
                             std::uint64_t{ordinal} << 2 | what);
}

dtv::PowerMode ChurnProcess::on_mode(std::uint32_t index,
                                     std::uint32_t ordinal) const {
  return draw(index, ordinal, kOnMode) < options_.in_use_probability
             ? dtv::PowerMode::kInUse
             : dtv::PowerMode::kStandby;
}

void ChurnProcess::start() {
  const double on_fraction = options_.initial_on_fraction >= 0.0
                                 ? options_.initial_on_fraction
                                 : options_.steady_state_on_fraction();
  for (std::uint32_t i = 0; i < receivers_.size(); ++i) {
    receivers_[i]->set_power_mode(draw(i, 0, kInitial) < on_fraction
                                      ? on_mode(i, 0)
                                      : dtv::PowerMode::kOff);
    schedule_toggle(i, 0);
  }
}

void ChurnProcess::stop() {
  for (sim::EventId& dwell : dwells_) {
    if (dwell != sim::kInvalidEvent) simulation_.cancel(dwell);
    dwell = sim::kInvalidEvent;
  }
}

void ChurnProcess::schedule_toggle(std::uint32_t index,
                                   std::uint32_t ordinal) {
  const double mean = receivers_[index]->powered() ? options_.mean_on_seconds
                                                   : options_.mean_off_seconds;
  const double dwell = -mean * std::log(1.0 - draw(index, ordinal, kDwell));
  // The 16-B capture stays inline in the event slot.
  dwells_[index] = simulation_.schedule_in(
      sim::SimTime::from_seconds(dwell),
      [this, index, ordinal] { toggle(index, ordinal + 1); });
}

void ChurnProcess::toggle(std::uint32_t index, std::uint32_t ordinal) {
  dtv::Receiver* receiver = receivers_[index];
  if (receiver->powered()) {
    receiver->set_power_mode(dtv::PowerMode::kOff);
    ++stats_.switch_offs;
  } else {
    receiver->set_power_mode(on_mode(index, ordinal));
    ++stats_.switch_ons;
  }
  schedule_toggle(index, ordinal);
}

}  // namespace oddci::core
