#pragma once

#include <memory>
#include <vector>

#include "dtv/receiver.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

/// Receiver churn: set-top boxes are switched on and off at the will of
/// their owners (Section 3.2), which is why the Controller must retransmit
/// wakeup messages to recompose instances. This process drives each
/// receiver through exponential on/off cycles and, while on, samples
/// whether the viewer is actively watching (in-use) or the box idles in
/// standby.
namespace oddci::core {

struct ChurnOptions {
  double mean_on_seconds = 3600.0;
  double mean_off_seconds = 1800.0;
  /// While on, probability that the receiver is in use (vs standby).
  double in_use_probability = 0.7;
  /// Fraction of receivers that start switched on.
  double initial_on_fraction = -1.0;  ///< <0 = steady-state on/(on+off)

  void validate() const;
  [[nodiscard]] double steady_state_on_fraction() const {
    return mean_on_seconds / (mean_on_seconds + mean_off_seconds);
  }
};

/// Diurnal TV-audience model: each receiver follows a personal daily
/// schedule — an evening viewing session whose start clusters around prime
/// time, optional daytime viewing, and a configurable habit of leaving the
/// box in standby (rather than off) outside sessions. This produces the
/// day/night capacity rhythm that motivates overnight computing: at 3 am
/// most powered boxes are idle in standby (fast), at 9 pm they are in use
/// (slow) but numerous.
struct DiurnalOptions {
  double evening_start_hour_mean = 19.5;  ///< prime-time session start
  double evening_start_hour_sigma = 1.5;
  double viewing_hours_median = 2.5;      ///< lognormal session length
  double viewing_hours_sigma = 0.5;
  /// Probability of an (additional) daytime session on a given day.
  double day_session_probability = 0.25;
  double day_start_hour_mean = 13.0;
  double day_start_hour_sigma = 2.0;
  /// After a session (and overnight), the box stays in standby with this
  /// probability; otherwise it is switched off.
  double standby_probability = 0.6;

  void validate() const;
};

class DiurnalAudience {
 public:
  DiurnalAudience(sim::Simulation& simulation,
                  std::vector<dtv::Receiver*> receivers, std::uint64_t seed,
                  DiurnalOptions options);
  ~DiurnalAudience();

  DiurnalAudience(const DiurnalAudience&) = delete;
  DiurnalAudience& operator=(const DiurnalAudience&) = delete;

  /// Sets each receiver's state for the current time of day and schedules
  /// the daily rhythm. `start_hour` is the simulated clock's hour-of-day
  /// at simulation().now().
  void start(double start_hour = 12.0);

  [[nodiscard]] std::size_t in_use_count() const;
  [[nodiscard]] std::size_t standby_count() const;
  [[nodiscard]] std::size_t off_count() const;

 private:
  /// Plan receiver i's next day of sessions starting at absolute sim time
  /// `midnight` (the start of that receiver's day).
  void plan_day(std::size_t index, sim::SimTime midnight);
  void set_mode(std::size_t index, dtv::PowerMode mode);
  [[nodiscard]] dtv::PowerMode idle_mode();

  sim::Simulation& simulation_;
  std::vector<dtv::Receiver*> receivers_;
  util::Random rng_;
  DiurnalOptions options_;
  std::shared_ptr<bool> active_;
  double start_hour_ = 12.0;
};

class ChurnProcess {
 public:
  /// Receivers must outlive the process. Call start() to (a) sample each
  /// receiver's initial power state and (b) begin the on/off cycling.
  /// Every draw is keyed by (`seed`, receiver node id, toggle ordinal), so
  /// a receiver cycles at the same instants whichever process drives it:
  /// one per kernel shard share the seed.
  ChurnProcess(sim::Simulation& simulation,
               std::vector<dtv::Receiver*> receivers, std::uint64_t seed,
               ChurnOptions options);
  ~ChurnProcess();

  ChurnProcess(const ChurnProcess&) = delete;
  ChurnProcess& operator=(const ChurnProcess&) = delete;

  void start();
  /// Cancel every armed dwell; the kernel must still be alive.
  void stop();

  struct Stats {
    std::uint64_t switch_ons = 0;
    std::uint64_t switch_offs = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  /// What a draw decides at one toggle ordinal (0: start()).
  enum Draw : std::uint64_t { kInitial, kOnMode, kDwell };
  /// Receiver `index`'s `what` draw at its `ordinal`-th toggle, in [0, 1).
  [[nodiscard]] double draw(std::uint32_t index, std::uint32_t ordinal,
                            Draw what) const;
  [[nodiscard]] dtv::PowerMode on_mode(std::uint32_t index,
                                       std::uint32_t ordinal) const;
  void schedule_toggle(std::uint32_t index, std::uint32_t ordinal);
  void toggle(std::uint32_t index, std::uint32_t ordinal);

  sim::Simulation& simulation_;
  std::vector<dtv::Receiver*> receivers_;
  /// Each receiver's armed dwell (kInvalidEvent: none), cancelled by stop().
  std::vector<sim::EventId> dwells_;
  std::uint64_t seed_;
  ChurnOptions options_;
  Stats stats_;
};

}  // namespace oddci::core
