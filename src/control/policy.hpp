#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "sim/time.hpp"
#include "util/quantity.hpp"

/// Pluggable control-plane decision engines.
///
/// The Controller's maintenance loop consolidates heartbeats into a
/// membership view and then has to make policy decisions: what wakeup
/// probability to put on the air for a fresh instance, whether to
/// retransmit (recompose) for one that lost members, how many excess
/// members to shed via unicast resets, and whether to admit a job at all
/// given its suitability Phi = delta * p / (s + r) (Section 5.2.2 of the
/// paper, in the repo's operational orientation — see
/// analytical/models.hpp).
///
/// Those decisions live behind the `DecisionEngine` interface: each
/// maintenance tick the Controller builds a `ControlObservation` from its
/// telemetry and asks the engine for a `ControlAction`. Three engines
/// ship:
///  * `StaticPolicy`      — the paper's fixed overshoot-margin rule,
///                          bit-for-bit the pre-engine Controller
///                          behaviour (the default);
///  * `ProportionalPolicy`— a PI ramp of p toward the target size with
///                          churn compensation via the integral term;
///  * `BanditPolicy`      — epsilon-greedy arm selection over margin
///                          multipliers, one value table per deficit
///                          regime.
///
/// Determinism contract: engines are only ever invoked from the control
/// shard (the Controller and Backend live on shard 0 of the sharded
/// kernel), so decision state needs no locking, and a policy that draws
/// randomness must draw it exclusively from `PolicyOptions::seed` — a
/// dedicated named stream (util::stream_seed) derived from the system
/// seed, never from the population's RNG sequence. Under those rules a
/// run replays byte-identically per (seed, shard count).
namespace oddci::control {

/// Which decision engine drives the control loop.
enum class EngineKind : std::uint8_t {
  kStatic = 0,
  kProportional,
  kBandit,
};

[[nodiscard]] std::string_view to_string(EngineKind kind);
/// Inverse of to_string; throws std::invalid_argument for unknown names.
[[nodiscard]] EngineKind engine_kind_from_string(std::string_view name);

/// Control-loop knobs. The shared loop parameters (`monitor_interval`,
/// `stale_factor`, `overshoot_margin`) serve every engine; the rest
/// parameterize the individual engines.
struct PolicyOptions {
  EngineKind engine = EngineKind::kStatic;

  /// Cadence of the Controller's maintenance loop (prune stale members,
  /// ask the engine for recomposition/trim decisions).
  sim::SimTime monitor_interval = sim::SimTime::from_seconds(10);
  /// A member is presumed lost after this many missed heartbeat intervals.
  double stale_factor = 3.0;
  /// StaticPolicy: extra margin applied to the deficit/idle-pool ratio.
  /// BanditPolicy arms multiply on top of this baseline.
  double overshoot_margin = 1.0;

  /// Phi-driven job admission: jobs whose suitability
  /// Phi = delta * p / (s + r) falls below this are deferred instead of
  /// dispatched. 0 admits everything (the default — admission control is
  /// opt-in, so existing runs are untouched).
  double min_suitability = 0.0;

  // --- ProportionalPolicy ---------------------------------------------------
  /// Proportional gain on the deficit/idle-pool ratio. 1.0 aims the
  /// expected join count exactly at the deficit; the static policy's
  /// overshoot margin corresponds to a gain above 1.
  double gain = 1.0;
  /// Integral gain: each tick with a residual deficit accumulates this
  /// fraction of the error into a persistent boost, compensating churn
  /// and stale idle-pool entries without a fixed overshoot margin.
  double integral_gain = 0.3;
  /// Anti-windup clamp on the accumulated integral term (in probability
  /// units).
  double integral_cap = 0.5;
  /// Hard cap on any single wakeup probability the proportional engine
  /// requests (ramp limiting); 1.0 disables the cap.
  double max_step = 1.0;
  /// Fraction of the target size an instance may exceed before the
  /// proportional engine starts trimming (oscillation damping under
  /// churn); 0 trims everything over target, like the static policy.
  double trim_hysteresis = 0.0;

  // --- BanditPolicy ---------------------------------------------------------
  /// Arm set: multipliers applied to overshoot_margin * deficit / idle.
  std::vector<double> arms = {0.6, 0.85, 1.0, 1.15, 1.4};
  /// Epsilon-greedy exploration probability.
  double explore = 0.1;

  /// Seed of the policy's private RNG stream. 0 lets OddciSystem derive
  /// one from the system seed via util::stream_seed(seed,
  /// "control.policy") — a named stream disjoint from every population
  /// stream, so enabling an RNG-drawing policy never perturbs receiver
  /// seeding.
  std::uint64_t seed = 0;

  /// Throws std::invalid_argument on out-of-range knobs.
  void validate() const;
};

/// Per-instance telemetry snapshot the Controller hands the engine at each
/// decision point, built after the tick's full membership rebuild (prune +
/// aggregator failover), so the idle-pool estimate is never stale.
struct ControlObservation {
  sim::SimTime now;
  std::uint64_t instance = 0;
  /// Requested instance size n.
  std::size_t target = 0;
  /// Confirmed members (busy heartbeats within the staleness window).
  std::size_t members = 0;
  /// PNAs that accepted the wakeup and are still loading the image.
  std::size_t joining = 0;
  /// Windowed idle-pool estimate. Only populated (scanned) on the
  /// recruitment path; 0 in trim-side observations.
  std::size_t idle_pool = 0;
  /// All PNAs ever heard from.
  std::size_t known_pnas = 0;
  /// Members this tick's rebuild pruned from the instance (churn signal).
  std::size_t pruned_this_tick = 0;
  bool recruiting = true;
  sim::SimTime heartbeat_interval;
  sim::SimTime since_last_wakeup;
};

/// What the engine wants done this tick.
struct ControlAction {
  /// Wakeup probability for a (re)composition broadcast; nullopt or <= 0
  /// means "do not broadcast this tick".
  std::optional<double> probability;
  /// Confirmed members to shed via unicast heartbeat resets.
  std::size_t trim = 0;
};

/// Job parameters for Phi-driven admission.
struct AdmissionRequest {
  sim::SimTime now;
  std::size_t tasks = 0;
  double input_bits = 0.0;    ///< average per-task input s
  double result_bits = 0.0;   ///< average per-task result r
  double task_seconds = 0.0;  ///< average per-task time on the device, p
  util::BitRate delta;        ///< per-node direct-channel capacity
  /// Redundancy overhead factor of verified execution (dispatches per
  /// verified task, >= 1): the suitability Phi is divided by it, so a
  /// population that needs 2x replication halves its verified throughput
  /// in the admission signal. 1.0 (the default, and the value whenever
  /// verification is off) leaves Phi untouched.
  double verify_overhead = 1.0;
};

enum class Admission : std::uint8_t {
  kAdmit = 0,
  kDefer,  ///< suitability below the configured floor
};

/// Abstract decision engine. One instance per Controller; all calls arrive
/// from the control shard (single-threaded by construction).
class DecisionEngine {
 public:
  explicit DecisionEngine(PolicyOptions options);
  virtual ~DecisionEngine();

  DecisionEngine(const DecisionEngine&) = delete;
  DecisionEngine& operator=(const DecisionEngine&) = delete;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Probability for the first wakeup of a freshly created instance
  /// (observation has members = joining = 0).
  [[nodiscard]] virtual double initial_probability(
      const ControlObservation& observation) = 0;

  /// Per-tick decision for an active instance. Called on the recruitment
  /// path (deficit > 0, past the retransmit cooldown, idle pool > 0) and
  /// on the trim path (confirmed members above target).
  [[nodiscard]] virtual ControlAction decide(
      const ControlObservation& observation) = 0;

  /// Phi-driven admission: defer jobs whose suitability falls below
  /// `PolicyOptions::min_suitability`. The base implementation is shared
  /// by all engines; it draws no randomness and, with the default floor
  /// of 0, admits everything without touching metrics or the recorder.
  [[nodiscard]] virtual Admission admit(const AdmissionRequest& request);

  /// Instance torn down: drop any per-instance loop state.
  virtual void forget(std::uint64_t instance);

  /// Register this engine's metric cells under "control.*". The base
  /// registers the admission counters only when Phi admission is active,
  /// so a default static engine adds no cells (byte-identical snapshots
  /// vs. the pre-engine tree).
  virtual void link_metrics(obs::MetricsRegistry& registry);

  /// Attach a flight recorder for control.* events; nullptr detaches.
  /// The static engine never emits.
  void set_flight_recorder(obs::FlightRecorder* recorder) {
    recorder_ = recorder;
  }

  [[nodiscard]] const PolicyOptions& options() const { return options_; }

  /// Jobs admitted / deferred by the Phi gate (all engines).
  [[nodiscard]] std::uint64_t jobs_admitted() const {
    return jobs_admitted_.value();
  }
  [[nodiscard]] std::uint64_t jobs_deferred() const {
    return jobs_deferred_.value();
  }

 protected:
  PolicyOptions options_;
  obs::FlightRecorder* recorder_ = nullptr;
  obs::Counter jobs_admitted_;
  obs::Counter jobs_deferred_;
};

/// Instantiate the engine selected by `options.engine`.
[[nodiscard]] std::unique_ptr<DecisionEngine> make_engine(
    PolicyOptions options);

}  // namespace oddci::control
