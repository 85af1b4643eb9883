#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "net/network.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "sim/sharded.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

/// Deterministic fault injection.
///
/// The paper's availability claim rests on surviving uncoordinated device
/// churn, but real deployments also face lossy return channels, regional
/// outages, and server crashes. This subsystem composes those faults from a
/// single seeded plan so every failure scenario is replayable: the same
/// seed produces the same faults at the same sim times against the same
/// victims, and the recovery machinery they flush out (PNA result retry,
/// aggregator failover, Controller crash recovery, Backend retry caps) can
/// be asserted on byte-identical exports.
///
/// Two pseudo-random streams, both derived from the one injector seed:
///  * the *plan* stream draws Poisson interarrival gaps and victim picks
///    for scheduled faults (partitions, crashes, hangs, corruption);
///  * the *wire* stream draws the per-message loss/duplication/latency
///    verdicts inside `net::Network::send`, one stream per kernel shard.
/// Splitting them keeps message-level noise from perturbing the schedule
/// of the big structural faults.
namespace oddci::fault {

/// Fault-matrix configuration. All knobs default to "off": an enabled
/// injector with default options interposes on the network but never
/// fires, which is useful for A/B-ing the interposition overhead alone.
struct FaultOptions {
  /// Master switch: when false the system builds no injector at all and
  /// is event-trajectory-identical to a tree without this subsystem.
  bool enabled = false;
  /// Injector seed; 0 derives one from the system seed.
  std::uint64_t seed = 0;

  // --- direct-channel faults (interposed per message in Network::send) ---
  double message_loss = 0.0;          ///< P(message silently dropped)
  double message_duplication = 0.0;   ///< P(message delivered twice)
  double latency_spike_probability = 0.0;
  /// Mean of the exponential extra delay added on a latency spike.
  sim::SimTime latency_spike_mean = sim::SimTime::from_millis(500);

  // --- regional partitions (black-hole one aggregator's node) ---
  double partitions_per_hour = 0.0;
  sim::SimTime partition_duration = sim::SimTime::from_seconds(120);

  // --- crash-restart of the servers ---
  /// Absolute sim times at which the Controller crashes (one-shot each).
  std::vector<sim::SimTime> controller_crash_at;
  sim::SimTime controller_downtime = sim::SimTime::from_seconds(30);
  std::vector<sim::SimTime> backend_crash_at;
  sim::SimTime backend_downtime = sim::SimTime::from_seconds(30);
  double aggregator_crashes_per_hour = 0.0;
  sim::SimTime aggregator_downtime = sim::SimTime::from_seconds(60);

  // --- PNA process faults ---
  double pna_crashes_per_hour = 0.0;  ///< kill + immediate watchdog relaunch
  double pna_hangs_per_hour = 0.0;    ///< freeze, then watchdog kill+relaunch
  sim::SimTime pna_hang_duration = sim::SimTime::from_seconds(60);

  // --- Byzantine receiver profiles (see fault/byzantine.hpp) ---
  /// Fraction of receivers that compute but upload corrupted results.
  double byzantine_forger_fraction = 0.0;
  /// Fraction that accept tasks and return garbage instantly, never
  /// computing (they still heartbeat like honest members).
  double byzantine_freerider_fraction = 0.0;
  /// Size of one colluding group sharing a forgery seed (their wrong
  /// answers agree, defeating naive 2-way voting). 0 disables; >= 2
  /// otherwise. Recruited from a single aggregator region.
  std::size_t byzantine_collusion_size = 0;

  // --- control-plane corruption (tampered signed config on the air) ---
  double control_corruptions_per_hour = 0.0;
  /// How long the tampered configuration stays on air before the
  /// legitimate generation is restored.
  sim::SimTime corrupt_exposure = sim::SimTime::from_seconds(2);

  // --- recovery knobs (wired into the components by the system harness) ---
  /// Bounded PNA result-upload retry: attempts before giving up (the
  /// Backend's timeout sweep then re-dispatches the task).
  int result_retry_limit = 4;
  /// First retry delay; doubles per attempt, with deterministic jitter.
  sim::SimTime result_retry_base = sim::SimTime::from_seconds(2);
  /// A busy PNA whose task request went unanswered re-polls after this.
  sim::SimTime request_watchdog = sim::SimTime::from_seconds(45);
  /// Backend per-task requeue cap; a task re-queued this many times is
  /// reported failed instead of silently re-dispatched forever.
  int task_retry_cap = 16;
  /// Controller voids a silent aggregator from the heartbeat routing after
  /// this long without a consolidated report (PNAs re-home to the
  /// Controller); a resumed report restores it.
  sim::SimTime aggregator_failover_timeout = sim::SimTime::from_seconds(60);

  void validate() const;
};

/// Seeded fault driver. Owns the fault plan and interposes on every
/// direct-channel send; the actual crash/restart mechanics live in the
/// components and are reached through registered hooks, so the injector
/// never includes core headers.
///
/// Plan events run as global tasks of the sharded kernel: with every
/// shard parked, so partition state mutates race-free, and at the start
/// of their instant. Each shard has its own wire stream, counters and
/// recorder, so per-message verdicts never contend across threads.
class FaultInjector final : public net::SendInterposer {
 public:
  using Hook = std::function<void()>;
  /// Applies a hang (duration > 0) or crash to a PNA chosen from `pick`
  /// (an unbounded uniform draw; the callee reduces it to a victim).
  /// Returns false when no eligible victim exists.
  using PnaFaultFn =
      std::function<bool(std::uint64_t pick, bool hang, sim::SimTime duration)>;

  /// Call before any send is interposed. A lone shard draws its verdicts
  /// from the injector's wire stream itself; several shards split it, one
  /// stream each, so any fixed shard count replays byte-identically.
  FaultInjector(sim::ShardedSimulation& sharded, const FaultOptions& options,
                std::uint64_t seed);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  void set_controller_hooks(Hook crash, Hook restart);
  void set_backend_hooks(Hook crash, Hook restart);
  /// Declare one aggregator region: its direct-channel node (black-holed
  /// during a partition) and its crash/restart hooks.
  void add_region(net::NodeId aggregator_node, Hook crash, Hook restart);
  void set_pna_fault(PnaFaultFn fn);
  /// `corrupt` puts a tampered control message on the air (returns false
  /// when nothing is on air); `restore` brings the legitimate one back.
  void set_control_corruptor(std::function<bool()> corrupt,
                             std::function<void()> restore);

  /// Attach a flight recorder for plan-level faults, emitted as fault.*
  /// trace events. nullptr detaches.
  void set_recorder(obs::FlightRecorder* recorder) { recorder_ = recorder; }

  /// Wire-fault trace events for sends originating on `shard` go to this
  /// recorder. nullptr detaches.
  void set_shard_recorder(std::size_t shard, obs::FlightRecorder* recorder);

  /// Expose the fault.* counters in `registry`. The injector must outlive
  /// snapshot() calls.
  void link_metrics(obs::MetricsRegistry& registry) const;

  /// Count wire faults against messages with this tag separately
  /// (Stats::tracked_lost / tracked_duplicated). The system passes the
  /// heartbeat tag as a plain int — consistent with this layer never
  /// including core headers — so the health auditor can balance the
  /// heartbeat stream. -1 disables.
  void set_tracked_tag(int tag) { tracked_tag_ = tag; }

  /// Build and schedule the seeded plan: the one-shot crash events and the
  /// Poisson chains for partitions, aggregator crashes, PNA faults, and
  /// control corruption. Call once, after all hooks are registered.
  void start();

  struct Stats {
    std::uint64_t messages_lost = 0;
    std::uint64_t messages_duplicated = 0;
    std::uint64_t latency_spikes = 0;
    std::uint64_t partition_dropped = 0;
    /// Tracked-tag slice of the wire faults (losses include partition
    /// drops); see set_tracked_tag.
    std::uint64_t tracked_lost = 0;
    std::uint64_t tracked_duplicated = 0;
    std::uint64_t partitions_started = 0;
    std::uint64_t partitions_healed = 0;
    std::uint64_t controller_crashes = 0;
    std::uint64_t backend_crashes = 0;
    std::uint64_t aggregator_crashes = 0;
    std::uint64_t pna_crashes = 0;
    std::uint64_t pna_hangs = 0;
    std::uint64_t control_corruptions = 0;
  };
  [[nodiscard]] Stats stats() const;

  /// Regions currently black-holed (diagnostics/tests).
  [[nodiscard]] std::size_t active_partitions() const {
    return active_partitions_;
  }

  // --- net::SendInterposer ---------------------------------------------------
  Action on_send(net::NodeId from, net::NodeId to, const net::Message& message,
                 std::size_t src_shard) override;

 private:
  /// One shard's wire-fault state: its own verdict stream, counters and
  /// clock, all touched only by the thread running that shard's window.
  struct alignas(64) WireShard {
    util::Random rng{0};
    sim::Simulation* sim = nullptr;
    obs::FlightRecorder* recorder = nullptr;
    std::uint64_t lost = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t spikes = 0;
    std::uint64_t partition_dropped = 0;
    std::uint64_t tracked_lost = 0;
    std::uint64_t tracked_duplicated = 0;
  };

  struct Region {
    net::NodeId node = net::kInvalidNode;
    Hook crash;
    Hook restart;
    bool partitioned = false;
    bool crashed = false;
  };

  [[nodiscard]] bool blackholed(net::NodeId id) const {
    return id < blackholed_.size() && blackholed_[id] != 0;
  }
  [[nodiscard]] bool tracked(const net::Message& message) const {
    return tracked_tag_ >= 0 && message.tag() == tracked_tag_;
  }
  void set_blackholed(net::NodeId id, bool on);

  /// Self-re-arming Poisson chain: fires `action` with exponential
  /// interarrival gaps of mean 3600/per_hour seconds, forever.
  void arm_poisson(double per_hour, std::function<void()> action);

  /// Plan-event scheduling: global tasks, run with every shard parked.
  void plan_at(sim::SimTime at, std::function<void()> fn);
  void plan_in(sim::SimTime delay, std::function<void()> fn);

  void start_partition();
  void crash_aggregator();
  void fire_pna(bool hang);
  void fire_corruption();

  void emit(obs::TraceEventKind kind, obs::TraceComponent component,
            std::uint64_t actor, std::uint64_t arg);
  void emit_wire(std::size_t shard, obs::TraceEventKind kind,
                 std::uint64_t actor, std::uint64_t arg);

  sim::ShardedSimulation& sharded_;
  FaultOptions options_;
  util::Random rng_;
  util::Random plan_rng_;
  /// One per kernel shard.
  std::vector<WireShard> wire_shards_;

  Hook controller_crash_;
  Hook controller_restart_;
  Hook backend_crash_;
  Hook backend_restart_;
  std::vector<Region> regions_;
  PnaFaultFn pna_fault_;
  std::function<bool()> corrupt_;
  std::function<void()> restore_;

  /// Dense by node id (aggregator nodes are small by construction);
  /// consulted per send only while a partition is active.
  std::vector<char> blackholed_;
  std::size_t active_partitions_ = 0;
  bool started_ = false;

  int tracked_tag_ = -1;

  obs::Counter partitions_started_;
  obs::Counter partitions_healed_;
  obs::Counter controller_crashes_;
  obs::Counter backend_crashes_;
  obs::Counter aggregator_crashes_;
  obs::Counter pna_crashes_;
  obs::Counter pna_hangs_;
  obs::Counter control_corruptions_;

  obs::FlightRecorder* recorder_ = nullptr;
};

}  // namespace oddci::fault
