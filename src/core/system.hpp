#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "broadcast/channel.hpp"
#include "broadcast/multicast.hpp"
#include "core/aggregator.hpp"
#include "core/backend.hpp"
#include "core/churn.hpp"
#include "core/content_store.hpp"
#include "core/controller.hpp"
#include "core/pna.hpp"
#include "core/provider.hpp"
#include "core/verify.hpp"
#include "dtv/receiver.hpp"
#include "fault/fault.hpp"
#include "net/network.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "sim/sharded.hpp"
#include "sim/simulation.hpp"
#include "workload/job.hpp"

/// End-to-end OddCI-DTV system harness: wires the simulation kernel, the
/// broadcast channel, a population of receivers running the PNA trigger
/// application, and the Provider/Controller/Backend trio. This is the
/// public entry point the examples and the benchmark harnesses use.
namespace oddci::core {

/// Which one-to-many substrate carries the PNA and images (Section 3.3).
enum class BroadcastTechnology {
  kDtvCarousel,   ///< DSM-CC object carousel on a DTV transport stream
  kIpMulticast,   ///< block-coded IP multicast sessions (OddCI-IPTV)
};

struct SystemConfig {
  std::size_t receivers = 1000;
  BroadcastTechnology technology = BroadcastTechnology::kDtvCarousel;
  /// Parameters of the multicast delivery (kIpMulticast only).
  broadcast::MulticastOptions multicast;
  /// Number of broadcast (TV) channels carrying the PNA (Section 4.3:
  /// more channels reach more receivers). Receivers are spread uniformly
  /// across channels; the Controller stages control messages on all.
  std::size_t channels = 1;
  /// Unused broadcast capacity available to the carousel (the paper's beta),
  /// per channel.
  util::BitRate beta = util::BitRate::from_mbps(1.0);
  /// Per-section broadcast loss probability (0 = clean channel); lost
  /// sections are recovered on later carousel cycles.
  double section_loss = 0.0;
  /// Per-receiver direct-channel capacity, both directions (delta).
  util::BitRate delta = util::BitRate::from_kbps(150.0);
  sim::SimTime receiver_latency = sim::SimTime::from_millis(50);
  /// Controller/Backend access capacity (well provisioned by assumption).
  util::BitRate server_capacity = util::BitRate::from_mbps(10000.0);
  sim::SimTime server_latency = sim::SimTime::from_millis(5);

  dtv::DeviceProfile profile = dtv::DeviceProfile::reference_stb();
  dtv::PowerMode initial_power = dtv::PowerMode::kStandby;
  /// Fraction of receivers tuned to the OddCI channel (the rest never see
  /// the carousel).
  double tuned_fraction = 1.0;

  /// Control-plane knobs, passed to the Controller verbatim: the heartbeat
  /// cadence (`controller.default_heartbeat`), the PNA Xlet size
  /// (`controller.pna_xlet_size`) and the PNA's AIT identity
  /// (`controller.pna_application_id`). The maintenance-loop interval,
  /// staleness window and overshoot margin are policy knobs and live in
  /// `control` below.
  ControllerOptions controller;
  /// Control-loop policy: which DecisionEngine drives wakeup probability,
  /// trimming and Phi-driven job admission, plus its knobs (see
  /// control::PolicyOptions). The default StaticPolicy reproduces the
  /// pre-engine Controller bit for bit. A policy seed of 0 is replaced by
  /// a named stream derived from `seed` (util::stream_seed), so an
  /// RNG-drawing engine never perturbs population seeding.
  control::PolicyOptions control;
  sim::SimTime task_poll_interval = sim::SimTime::from_seconds(10);
  sim::SimTime task_timeout = sim::SimTime::zero();
  sim::SimTime table_repetition = sim::SimTime::from_millis(500);
  /// Settling time between PNA deployment and the first instance request in
  /// run_job(): lets the agent population launch and heartbeat so the
  /// Controller's idle-pool estimate is populated (the paper's steady-state
  /// assumption — processing nodes are switched on and reporting before an
  /// instance is requested).
  sim::SimTime warmup = sim::SimTime::from_seconds(90);

  /// Heartbeat-aggregation tier: number of regional aggregators (0 = PNAs
  /// report straight to the Controller). See core/aggregator.hpp.
  std::size_t aggregators = 0;
  sim::SimTime aggregator_report_interval = sim::SimTime::from_seconds(10);

  /// Return-channel encoding and pacing: the O(changes) heartbeat path.
  /// Everything here defaults off, leaving the naive O(receivers) tree
  /// event-trajectory-identical to prior versions.
  struct HeartbeatOptions {
    /// Report encoding between the aggregation tier and the Controller.
    /// kDelta keeps per-aggregator membership ledgers and ships only
    /// joins/leaves/expiries plus periodic checksummed resyncs; the
    /// Controller applies epoch-stamped frames incrementally instead of
    /// rescanning its PNA directory every monitor tick.
    HeartbeatMode mode = HeartbeatMode::kNaive;
    /// Delta mode: every Nth frame per aggregator is a full resync.
    std::uint32_t resync_every = 30;
    /// Delta mode: aggregator-side silence horizon before a ledger member
    /// is expired with an explicit delta. Zero = auto (default_heartbeat *
    /// the policy's stale_factor — the same horizon naive pruning uses).
    sim::SimTime expiry = sim::SimTime::zero();
    /// Optional relay tier (delta mode only): leaf aggregators per relay.
    /// Relays batch their leaves' frames into one upstream message per
    /// window, so Controller ingress message rate stays flat as the leaf
    /// tier widens. Zero = leaves report straight to the Controller.
    std::size_t tree_fanin = 0;
    /// Pace heartbeats: defer every beat to the agent's deterministic
    /// phase slot within the pacing window (coalescing bursts), and
    /// phase-jitter the aggregators' flush boundaries. Phases come from
    /// dedicated named RNG streams, so unpaced trajectories are unchanged.
    bool paced = false;
    /// Pacing window; zero = auto (min(aggregator_report_interval,
    /// controller.default_heartbeat)).
    sim::SimTime pace_window = sim::SimTime::zero();
  };
  HeartbeatOptions heartbeat;

  /// Constrained return channel: finite bandwidth and bounded queues on
  /// the PNA -> aggregator -> Controller reporting path (deterministic
  /// tail drop past the queue bound). Disabled = the legacy
  /// well-provisioned server links, byte-identical trajectories.
  struct ReturnChannelOptions {
    bool enabled = false;
    /// Aggregator access link (uplink carries reports to the Controller,
    /// downlink absorbs the PNA heartbeat fan-in).
    util::BitRate aggregator_uplink = util::BitRate::from_mbps(2.0);
    util::BitRate aggregator_downlink = util::BitRate::from_mbps(8.0);
    /// Controller ingress capacity for the consolidated reports.
    util::BitRate controller_downlink = util::BitRate::from_mbps(16.0);
    /// Per-direction queue bound, in seconds of committed serialization
    /// backlog; exceeding it tail-drops deterministically.
    sim::SimTime queue_limit = sim::SimTime::from_seconds(2);
  };
  ReturnChannelOptions return_channel;

  std::optional<ChurnOptions> churn;  ///< nullopt = static population
  std::uint64_t seed = 42;

  /// Sharded parallel event kernel: number of worker shards the receiver
  /// population is partitioned across (see sim/sharded.hpp). 1 = one
  /// shard on the calling thread; >1 runs the shards in parallel threads
  /// under a conservative time-window barrier. Deterministic for a fixed
  /// shard count, but a different count yields a different — equally
  /// valid — trajectory (the keyed per-entity draws are the same at every
  /// count). At most sim::ShardedSimulation::kMaxShards.
  std::size_t shards = 1;
  /// Conservative window width for shards > 1. Zero = auto: the minimum
  /// cross-shard delivery latency (receiver vs server propagation delay),
  /// clamped to [1 ms, 5 ms]. With shards > 1, validate() rejects a window
  /// (explicit or auto) wider than that latency: a wider one would clamp
  /// network deliveries to later boundaries.
  sim::SimTime window = sim::SimTime::zero();
  /// The window the kernel runs with: `window`, or the auto width.
  [[nodiscard]] sim::SimTime kernel_window() const;

  /// Observability. Instrumentation counters are always live (they are
  /// plain increments); this controls the registry/sampler/tracer harness.
  struct ObsOptions {
    /// Build the metrics registry, sampler and tracer. Off = run_job
    /// returns an empty MetricsSnapshot and no sampling timers run.
    bool enabled = true;
    /// Sim-time cadence of the series sampler.
    sim::SimTime sample_interval = sim::SimTime::from_seconds(10);
    /// Cap per series; further points are counted as dropped.
    std::size_t max_series_points = 1 << 16;
    /// Completed trace spans retained for export.
    std::size_t max_spans = 4096;
    /// Causal flight recorder: record every protocol hop (request ->
    /// format -> carousel -> receipt -> join -> heartbeat -> dispatch ->
    /// result) as a trace event and carry trace contexts on the wire.
    /// Off by default — the per-hop emit is cheap but not free, and the
    /// acceptance contract is "disabled costs nothing".
    bool trace = false;
    /// Ring capacity of the flight recorder, in events; the oldest events
    /// are overwritten when a run outgrows it.
    std::size_t trace_capacity = 1 << 16;
    /// Kernel wall-clock profiler (see obs/profiler.hpp): per-shard
    /// execute / barrier / drain / global phase attribution exported as
    /// `oddci.profile.v1`. Wall-clock data never reaches the metrics
    /// snapshot or Chrome trace, so seeded exports stay byte-identical
    /// with this on or off. Works with obs.enabled false too (the
    /// profiler needs no registry).
    bool profile = false;
    /// Test hook for the health auditor: under-report this many injected
    /// message losses in the conservation ledger, forcing a seeded
    /// violation (exercises the runner's nonzero-exit path). 0 = honest.
    std::uint64_t health_tamper_lost = 0;
  };
  ObsOptions obs;

  /// Deterministic fault injection and control-plane recovery (see
  /// src/fault/fault.hpp). Disabled by default; with `fault.enabled`
  /// false the system's event trajectory is identical to a build without
  /// the subsystem — no extra rng draws, timers, messages, or metric
  /// cells.
  fault::FaultOptions fault;

  /// Byzantine defense: k-way redundant dispatch with quorum voting,
  /// seeded spot checks, and the reputation ledger (see core/verify.hpp).
  /// Disabled by default; with `verify.enabled` false the Backend never
  /// constructs a Verifier and the dispatch path is byte-identical to the
  /// pre-verification tree.
  VerifyOptions verify;

  void validate() const;
};

/// Metrics of one job executed over one instance.
struct RunResult {
  /// Time from the instance request until the target size was reached (the
  /// measured wakeup overhead W); <0 if the target was never reached.
  double wakeup_seconds = -1.0;
  /// Time from the instance request until the last result arrived; <0 if
  /// the job did not finish before the deadline.
  double makespan_seconds = -1.0;
  bool completed = false;
  /// False when Phi-driven admission (control.min_suitability > 0)
  /// deferred the job: no instance was requested, and every other field
  /// keeps its "never ran" default.
  bool admitted = true;
  JobMetrics job;
  /// Control-plane and traffic counters, read from the Controller's and
  /// the network's stats() at job end. The only copy when
  /// SystemConfig::obs.enabled is false.
  Controller::Stats controller;
  net::NetworkStats network;
  std::size_t final_instance_size = 0;
  /// Full metrics snapshot: counters, gauges, histograms (join/acquire/task
  /// latency), sampled series (instance size, idle pool, heartbeat rate)
  /// and trace spans. Empty when SystemConfig::obs.enabled is false.
  obs::MetricsSnapshot metrics;
  /// Conservation-invariant audit at run end (plus periodic samples during
  /// the run). Empty — trivially ok() — when obs is disabled.
  obs::HealthReport health;

  /// Efficiency per the paper's Eq. (2): E = n * p / (M * N) with p the
  /// per-task time on the member device (pass the *device-scaled* value).
  [[nodiscard]] double efficiency(std::size_t n, double device_task_seconds,
                                  std::size_t node_count) const;
};

class OddciSystem {
 public:
  explicit OddciSystem(const SystemConfig& config);
  ~OddciSystem();

  OddciSystem(const OddciSystem&) = delete;
  OddciSystem& operator=(const OddciSystem&) = delete;

  /// The control shard's kernel (shard 0) — the only shard at K = 1.
  [[nodiscard]] sim::Simulation& simulation() { return sharded_->control(); }
  /// The sharded kernel wrapper (always present; K = 1 delegates through).
  [[nodiscard]] sim::ShardedSimulation& kernel() { return *sharded_; }
  [[nodiscard]] net::Network& network() { return *network_; }
  /// Broadcast medium `i` (the first by default). Throws std::out_of_range
  /// for an invalid index instead of silently returning the front.
  [[nodiscard]] broadcast::BroadcastMedium& channel(std::size_t i = 0);
  [[nodiscard]] const std::vector<std::unique_ptr<broadcast::BroadcastMedium>>&
  channels() const {
    return channels_;
  }
  [[nodiscard]] Controller& controller() { return *controller_; }
  [[nodiscard]] Provider& provider() { return *provider_; }
  [[nodiscard]] Backend& backend() { return *backend_; }
  [[nodiscard]] const std::vector<std::unique_ptr<HeartbeatAggregator>>&
  aggregators() const {
    return aggregators_;
  }
  /// Relay tier (heartbeat.tree_fanin > 0 only; empty otherwise).
  [[nodiscard]] const std::vector<std::unique_ptr<AggregatorRelay>>& relays()
      const {
    return relays_;
  }
  [[nodiscard]] const std::vector<std::unique_ptr<dtv::Receiver>>& receivers()
      const {
    return receivers_;
  }
  [[nodiscard]] const SystemConfig& config() const { return config_; }

  /// Metrics registry holding every instrumented cell of this system;
  /// nullptr when SystemConfig::obs.enabled is false.
  [[nodiscard]] obs::MetricsRegistry* metrics() { return registry_.get(); }
  [[nodiscard]] const obs::MetricsRegistry* metrics() const {
    return registry_.get();
  }
  /// Snapshot of every metric at the current sim time (empty if obs is
  /// disabled).
  [[nodiscard]] obs::MetricsSnapshot metrics_snapshot() const;
  /// The sim-time series sampler; nullptr when obs is disabled.
  [[nodiscard]] obs::Sampler* sampler() { return sampler_.get(); }
  /// The causal flight recorder; nullptr unless SystemConfig::obs.trace.
  /// This is shard 0's ring (control-plane events, and every event of a
  /// single-shard run); use flight_recorders() for the full per-shard set.
  [[nodiscard]] obs::FlightRecorder* flight_recorder() {
    return shards_.front().recorder.get();
  }
  [[nodiscard]] const obs::FlightRecorder* flight_recorder() const {
    return shards_.front().recorder.get();
  }
  /// Every live recorder ring, shard order — merge with
  /// obs::merge_events() for a population-wide chronological export.
  /// Empty unless SystemConfig::obs.trace.
  [[nodiscard]] std::vector<const obs::FlightRecorder*> flight_recorders()
      const;

  /// Kernel wall-clock profiler; nullptr unless SystemConfig::obs.profile.
  [[nodiscard]] obs::KernelProfiler* profiler() { return profiler_.get(); }
  [[nodiscard]] const obs::KernelProfiler* profiler() const {
    return profiler_.get();
  }
  /// Profile snapshot including per-shard kernel event counters. Default
  /// (empty) when no profiler is attached. Call between runs.
  [[nodiscard]] obs::ProfileSnapshot profile_snapshot() const;

  /// Conservation ledger over the current counters (see obs/health.hpp);
  /// the auditor and tests use this.
  [[nodiscard]] obs::HealthLedger health_ledger() const;

  /// Fault injector driving the configured fault plan; nullptr when
  /// SystemConfig::fault.enabled is false.
  [[nodiscard]] fault::FaultInjector* fault_injector() {
    return injector_.get();
  }
  [[nodiscard]] const fault::FaultInjector* fault_injector() const {
    return injector_.get();
  }

  /// Backend-side Byzantine defense; nullptr when
  /// SystemConfig::verify.enabled is false.
  [[nodiscard]] Verifier* verifier() { return verifier_.get(); }
  [[nodiscard]] const Verifier* verifier() const { return verifier_.get(); }

  /// Seeded adversarial-profile table; nullptr unless fault injection is
  /// on with a nonzero byzantine_* knob.
  [[nodiscard]] const fault::ByzantineTable* byzantine_table() const {
    return byz_table_.get();
  }

  /// Number of PNAs currently busy (joined or joining an instance).
  [[nodiscard]] std::size_t busy_pna_count() const;

  /// Convenience: deploy the PNA (if not yet), request an instance of
  /// `instance_size` nodes, submit `job`, run until completion or
  /// `deadline`, and collect the metrics. Leaves the instance dismantled.
  RunResult run_job(const workload::Job& job, std::size_t instance_size,
                    sim::SimTime deadline = sim::SimTime::from_hours(24));

 private:
  /// Everything an agent mutates on the hot path, one block per kernel
  /// shard (a single-shard run has one block). Only the thread running
  /// the shard's window touches it; the registry and the health ledger
  /// merge the blocks between windows. Padded so two shards' cells never
  /// share a cache line.
  struct alignas(64) Shard {
    /// The shard's agents read this environment; its mutable pointers
    /// lead to the cells below.
    PnaEnvironment env;
    obs::PnaCounters counters;
    obs::LogHistogram acquire_latency{1e-3};
    /// PNA recovery parameters and counters (env.recovery points here
    /// when fault injection is enabled).
    PnaEnvironment::Recovery recovery;
    /// The shard's agents verify each broadcast once through this cache,
    /// send heartbeats from this pool and beat on this cadence (on the
    /// shard's kernel).
    broadcast::VerifyCache verify_cache;
    std::unique_ptr<net::MessagePool<HeartbeatMessage>> heartbeat_pool;
    std::unique_ptr<sim::Cadence> heartbeats;
    /// Flight-recorder ring (only with config_.obs.trace), id stream
    /// (s, K) so merged exports keep event ids disjoint.
    std::unique_ptr<obs::FlightRecorder> recorder;
  };

  void wire_observability();
  /// Sum of `read(shard)` over every shard block.
  template <typename F>
  [[nodiscard]] std::uint64_t sum_shards(F read) const;
  /// The PNA hosted by `receiver` under the configured application id;
  /// nullptr when it is powered off or runs no agent.
  [[nodiscard]] PnaXlet* pna_of(dtv::Receiver& receiver) const;
  /// FaultInjector's PNA-fault callback: pick a victim agent (preferring a
  /// busy one so crashes hit in-flight tasks) and crash or hang it.
  bool apply_pna_fault(std::uint64_t pick, bool hang, sim::SimTime duration);

  SystemConfig config_;
  std::unique_ptr<sim::ShardedSimulation> sharded_;
  /// The control shard's kernel — `&sharded_->control()`. Kept as a raw
  /// alias so single-kernel call sites read unchanged.
  sim::Simulation* simulation_ = nullptr;
  std::unique_ptr<net::Network> network_;
  std::vector<std::unique_ptr<broadcast::BroadcastMedium>> channels_;
  std::unique_ptr<ContentStore> store_;
  /// One block per kernel shard, declared before receivers_: agents hold
  /// pointers into these for their whole life. Sized once, never resized.
  std::vector<Shard> shards_;
  std::unique_ptr<Controller> controller_;
  /// Relay tier declared before the leaves: leaves hold its node ids.
  std::vector<std::unique_ptr<AggregatorRelay>> relays_;
  std::vector<std::unique_ptr<HeartbeatAggregator>> aggregators_;
  std::unique_ptr<Provider> provider_;
  /// Byzantine-defense verifier (only with config_.verify.enabled).
  /// Declared before the Backend, which holds a raw pointer into it.
  std::unique_ptr<Verifier> verifier_;
  std::unique_ptr<Backend> backend_;
  /// Fault plan + wire interposer (only with config_.fault.enabled).
  std::unique_ptr<fault::FaultInjector> injector_;
  /// Adversarial PNA profile table (fault.byzantine_* knobs) and the
  /// nullable environment block the agents read it through; both declared
  /// before receivers_, whose agents hold pointers into them.
  std::unique_ptr<fault::ByzantineTable> byz_table_;
  PnaEnvironment::Byzantine byz_block_;
  /// Population-wide Xlet registry (the PNA factory); declared before
  /// receivers_, which point at it.
  dtv::XletRegistry xlets_;
  std::vector<std::unique_ptr<dtv::Receiver>> receivers_;
  /// One churn process per shard, each driving its shard's receivers on
  /// its shard's kernel; declared after receivers_, which they point at.
  std::vector<std::unique_ptr<ChurnProcess>> churn_procs_;
  broadcast::SigningKey key_ = 0;

  // Observability harness (only when config_.obs.enabled). Declared after
  // the components it links so destruction detaches cleanly.
  std::unique_ptr<obs::MetricsRegistry> registry_;
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<obs::Sampler> sampler_;
  /// Wall-clock profiler (obs.profile) and conservation auditor
  /// (obs.enabled); both read-only with respect to the event trajectory.
  std::unique_ptr<obs::KernelProfiler> profiler_;
  std::unique_ptr<obs::HealthAuditor> health_;
  obs::BroadcastCounters broadcast_counters_;
};

}  // namespace oddci::core
