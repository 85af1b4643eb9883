#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "broadcast/channel.hpp"
#include "control/policy.hpp"
#include "core/content_store.hpp"
#include "core/messages.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/simulation.hpp"

/// The OddCI Controller.
///
/// As instructed by the Provider, the Controller sets up instances by
/// formatting and sending control messages — including software images —
/// through the broadcast channel, and maintains them afterwards:
///  * consolidates heartbeats into per-PNA and per-instance state,
///  * trims oversized instances by answering heartbeats with unicast
///    resets,
///  * recomposes instances that lost members (receivers switched off) by
///    retransmitting wakeup messages with a recomputed probability,
///  * reports size changes to the Provider.
namespace oddci::core {

struct InstanceSpec {
  std::string name;
  std::size_t target_size = 0;
  util::Bits image_size;
  Requirements requirements;
  sim::SimTime heartbeat_interval = sim::SimTime::from_seconds(30);
  /// Idle-PNA handling probability for the first wakeup. Unset (the
  /// default) lets the decision engine pick one from the idle-pool
  /// estimate; a set value must lie in (0, 1].
  std::optional<double> initial_probability;
};

struct InstanceStatus {
  InstanceId id = kNoInstance;
  std::string name;
  bool active = false;
  std::size_t target_size = 0;
  std::size_t current_size = 0;
  sim::SimTime created_at;
  /// First time current_size reached target_size (instantiation latency).
  std::optional<sim::SimTime> reached_target_at;
  std::uint64_t wakeups_broadcast = 0;
  std::uint64_t unicast_resets = 0;
};

struct ControllerOptions {
  /// Control-loop policy: engine selection, maintenance cadence, staleness
  /// window, overshoot margin, Phi-driven admission and the per-engine
  /// knobs. Populated from SystemConfig::control.
  control::PolicyOptions policy;

  /// Size of the PNA Xlet staged on the carousel.
  util::Bits pna_xlet_size = util::Bits::from_kilobytes(64);
  /// Heartbeat interval announced in the deployment hello (agents adopt
  /// per-instance intervals from later wakeups).
  sim::SimTime default_heartbeat = sim::SimTime::from_seconds(30);
  /// Carousel file names.
  std::string pna_file = "pna.xlet";
  std::string config_file = "oddci.config";
  /// AIT identity of the PNA trigger application.
  std::uint32_t pna_application_id = 0x4F44;  // "OD"
  std::string pna_application_name = "oddci-pna";
  /// Aggregator failover: an aggregator that has reported at least once
  /// but then stays silent this long is voided from the heartbeat routing
  /// (its PNAs re-home to the Controller) until it reports again. Zero
  /// disables failover (the pre-fault-injection behaviour).
  sim::SimTime aggregator_timeout = sim::SimTime::zero();
  /// Report encoding expected from the aggregation tier. kDelta switches
  /// the Controller to incremental membership: epoch-stamped delta frames
  /// are applied as they arrive, the monitor tick stops scanning the PNA
  /// slab, and staleness pruning is delegated to aggregator-side expiry
  /// (direct reporters — failover fallback — keep a windowed prune).
  HeartbeatMode heartbeat_mode = HeartbeatMode::kNaive;
};

class Controller final : public net::Endpoint {
 public:
  Controller(sim::Simulation& simulation, net::Network& network,
             broadcast::BroadcastMedium& channel, ContentStore& store,
             broadcast::SigningKey key, const net::LinkSpec& link,
             ControllerOptions options = {});

  /// Multi-channel variant (Section 4.3: "multiple channels to distribute
  /// the trigger application increases the potential number of receivers
  /// connected, with a direct impact on the maximum size of the OddCI-DTV
  /// systems that can be instantiated"). Control messages and images are
  /// staged on every channel; receivers join from whichever channel they
  /// are tuned to.
  Controller(sim::Simulation& simulation, net::Network& network,
             std::vector<broadcast::BroadcastMedium*> channels,
             ContentStore& store, broadcast::SigningKey key,
             const net::LinkSpec& link, ControllerOptions options = {});
  ~Controller() override;

  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  [[nodiscard]] net::NodeId node_id() const { return node_id_; }
  [[nodiscard]] broadcast::SigningKey signing_key() const { return key_; }
  [[nodiscard]] sim::Simulation& simulation() const { return simulation_; }

  /// Size the PNA directory once for ids below `id_bound` (node ids are
  /// contiguous, so the network's endpoint count bounds them); without it
  /// the table grows by doubling as higher ids are heard.
  void reserve_pnas(std::size_t id_bound) { pna_dense_.reserve(id_bound); }

  /// Route PNA heartbeats through an aggregation tier: the node list is
  /// included in every subsequent control message, and each agent reports
  /// to aggregators[pna_id % size]. Must be called before deploy_pna() so
  /// the deployment hello already carries the routing. Pass an empty
  /// vector for direct reporting (the default).
  void set_aggregators(std::vector<net::NodeId> aggregators);

  /// Stage the PNA trigger application (AUTOSTART) on the carousel and
  /// start the maintenance loop. Must be called once before instances are
  /// created. A first signed "no-op" reset control message accompanies it
  /// so agents learn the Controller's address and begin heartbeating.
  void deploy_pna();

  [[nodiscard]] bool deployed() const { return deployed_; }

  /// Create an instance: stages image + wakeup config on the carousel and
  /// commits. Returns the new instance id. `parent` is the causal trace
  /// context of the Provider request that asked for the instance.
  InstanceId create_instance(const InstanceSpec& spec,
                             net::NodeId backend_node,
                             obs::TraceContext parent = {});

  /// Broadcast reset for the instance and drop its image from the carousel.
  void destroy_instance(InstanceId id);

  /// Change the target size; the maintenance loop grows/trims toward it.
  void resize_instance(InstanceId id, std::size_t new_target);

  /// Enable/disable recruiting for an instance. Disabling stops wakeup
  /// retransmissions (recomposition) AND replaces the on-air wakeup with a
  /// neutral control message, so returning receivers no longer join; the
  /// maintenance loop keeps pruning and trimming. Used to quiesce an
  /// instance and by the churn ablation.
  void set_recruiting(InstanceId id, bool recruiting);

  [[nodiscard]] const InstanceStatus* status(InstanceId id) const;
  [[nodiscard]] std::vector<InstanceStatus> all_statuses() const;

  /// PNAs that reported idle within the staleness window.
  [[nodiscard]] std::size_t idle_pool_estimate() const;
  /// All PNAs heard from within the staleness window.
  [[nodiscard]] std::size_t known_pna_count() const;

  /// PNAs whose most recent report was idle, maintained incrementally on
  /// state transitions (no staleness window, O(1)). This is the sampler's
  /// idle-pool probe; control decisions keep using the exact windowed
  /// idle_pool_estimate().
  [[nodiscard]] std::size_t idle_known() const { return idle_known_; }
  /// Confirmed members across all instances, maintained incrementally.
  [[nodiscard]] std::size_t total_member_count() const {
    return members_total_;
  }

  using SizeCallback =
      std::function<void(InstanceId, std::size_t current, std::size_t target)>;
  /// Invoked on every instance-membership change (Provider consumption).
  void set_size_callback(SizeCallback callback);

  /// Point-in-time view of the control-plane counters.
  struct Stats {
    std::uint64_t heartbeats_received = 0;
    std::uint64_t aggregate_reports_received = 0;
    std::uint64_t wakeup_broadcasts = 0;
    std::uint64_t reset_broadcasts = 0;
    std::uint64_t unicast_resets = 0;
    std::uint64_t recompositions = 0;
    std::uint64_t members_pruned = 0;
  };
  [[nodiscard]] Stats stats() const {
    return Stats{heartbeats_received_.value(),
                 aggregate_reports_received_.value(),
                 wakeup_broadcasts_.value(),
                 reset_broadcasts_.value(),
                 unicast_resets_.value(),
                 recompositions_.value(),
                 members_pruned_.value()};
  }
  /// Silent aggregators voided from the heartbeat routing / voided slots
  /// restored by a resumed report (aggregator_timeout > 0 only).
  [[nodiscard]] std::uint64_t aggregator_failovers() const {
    return aggregator_failovers_.value();
  }
  [[nodiscard]] std::uint64_t aggregator_restores() const {
    return aggregator_restores_.value();
  }

  /// Delta-mode protocol counters (all zero in naive mode).
  struct DeltaStats {
    std::uint64_t frames_received = 0;
    std::uint64_t entries_applied = 0;
    std::uint64_t expires_applied = 0;
    std::uint64_t resyncs_applied = 0;
    std::uint64_t gaps_detected = 0;
    std::uint64_t frames_skipped = 0;    ///< out-of-sync deltas discarded
    std::uint64_t resync_requests = 0;
    std::uint64_t checksum_failures = 0;
  };
  [[nodiscard]] DeltaStats delta_stats() const {
    return DeltaStats{delta_frames_received_.value(),
                      delta_entries_applied_.value(),
                      delta_expires_applied_.value(),
                      delta_resyncs_.value(),
                      delta_gaps_.value(),
                      delta_frames_skipped_.value(),
                      delta_resync_requests_.value(),
                      delta_checksum_failures_.value()};
  }

  /// Bytes of aggregate-report payload ingested (naive reports, delta
  /// frames, relay batches) — the O(changes)-vs-O(members) comparison the
  /// fan-out bench records.
  [[nodiscard]] std::uint64_t report_bytes_ingested() const {
    return report_bytes_ingested_.value();
  }

  /// Σ instance members across all instances, recomputed from the actual
  /// membership sets — the HealthAuditor compares this against the
  /// incrementally maintained total_member_count() to prove delta
  /// application reconstructed the view exactly.
  [[nodiscard]] std::size_t membership_view_count() const {
    std::size_t n = 0;
    for (const auto& [id, inst] : instances_) n += inst.members.size();
    return n;
  }

  /// Wall-clock seconds spent inside monitor_tick() so far (host time;
  /// never enters simulation state — bench telemetry only).
  [[nodiscard]] double monitor_wall_seconds() const {
    return monitor_wall_seconds_;
  }

  /// Join latency: wakeup broadcast -> confirmed member, per join.
  [[nodiscard]] const obs::LogHistogram& join_latency() const {
    return join_latency_;
  }

  /// Expose the control-plane counters, the join-latency histogram and the
  /// O(1) population probes under "controller.*" in `registry`. The
  /// controller must outlive any snapshot() call.
  void link_metrics(obs::MetricsRegistry& registry) const;

  /// The decision engine driving probability, trim and admission policy.
  [[nodiscard]] control::DecisionEngine& engine() { return *engine_; }
  [[nodiscard]] const control::DecisionEngine& engine() const {
    return *engine_;
  }
  /// The effective (alias-resolved, validated) policy options.
  [[nodiscard]] const control::PolicyOptions& policy() const {
    return options_.policy;
  }

  /// Attach a tracer: records an "instance.form" span per instance
  /// (wakeup broadcast -> target size reached). nullptr detaches.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Attach a flight recorder: every control-plane hop (format, member
  /// join, prune, trim, ready) is emitted as a causally linked trace
  /// event, and outgoing control messages carry the context on the wire.
  /// nullptr detaches.
  void set_flight_recorder(obs::FlightRecorder* recorder) {
    recorder_ = recorder;
  }

  /// The instance's root control trace context (zero if unknown or when
  /// no recorder is attached). The Backend chains task dispatch off this.
  [[nodiscard]] obs::TraceContext trace_context(InstanceId id) const;

  /// Fault injection: drop off the network and lose all in-flight state —
  /// the PNA directory and every instance's membership view. What a real
  /// Controller keeps in stable storage survives: instance specs, staged
  /// carousel content, the signing key, and the aggregator configuration.
  /// On restart() the membership view is rebuilt purely from resumed
  /// heartbeats (the paper's consolidation loop doubling as crash
  /// recovery).
  void crash();
  void restart();
  [[nodiscard]] bool crashed() const { return crashed_; }

  /// Fault injection: replace the on-air control message with a tampered
  /// copy (stale signature -> every receiver's verification fails; the
  /// VerifyCache memoizes the rejection under the tampered digest, so the
  /// legitimate generation's cache entry is never poisoned). Returns false
  /// when nothing is on air or a corruption is already active.
  bool corrupt_on_air_control();
  /// Put the legitimate on-air generation back.
  void restore_on_air_control();

  // --- net::Endpoint -------------------------------------------------------
  void on_message(net::NodeId from, const net::MessagePtr& message) override;

 private:
  /// Delta mode: PnaRecord::origin value for direct reporters (failover
  /// fallback path) and for records no aggregator has claimed.
  static constexpr std::uint32_t kDirectOrigin = 0xFFFFFFFFu;

  struct PnaRecord {
    PnaState state = PnaState::kIdle;
    /// A slot exists for every id below the highest one heard; only
    /// slots that actually reported are real records.
    bool known = false;
    /// Delta mode: a trim reset was just sent; one in-flight busy report
    /// (emitted by the aggregator before it learned of the reset) may
    /// still arrive and must not re-add the member.
    bool suppress_busy = false;
    /// Delta mode: already listed in direct_ids_ (dedup for the direct
    /// reporters' staleness walk).
    bool direct_listed = false;
    InstanceId instance = kNoInstance;
    sim::SimTime last_seen;
    /// Delta mode: the aggregator slice this record belongs to
    /// (kDirectOrigin = heard directly).
    std::uint32_t origin = kDirectOrigin;
    /// Delta mode: stamp of the last resync that listed this record
    /// (mark-and-sweep slice replacement).
    std::uint32_t resync_mark = 0;
  };
  static_assert(sizeof(PnaRecord) == 32, "PNA record is half a line");

  /// Record for `id`, creating it if unseen. second = newly created.
  std::pair<PnaRecord&, bool> ensure_pna(std::uint64_t id);
  [[nodiscard]] const PnaRecord* find_pna(std::uint64_t id) const;
  /// Walk every known record, in id order.
  template <typename Fn>
  void for_each_pna(Fn&& fn) const {
    for (const PnaRecord& rec : pna_dense_) {
      if (rec.known) fn(rec);
    }
  }

  struct Instance {
    InstanceStatus status;
    InstanceSpec spec;
    ImageSpec image;
    net::NodeId backend_node = net::kInvalidNode;
    /// PNAs executing the instance's image (the instance's actual size).
    std::unordered_set<std::uint64_t> members;
    /// PNAs that accepted the wakeup and are still loading the image;
    /// counted against the recruitment deficit but not as members.
    std::unordered_set<std::uint64_t> joining;
    /// Members we still owe a unicast reset (trimming).
    std::size_t pending_trims = 0;
    /// Members the most recent maintenance tick pruned (churn signal for
    /// the decision engine's observation).
    std::size_t pruned_last_tick = 0;
    /// Delta mode: expiry-driven member removals since the last tick
    /// (they arrive as messages between ticks; the tick rolls them into
    /// pruned_last_tick so the engine's churn signal keeps its meaning).
    std::size_t pruned_since_tick = 0;
    bool recruiting = true;
    /// Last wakeup broadcast, for recomposition rate-limiting: a retransmit
    /// sooner than the expected acquisition time would bump the carousel
    /// config version before slow receivers finish reading it.
    sim::SimTime last_wakeup_at;
    /// Context of the instance's initial control.format event; later
    /// lifecycle events (ready, prune, recomposition) chain off it.
    obs::TraceContext trace;
  };

  /// Signs and airs `message`; the returned context is that of the
  /// control.format trace event (zero when no recorder is attached).
  /// `message.trace` is read as the causal parent and overwritten with
  /// the new context before the message hits the carousel.
  obs::TraceContext broadcast_control(const ControlMessage& message);
  void stage_and_commit();
  void monitor_tick();
  /// Phase 1 of the maintenance tick: drop members/joiners whose
  /// heartbeats fell outside the staleness window. Runs for every active
  /// instance before any policy decision so the engine never observes a
  /// stale membership snapshot.
  void prune_instance(InstanceId id, Instance& inst);
  void note_member_change(Instance& instance);
  /// Telemetry snapshot handed to the decision engine. `idle_pool` is the
  /// caller's windowed estimate (scanning is the recruitment path's cost;
  /// trim-side observations pass 0).
  [[nodiscard]] control::ControlObservation observe(
      InstanceId id, const Instance& inst, std::size_t idle_pool) const;
  [[nodiscard]] sim::SimTime staleness_horizon(const Instance& inst) const;
  PnaRecord& handle_status(std::uint64_t pna_id, PnaState state,
                           InstanceId instance, net::NodeId reply_to,
                           obs::TraceContext trace = {});
  /// A consolidated report arrived from `from`: refresh its liveness and
  /// restore it into the routing if it had been failed over.
  void note_aggregator_alive(net::NodeId from);
  /// Same, keyed by tier index (delta frames carry their origin, so
  /// liveness survives relays re-sending them from another node id).
  void note_origin_alive(std::size_t origin);

  // --- delta-mode incremental membership -----------------------------------
  struct OriginState {
    std::uint32_t expected_epoch = 0;  ///< epoch the next delta must carry
    bool synced = false;               ///< false until a resync is applied
    bool resync_requested = false;     ///< outstanding downstream request
    /// Ids attributed to this origin (lazily compacted; rebuilt from each
    /// resync frame).
    std::vector<std::uint64_t> ids;
  };
  void apply_delta_frame(const DeltaReportMessage& frame);
  void apply_delta_entry(std::uint32_t origin,
                         const DeltaReportMessage::Entry& entry,
                         bool in_resync);
  /// Forget a record entirely: membership, idle mirror, directory slot.
  void remove_record(std::uint64_t pna_id);
  /// Ask an out-of-sync origin for a full frame on its next flush (sent at
  /// most once per desync period).
  void request_resync(std::uint32_t origin, OriginState& os);
  /// Delta mode's phase-1 staleness pass: only direct reporters need a
  /// windowed scan (aggregator-covered members are expired upstream).
  void prune_direct();
  /// Delta mode's trimming: the Controller only hears *changes*, so
  /// steady-state members never re-report and trim-on-heartbeat would
  /// starve; resets go out by unicast to chosen members immediately.
  void trim_direct(Instance& inst, std::size_t count);
  /// Idle-pool feed for recruitment decisions: the windowed O(population)
  /// scan in naive mode, the O(1) incremental mirror in delta mode (kept
  /// fresh by aggregator expiries + the direct prune).
  [[nodiscard]] std::size_t recruitment_idle_pool() const;
  [[nodiscard]] PnaRecord* find_pna_mutable(std::uint64_t id);
  void monitor_tick_impl();
  /// Re-air the deployment hello so PNAs pick up the current (possibly
  /// failover-voided) aggregator routing.
  void rebroadcast_routing();

  sim::Simulation& simulation_;
  net::Network& network_;
  std::vector<broadcast::BroadcastMedium*> channels_;
  ContentStore& store_;
  broadcast::SigningKey key_;
  ControllerOptions options_;
  /// Policy decisions delegated behind the DecisionEngine interface
  /// (selected by options_.policy.engine; StaticPolicy by default).
  std::unique_ptr<control::DecisionEngine> engine_;
  net::NodeId node_id_ = net::kInvalidNode;

  bool deployed_ = false;
  bool crashed_ = false;
  /// Live routing, stamped into every outgoing control message; a slot is
  /// kInvalidNode while its aggregator is failed over (PNAs mapping to it
  /// fall back to the Controller).
  std::vector<net::NodeId> aggregators_;
  /// The configured tier, immutable after set_aggregators (restore source).
  std::vector<net::NodeId> aggregator_nodes_;
  std::vector<sim::SimTime> aggregator_last_seen_;
  /// Failover only triggers for aggregators heard from at least once, so a
  /// quiet warmup can't void the whole tier.
  std::vector<bool> aggregator_reported_;
  /// Content id of the tampered control payload while a corruption is on
  /// air (0 = none).
  std::uint64_t corrupted_content_ = 0;
  std::uint64_t last_config_content_ = 0;
  InstanceId next_instance_ = 1;
  std::uint64_t next_image_ = 1;
  std::unordered_map<InstanceId, Instance> instances_;
  /// PNA directory, a flat table indexed by PNA id. Ids are node ids,
  /// which the network hands out contiguously, so the table never grows
  /// past the population — 32 bytes per agent, no hash node per agent.
  std::vector<PnaRecord> pna_dense_;
  std::size_t pnas_known_ = 0;
  /// Default staleness window for idle-pool estimation (set from the most
  /// recent instance's heartbeat interval; falls back to 30 s).
  sim::SimTime default_heartbeat_ = sim::SimTime::from_seconds(30);

  sim::PeriodicTask monitor_;
  bool monitor_running_ = false;
  SizeCallback size_callback_;

  // Control-plane metric cells (see stats()/link_metrics()).
  obs::Counter heartbeats_received_;
  obs::Counter aggregate_reports_received_;
  obs::Counter wakeup_broadcasts_;
  obs::Counter reset_broadcasts_;
  obs::Counter unicast_resets_;
  obs::Counter recompositions_;
  obs::Counter members_pruned_;
  obs::Counter aggregator_failovers_;
  obs::Counter aggregator_restores_;
  // Delta-mode cells (registered only when heartbeat_mode == kDelta).
  obs::Counter delta_frames_received_;
  obs::Counter delta_entries_applied_;
  obs::Counter delta_expires_applied_;
  obs::Counter delta_resyncs_;
  obs::Counter delta_gaps_;
  obs::Counter delta_frames_skipped_;
  obs::Counter delta_resync_requests_;
  obs::Counter delta_checksum_failures_;
  /// Registered in both modes: the naive-vs-delta ingest comparison.
  obs::Counter report_bytes_ingested_;
  /// Per-origin delta protocol state and the direct reporters' worklist.
  std::vector<OriginState> origins_;
  std::vector<std::uint64_t> direct_ids_;
  std::uint32_t resync_mark_counter_ = 0;
  double monitor_wall_seconds_ = 0.0;
  obs::LogHistogram join_latency_{1e-3};
  /// Incremental mirrors of the membership maps (O(1) sampler probes).
  std::size_t idle_known_ = 0;
  std::size_t members_total_ = 0;
  obs::Tracer* tracer_ = nullptr;
  obs::FlightRecorder* recorder_ = nullptr;
};

}  // namespace oddci::core
