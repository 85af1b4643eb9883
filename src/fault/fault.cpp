#include "fault/fault.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace oddci::fault {

namespace {

void check_probability(double p, const char* name) {
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument(std::string(name) + " must be in [0, 1]");
  }
}

void check_rate(double r, const char* name) {
  if (r < 0.0) {
    throw std::invalid_argument(std::string(name) + " must be >= 0");
  }
}

void check_positive(sim::SimTime t, const char* name) {
  if (t <= sim::SimTime::zero()) {
    throw std::invalid_argument(std::string(name) + " must be > 0");
  }
}

}  // namespace

void FaultOptions::validate() const {
  check_probability(message_loss, "fault message_loss");
  check_probability(message_duplication, "fault message_duplication");
  check_probability(latency_spike_probability,
                    "fault latency_spike_probability");
  check_rate(partitions_per_hour, "fault partitions_per_hour");
  check_rate(aggregator_crashes_per_hour, "fault aggregator_crashes_per_hour");
  check_rate(pna_crashes_per_hour, "fault pna_crashes_per_hour");
  check_rate(pna_hangs_per_hour, "fault pna_hangs_per_hour");
  check_rate(control_corruptions_per_hour,
             "fault control_corruptions_per_hour");
  if (latency_spike_probability > 0.0) {
    check_positive(latency_spike_mean, "fault latency_spike_mean");
  }
  if (partitions_per_hour > 0.0) {
    check_positive(partition_duration, "fault partition_duration");
  }
  if (aggregator_crashes_per_hour > 0.0) {
    check_positive(aggregator_downtime, "fault aggregator_downtime");
  }
  if (pna_hangs_per_hour > 0.0) {
    check_positive(pna_hang_duration, "fault pna_hang_duration");
  }
  if (control_corruptions_per_hour > 0.0) {
    check_positive(corrupt_exposure, "fault corrupt_exposure");
  }
  if (!controller_crash_at.empty()) {
    check_positive(controller_downtime, "fault controller_downtime");
  }
  if (!backend_crash_at.empty()) {
    check_positive(backend_downtime, "fault backend_downtime");
  }
  check_probability(byzantine_forger_fraction,
                    "fault byzantine_forger_fraction");
  check_probability(byzantine_freerider_fraction,
                    "fault byzantine_freerider_fraction");
  if (byzantine_forger_fraction + byzantine_freerider_fraction > 1.0) {
    throw std::invalid_argument(
        "fault byzantine fractions must sum to <= 1");
  }
  if (byzantine_collusion_size == 1) {
    throw std::invalid_argument(
        "fault byzantine_collusion_size must be 0 or >= 2");
  }
  if (result_retry_limit < 0) {
    throw std::invalid_argument("fault result_retry_limit must be >= 0");
  }
  if (task_retry_cap < 0) {
    throw std::invalid_argument("fault task_retry_cap must be >= 0");
  }
}

FaultInjector::FaultInjector(sim::ShardedSimulation& sharded,
                             const FaultOptions& options, std::uint64_t seed)
    : sharded_(sharded),
      options_(options),
      rng_(seed),
      plan_rng_(rng_.split()),
      wire_shards_(sharded.shard_count()) {
  options_.validate();
  // One verdict stream per shard, split from the wire stream at every K,
  // so one shard's traffic never perturbs another's draws.
  util::Random wire_rng = rng_.split();
  for (std::size_t s = 0; s < wire_shards_.size(); ++s) {
    wire_shards_[s].rng = wire_rng.split();
    wire_shards_[s].sim = &sharded_.shard(s);
  }
}

void FaultInjector::set_controller_hooks(Hook crash, Hook restart) {
  controller_crash_ = std::move(crash);
  controller_restart_ = std::move(restart);
}

void FaultInjector::set_backend_hooks(Hook crash, Hook restart) {
  backend_crash_ = std::move(crash);
  backend_restart_ = std::move(restart);
}

void FaultInjector::add_region(net::NodeId aggregator_node, Hook crash,
                               Hook restart) {
  if (started_) {
    throw std::logic_error("add_region after FaultInjector::start");
  }
  Region region;
  region.node = aggregator_node;
  region.crash = std::move(crash);
  region.restart = std::move(restart);
  regions_.push_back(std::move(region));
}

void FaultInjector::set_pna_fault(PnaFaultFn fn) { pna_fault_ = std::move(fn); }

void FaultInjector::set_shard_recorder(std::size_t shard,
                                       obs::FlightRecorder* recorder) {
  if (shard >= wire_shards_.size()) {
    throw std::out_of_range("FaultInjector: shard recorder index");
  }
  wire_shards_[shard].recorder = recorder;
}

void FaultInjector::plan_at(sim::SimTime at, std::function<void()> fn) {
  // Global tasks run with every shard parked, which is what makes
  // blackholed_/regions_ writes visible to all wire paths.
  sharded_.post_global(0, at, std::move(fn));
}

void FaultInjector::plan_in(sim::SimTime delay, std::function<void()> fn) {
  plan_at(sharded_.now() + delay, std::move(fn));
}

void FaultInjector::set_control_corruptor(std::function<bool()> corrupt,
                                          std::function<void()> restore) {
  corrupt_ = std::move(corrupt);
  restore_ = std::move(restore);
}

void FaultInjector::link_metrics(obs::MetricsRegistry& registry) const {
  // Per-shard wire counters merged at snapshot time (reads happen between
  // windows, so no synchronization).
  registry.link_counter_fn("fault.messages_lost",
                           [this] { return stats().messages_lost; });
  registry.link_counter_fn("fault.messages_duplicated",
                           [this] { return stats().messages_duplicated; });
  registry.link_counter_fn("fault.latency_spikes",
                           [this] { return stats().latency_spikes; });
  registry.link_counter_fn("fault.partition_dropped",
                           [this] { return stats().partition_dropped; });
  registry.link_counter("fault.partitions_started", partitions_started_);
  registry.link_counter("fault.partitions_healed", partitions_healed_);
  registry.link_counter("fault.controller_crashes", controller_crashes_);
  registry.link_counter("fault.backend_crashes", backend_crashes_);
  registry.link_counter("fault.aggregator_crashes", aggregator_crashes_);
  registry.link_counter("fault.pna_crashes", pna_crashes_);
  registry.link_counter("fault.pna_hangs", pna_hangs_);
  registry.link_counter("fault.control_corruptions", control_corruptions_);
}

void FaultInjector::start() {
  if (started_) throw std::logic_error("FaultInjector::start called twice");
  started_ = true;

  for (const sim::SimTime at : options_.controller_crash_at) {
    if (at <= sharded_.now()) continue;
    plan_at(at, [this] {
      if (!controller_crash_) return;
      ++controller_crashes_;
      emit(obs::TraceEventKind::kFaultCrash, obs::TraceComponent::kController,
           0, 0);
      controller_crash_();
      plan_in(options_.controller_downtime, [this] {
        emit(obs::TraceEventKind::kFaultRestart,
             obs::TraceComponent::kController, 0, 0);
        controller_restart_();
      });
    });
  }
  for (const sim::SimTime at : options_.backend_crash_at) {
    if (at <= sharded_.now()) continue;
    plan_at(at, [this] {
      if (!backend_crash_) return;
      ++backend_crashes_;
      emit(obs::TraceEventKind::kFaultCrash, obs::TraceComponent::kBackend, 0,
           0);
      backend_crash_();
      plan_in(options_.backend_downtime, [this] {
        emit(obs::TraceEventKind::kFaultRestart,
             obs::TraceComponent::kBackend, 0, 0);
        backend_restart_();
      });
    });
  }

  arm_poisson(options_.partitions_per_hour, [this] { start_partition(); });
  arm_poisson(options_.aggregator_crashes_per_hour,
              [this] { crash_aggregator(); });
  arm_poisson(options_.pna_crashes_per_hour, [this] { fire_pna(false); });
  arm_poisson(options_.pna_hangs_per_hour, [this] { fire_pna(true); });
  arm_poisson(options_.control_corruptions_per_hour,
              [this] { fire_corruption(); });
}

void FaultInjector::arm_poisson(double per_hour, std::function<void()> action) {
  if (per_hour <= 0.0) return;
  const double gap_s = plan_rng_.exponential(3600.0 / per_hour);
  plan_in(sim::SimTime::from_seconds(gap_s),
          [this, per_hour, action = std::move(action)]() mutable {
            action();
            arm_poisson(per_hour, std::move(action));
          });
}

void FaultInjector::set_blackholed(net::NodeId id, bool on) {
  if (id >= blackholed_.size()) blackholed_.resize(id + 1, 0);
  blackholed_[id] = on ? 1 : 0;
}

void FaultInjector::start_partition() {
  // Deterministic victim pick among regions that are neither already cut
  // off nor down (a crashed aggregator's region has nothing to black-hole).
  std::vector<std::size_t> candidates;
  candidates.reserve(regions_.size());
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    if (!regions_[i].partitioned && !regions_[i].crashed) candidates.push_back(i);
  }
  if (candidates.empty()) return;
  const std::size_t index = candidates[static_cast<std::size_t>(
      plan_rng_.uniform_u64(candidates.size()))];
  Region& region = regions_[index];
  region.partitioned = true;
  set_blackholed(region.node, true);
  ++active_partitions_;
  ++partitions_started_;
  emit(obs::TraceEventKind::kFaultPartitionStart, obs::TraceComponent::kNetwork,
       index, region.node);
  plan_in(options_.partition_duration, [this, index] {
    Region& healed = regions_[index];
    healed.partitioned = false;
    set_blackholed(healed.node, false);
    --active_partitions_;
    ++partitions_healed_;
    emit(obs::TraceEventKind::kFaultPartitionEnd,
         obs::TraceComponent::kNetwork, index, healed.node);
  });
}

void FaultInjector::crash_aggregator() {
  std::vector<std::size_t> candidates;
  candidates.reserve(regions_.size());
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    if (!regions_[i].crashed) candidates.push_back(i);
  }
  if (candidates.empty()) return;
  const std::size_t index = candidates[static_cast<std::size_t>(
      plan_rng_.uniform_u64(candidates.size()))];
  Region& region = regions_[index];
  region.crashed = true;
  if (region.crash) region.crash();
  ++aggregator_crashes_;
  emit(obs::TraceEventKind::kFaultCrash, obs::TraceComponent::kAggregator,
       index, region.node);
  plan_in(options_.aggregator_downtime, [this, index] {
    Region& revived = regions_[index];
    revived.crashed = false;
    if (revived.restart) revived.restart();
    emit(obs::TraceEventKind::kFaultRestart, obs::TraceComponent::kAggregator,
         index, revived.node);
  });
}

void FaultInjector::fire_pna(bool hang) {
  if (!pna_fault_) return;
  const std::uint64_t pick = plan_rng_.engine().next();
  if (!pna_fault_(pick, hang, options_.pna_hang_duration)) return;
  if (hang) {
    ++pna_hangs_;
    emit(obs::TraceEventKind::kFaultPnaHang, obs::TraceComponent::kPna, pick,
         static_cast<std::uint64_t>(options_.pna_hang_duration.micros()));
  } else {
    ++pna_crashes_;
    emit(obs::TraceEventKind::kFaultCrash, obs::TraceComponent::kPna, pick, 0);
  }
}

void FaultInjector::fire_corruption() {
  if (!corrupt_ || !corrupt_()) return;
  ++control_corruptions_;
  emit(obs::TraceEventKind::kFaultControlCorrupted,
       obs::TraceComponent::kController, 0, 0);
  plan_in(options_.corrupt_exposure, [this] {
    if (restore_) restore_();
  });
}

FaultInjector::Stats FaultInjector::stats() const {
  Stats s;
  for (const WireShard& wire : wire_shards_) {
    s.messages_lost += wire.lost;
    s.messages_duplicated += wire.duplicated;
    s.latency_spikes += wire.spikes;
    s.partition_dropped += wire.partition_dropped;
    s.tracked_lost += wire.tracked_lost;
    s.tracked_duplicated += wire.tracked_duplicated;
  }
  s.partitions_started = partitions_started_.value();
  s.partitions_healed = partitions_healed_.value();
  s.controller_crashes = controller_crashes_.value();
  s.backend_crashes = backend_crashes_.value();
  s.aggregator_crashes = aggregator_crashes_.value();
  s.pna_crashes = pna_crashes_.value();
  s.pna_hangs = pna_hangs_.value();
  s.control_corruptions = control_corruptions_.value();
  return s;
}

net::SendInterposer::Action FaultInjector::on_send(
    net::NodeId from, net::NodeId to, const net::Message& message,
    std::size_t src_shard) {
  // Every mutable touch — RNG draws, counters, trace emission, even the
  // clock read — belongs to the source shard; blackholed_ and
  // active_partitions_ are only *read* here (they mutate exclusively in
  // plan events, with every shard parked).
  Action action;
  WireShard& wire = wire_shards_[src_shard];
  // A partitioned region is a hard black hole: nothing in or out. This
  // draws nothing from the wire stream, so healing a partition rejoins the
  // deterministic per-message draw sequence unchanged.
  if (active_partitions_ != 0 && (blackholed(from) || blackholed(to))) {
    action.drop = true;
    ++wire.partition_dropped;
    if (tracked(message)) ++wire.tracked_lost;
    emit_wire(src_shard, obs::TraceEventKind::kFaultMessageLost, to,
              static_cast<std::uint64_t>(message.tag()));
    return action;
  }
  // One fixed draw order per message; a lost message short-circuits so the
  // duplication/spike draws stay aligned across replays.
  if (options_.message_loss > 0.0 &&
      wire.rng.bernoulli(options_.message_loss)) {
    action.drop = true;
    ++wire.lost;
    if (tracked(message)) ++wire.tracked_lost;
    emit_wire(src_shard, obs::TraceEventKind::kFaultMessageLost, to,
              static_cast<std::uint64_t>(message.tag()));
    return action;
  }
  if (options_.message_duplication > 0.0 &&
      wire.rng.bernoulli(options_.message_duplication)) {
    action.duplicate = true;
    ++wire.duplicated;
    if (tracked(message)) ++wire.tracked_duplicated;
    emit_wire(src_shard, obs::TraceEventKind::kFaultMessageDuplicated, to,
              static_cast<std::uint64_t>(message.tag()));
  }
  if (options_.latency_spike_probability > 0.0 &&
      wire.rng.bernoulli(options_.latency_spike_probability)) {
    action.extra_latency = sim::SimTime::from_seconds(
        wire.rng.exponential(options_.latency_spike_mean.seconds()));
    ++wire.spikes;
    emit_wire(src_shard, obs::TraceEventKind::kFaultLatencySpike, to,
              static_cast<std::uint64_t>(action.extra_latency.micros()));
  }
  return action;
}

void FaultInjector::emit(obs::TraceEventKind kind,
                         obs::TraceComponent component, std::uint64_t actor,
                         std::uint64_t arg) {
  if (recorder_ == nullptr) return;
  recorder_->emit(sharded_.now(), kind, component, {}, actor, arg);
}

void FaultInjector::emit_wire(std::size_t shard, obs::TraceEventKind kind,
                              std::uint64_t actor, std::uint64_t arg) {
  WireShard& wire = wire_shards_[shard];
  if (wire.recorder == nullptr) return;
  wire.recorder->emit(wire.sim->now(), kind, obs::TraceComponent::kNetwork,
                      {}, actor, arg);
}

}  // namespace oddci::fault
