#include "core/system.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>

#include "broadcast/transport_stream.hpp"
#include "util/logging.hpp"

namespace oddci::core {
namespace {

std::string ms(sim::SimTime t) {
  std::ostringstream out;
  out << t.seconds() * 1e3 << " ms";
  return out.str();
}

}  // namespace

void SystemConfig::validate() const {
  if (receivers == 0) {
    throw std::invalid_argument("SystemConfig: need at least one receiver");
  }
  if (channels == 0) {
    throw std::invalid_argument("SystemConfig: need at least one channel");
  }
  if (beta.bps() <= 0.0 || delta.bps() <= 0.0) {
    throw std::invalid_argument("SystemConfig: channel capacities must be > 0");
  }
  if (tuned_fraction < 0.0 || tuned_fraction > 1.0) {
    throw std::invalid_argument("SystemConfig: tuned_fraction out of [0,1]");
  }
  if (initial_power == dtv::PowerMode::kOff && !churn) {
    throw std::invalid_argument(
        "SystemConfig: all receivers off with no churn would deadlock");
  }
  if (shards == 0) {
    throw std::invalid_argument("SystemConfig: shards must be >= 1");
  }
  if (window < sim::SimTime::zero()) {
    throw std::invalid_argument("SystemConfig: window must be >= 0");
  }
  if (shards > 1) {
    // A window wider than the shortest cross-shard wire would hold a
    // network delivery back to a later boundary than its arrival.
    const sim::SimTime wire = std::min(receiver_latency, server_latency);
    if (kernel_window() > wire) {
      throw std::invalid_argument(
          "SystemConfig: window " + ms(kernel_window()) +
          " exceeds the shortest cross-shard wire (receiver_latency " +
          ms(receiver_latency) + ", server_latency " + ms(server_latency) +
          ")");
    }
  }
  control.validate();
  if (controller.default_heartbeat <= sim::SimTime::zero()) {
    throw std::invalid_argument(
        "SystemConfig: controller.default_heartbeat must be > 0");
  }
  if (controller.pna_xlet_size.count() <= 0) {
    throw std::invalid_argument(
        "SystemConfig: controller.pna_xlet_size must be > 0");
  }
  if (obs.enabled) {
    if (obs.sample_interval <= sim::SimTime::zero()) {
      throw std::invalid_argument(
          "SystemConfig: obs.sample_interval must be > 0");
    }
    if (obs.max_series_points == 0) {
      throw std::invalid_argument(
          "SystemConfig: obs.max_series_points must be > 0");
    }
    if (obs.trace && obs.trace_capacity == 0) {
      throw std::invalid_argument(
          "SystemConfig: obs.trace_capacity must be > 0");
    }
  }
  if (obs.trace && !obs.enabled) {
    throw std::invalid_argument(
        "SystemConfig: obs.trace requires obs.enabled");
  }
  if (heartbeat.mode == HeartbeatMode::kDelta && heartbeat.resync_every == 0) {
    throw std::invalid_argument(
        "SystemConfig: heartbeat.resync_every must be >= 1 in delta mode");
  }
  if (heartbeat.tree_fanin > 0) {
    if (heartbeat.mode != HeartbeatMode::kDelta) {
      throw std::invalid_argument(
          "SystemConfig: heartbeat.tree_fanin requires delta mode (relays "
          "batch delta frames)");
    }
    if (aggregators == 0) {
      throw std::invalid_argument(
          "SystemConfig: heartbeat.tree_fanin requires an aggregator tier");
    }
  }
  if (heartbeat.expiry < sim::SimTime::zero() ||
      heartbeat.pace_window < sim::SimTime::zero()) {
    throw std::invalid_argument(
        "SystemConfig: heartbeat.expiry and heartbeat.pace_window must be "
        ">= 0");
  }
  if (return_channel.enabled) {
    if (return_channel.aggregator_uplink.bps() <= 0.0 ||
        return_channel.aggregator_downlink.bps() <= 0.0 ||
        return_channel.controller_downlink.bps() <= 0.0) {
      throw std::invalid_argument(
          "SystemConfig: return_channel capacities must be > 0");
    }
    if (return_channel.queue_limit <= sim::SimTime::zero()) {
      throw std::invalid_argument(
          "SystemConfig: return_channel.queue_limit must be > 0");
    }
  }
  if (fault.enabled) fault.validate();
  if (verify.enabled) verify.validate();
  if (!fault.enabled && (fault.byzantine_forger_fraction > 0.0 ||
                         fault.byzantine_freerider_fraction > 0.0 ||
                         fault.byzantine_collusion_size > 0)) {
    throw std::invalid_argument(
        "SystemConfig: byzantine_* profiles require fault.enabled");
  }
}

sim::SimTime SystemConfig::kernel_window() const {
  if (window > sim::SimTime::zero()) return window;
  // Auto: the shortest cross-shard wire (receiver vs server propagation
  // delay) bounds how far a boundary clamp can defer a delivery; floor at
  // 1 ms so tiny latencies don't thrash the barrier and cap at 5 ms so huge
  // ones don't make windows needlessly coarse.
  return std::clamp(std::min(receiver_latency, server_latency),
                    sim::SimTime::from_millis(1),
                    sim::SimTime::from_millis(5));
}

double RunResult::efficiency(std::size_t n, double device_task_seconds,
                             std::size_t node_count) const {
  if (makespan_seconds <= 0.0 || node_count == 0) return 0.0;
  return static_cast<double>(n) * device_task_seconds /
         (makespan_seconds * static_cast<double>(node_count));
}

OddciSystem::OddciSystem(const SystemConfig& config) : config_(config) {
  config_.validate();

  sim::ShardedSimulation::Options kopts;
  kopts.shards = config_.shards;
  kopts.window = config_.kernel_window();
  sharded_ = std::make_unique<sim::ShardedSimulation>(kopts);
  simulation_ = &sharded_->control();
  const std::size_t K = sharded_->shard_count();

  if (config_.obs.profile) {
    profiler_ = std::make_unique<obs::KernelProfiler>(K);
    sharded_->set_profiler(profiler_.get());
  }

  // Every component below gets the sharded kernel, whatever K: each one
  // treats a single shard as its classic path.
  network_ = std::make_unique<net::Network>(*simulation_);
  network_->set_sharded(sharded_.get());
  // Tag the heartbeat stream for conservation accounting: net (and the
  // fault injector below) stay ignorant of core's message taxonomy and
  // receive the raw tag value; the health auditor balances emitted vs
  // received vs lost over these cells.
  network_->set_tracked_tag(static_cast<int>(kTagHeartbeat));
  // Every receiver, every aggregator, every relay, the Controller, and the
  // Backend get an endpoint; size the table once up front.
  const std::size_t relay_count =
      config_.heartbeat.tree_fanin > 0 && config_.aggregators > 0
          ? (config_.aggregators + config_.heartbeat.tree_fanin - 1) /
                config_.heartbeat.tree_fanin
          : 0;
  const std::size_t endpoint_bound =
      config_.receivers + config_.aggregators + relay_count + 2;
  network_->reserve_endpoints(endpoint_bound);
  store_ = std::make_unique<ContentStore>();
  // The store's mutex exists only for window threads.
  store_->set_concurrent(K > 1);

  util::Random rng(config_.seed);
  key_ = rng.engine().next() | 1;  // non-zero signing key

  // Transport streams: model the carousel capacity directly as the unused
  // rate (examples that want explicit A/V elementary streams can build
  // their own BroadcastChannel).
  const auto signalling = util::BitRate::from_kbps(100.0);
  channels_.reserve(config_.channels);
  for (std::size_t c = 0; c < config_.channels; ++c) {
    if (config_.technology == BroadcastTechnology::kIpMulticast) {
      broadcast::MulticastOptions mopts = config_.multicast;
      mopts.announce_repetition = config_.table_repetition;
      channels_.push_back(std::make_unique<broadcast::MulticastChannel>(
          *simulation_, config_.beta, rng.engine().next(), mopts));
    } else {
      broadcast::TransportStream ts(
          util::BitRate(config_.beta.bps() + signalling.bps()), signalling);
      auto dtv = std::make_unique<broadcast::BroadcastChannel>(
          *simulation_, std::move(ts), rng.engine().next(),
          config_.table_repetition);
      if (config_.section_loss > 0.0) {
        dtv->set_section_loss(config_.section_loss);
      }
      channels_.push_back(std::move(dtv));
    }
    channels_.back()->set_sharded(*sharded_);
  }

  const net::LinkSpec server_link{config_.server_capacity,
                                  config_.server_capacity,
                                  config_.server_latency};
  ControllerOptions copts = config_.controller;
  copts.policy = config_.control;
  if (copts.policy.seed == 0) {
    // Dedicated named RNG stream for the policy: disjoint from every
    // population stream, so enabling an RNG-drawing engine (bandit) never
    // perturbs receiver seeding or the fault plan.
    copts.policy.seed = util::stream_seed(config_.seed, "control.policy");
  }
  if (config_.fault.enabled && config_.aggregators > 0) {
    copts.aggregator_timeout = config_.fault.aggregator_failover_timeout;
  }
  copts.heartbeat_mode = config_.heartbeat.mode;
  // The Controller's ingress (downlink) is where consolidated reports
  // land; the constrained return-channel model caps it and bounds its
  // queue. Its uplink (control replies, trim resets) stays provisioned.
  net::LinkSpec controller_link = server_link;
  if (config_.return_channel.enabled) {
    controller_link.downlink = config_.return_channel.controller_downlink;
    controller_link.downlink_queue = config_.return_channel.queue_limit;
  }
  std::vector<broadcast::BroadcastMedium*> channel_ptrs;
  channel_ptrs.reserve(channels_.size());
  for (auto& c : channels_) channel_ptrs.push_back(c.get());
  controller_ = std::make_unique<Controller>(*simulation_, *network_,
                                             std::move(channel_ptrs), *store_,
                                             key_, controller_link, copts);
  // PNA ids are node ids, all below the endpoint bound: size the
  // Controller's directory and each aggregator's table once.
  controller_->reserve_pnas(endpoint_bound);

  if (config_.aggregators > 0) {
    // Constrained return channel: the tier's access links get finite
    // capacity and bounded queues (tail drop past the limit).
    net::LinkSpec tier_link = server_link;
    if (config_.return_channel.enabled) {
      tier_link.uplink = config_.return_channel.aggregator_uplink;
      tier_link.downlink = config_.return_channel.aggregator_downlink;
      tier_link.uplink_queue = config_.return_channel.queue_limit;
      tier_link.downlink_queue = config_.return_channel.queue_limit;
    }
    AggregatorOptions aopts;
    aopts.report_interval = config_.aggregator_report_interval;
    aopts.mode = config_.heartbeat.mode;
    aopts.resync_every = config_.heartbeat.resync_every;
    if (config_.heartbeat.mode == HeartbeatMode::kDelta) {
      // Aggregator-side expiry takes over naive-mode staleness pruning;
      // auto mode mirrors the Controller's horizon exactly.
      aopts.expiry = config_.heartbeat.expiry > sim::SimTime::zero()
                         ? config_.heartbeat.expiry
                         : sim::SimTime::from_seconds(
                               config_.controller.default_heartbeat.seconds() *
                               config_.control.stale_factor);
    }
    // Paced mode de-synchronizes the tier's flush boundaries with a
    // dedicated named stream (enabling it never perturbs other draws).
    util::SplitMix64 flush_phases(
        util::stream_seed(config_.seed, "aggregator.flush.phase"));
    const auto draw_phase = [&]() {
      const std::int64_t interval_us = aopts.report_interval.micros();
      if (!config_.heartbeat.paced || interval_us <= 0) {
        return sim::SimTime::zero();
      }
      return sim::SimTime::from_micros(static_cast<std::int64_t>(
          flush_phases.next() % static_cast<std::uint64_t>(interval_us)));
    };
    // Relay tier first (the leaves point upstream at it). Relays live on
    // the control shard: their upstream hop to the Controller is
    // intra-shard; leaf-to-relay hops cross through the kernel mailboxes.
    for (std::size_t r = 0; r < relay_count; ++r) {
      relays_.push_back(std::make_unique<AggregatorRelay>(
          *simulation_, *network_, controller_->node_id(), tier_link,
          aopts.report_interval, draw_phase()));
    }
    std::vector<net::NodeId> aggregator_nodes;
    for (std::size_t a = 0; a < config_.aggregators; ++a) {
      // Aggregator `a` lives on shard a % K; its endpoint registers there
      // so the heartbeats it hears (all from receivers homed on it, placed
      // on the same shard below) never cross a shard boundary.
      network_->set_register_shard(static_cast<std::uint32_t>(a % K));
      aopts.origin = static_cast<std::uint32_t>(a);
      aopts.flush_phase = draw_phase();
      aggregators_.push_back(std::make_unique<HeartbeatAggregator>(
          sharded_->shard(a % K), *network_, controller_->node_id(),
          tier_link, aopts));
      // Agents pick aggregators[pna_id % k], so aggregator `a` only ever
      // hears ids congruent to a (mod k) — declare that shard so its
      // window is a dense vector instead of a hash map.
      aggregators_.back()->set_shard(config_.aggregators, a, endpoint_bound);
      if (!relays_.empty()) {
        aggregators_.back()->set_upstream(
            relays_[a / config_.heartbeat.tree_fanin]->node_id());
      }
      aggregator_nodes.push_back(aggregators_.back()->node_id());
    }
    network_->set_register_shard(0);
    controller_->set_aggregators(std::move(aggregator_nodes));
  }

  provider_ = std::make_unique<Provider>(*controller_);

  BackendOptions bopts;
  bopts.task_timeout = config_.task_timeout;
  if (config_.fault.enabled) {
    bopts.max_task_retries = config_.fault.task_retry_cap;
    bopts.ack_results = true;
  }
  backend_ =
      std::make_unique<Backend>(*simulation_, *network_, server_link, bopts);
  backend_->set_decision_engine(&controller_->engine());
  backend_->set_admission_context(
      config_.delta, config_.profile.slowdown(dtv::PowerMode::kInUse));

  if (config_.verify.enabled) {
    // The Verifier's stream is named off the system seed (overridable), so
    // turning verification on never perturbs population seeding, and its
    // draws happen in Backend handler order on the control shard — the
    // verified trajectory replays byte-identically per (seed, K).
    const std::uint64_t vseed =
        config_.verify.seed != 0
            ? config_.verify.seed
            : util::stream_seed(config_.seed, "verify.dispatch");
    verifier_ =
        std::make_unique<Verifier>(*simulation_, config_.verify, vseed);
    if (config_.aggregators >= 2) {
      // Collusion correlates with the aggregator region (one neighborhood,
      // one modified firmware image), and pna id % A is exactly the
      // region routing agents use — tell the replica scheduler.
      const std::uint64_t A = config_.aggregators;
      verifier_->set_region_fn([A](std::uint64_t pna_id) {
        return static_cast<std::uint32_t>(pna_id % A);
      });
    }
    backend_->set_verifier(verifier_.get());
  }

  // Per-shard agent-side state: every hot-path cell an agent touches is
  // private to its shard's window thread. The shared read-only plumbing
  // (store, key, poll interval, pacing) is the same in every block.
  PnaEnvironment env;
  env.content_store = store_.get();
  env.trusted_key = key_;
  env.task_poll_interval = config_.task_poll_interval;
  if (config_.heartbeat.paced) {
    sim::SimTime pace_window = config_.heartbeat.pace_window;
    if (pace_window <= sim::SimTime::zero()) {
      pace_window = std::min(config_.aggregator_report_interval,
                             config_.controller.default_heartbeat);
    }
    env.heartbeat_pace_window = pace_window;
    env.heartbeat_phase_seed =
        util::stream_seed(config_.seed, "heartbeat.pace.phase");
  }
  env.draw_seed = util::stream_seed(config_.seed, "pna.draws");
  shards_ = std::vector<Shard>(K);
  for (std::size_t s = 0; s < K; ++s) {
    Shard& shard = shards_[s];
    shard.env = env;
    shard.env.counters = &shard.counters;
    shard.env.acquire_latency = &shard.acquire_latency;
    // The ring must outlast the in-flight window or acquires find their
    // slot still referenced and fall back to allocation: heartbeats live
    // ~tens of milliseconds (delivery + aggregator handling), a few hundred
    // beats at a million receivers, so a lap of 1/128 of the shard's
    // population clears them. The floor covers the beats queued behind
    // task traffic on busy uplinks (a 1,024-slot ring missed there).
    shard.heartbeat_pool =
        std::make_unique<net::MessagePool<HeartbeatMessage>>(
            std::clamp<std::size_t>(config_.receivers / K / 128, 4096,
                                    1u << 14));
    shard.heartbeats = std::make_unique<sim::Cadence>(
        sharded_->shard(s), PnaXlet::beat_fn(shard.env));
    shard.env.verify_cache = &shard.verify_cache;
    shard.env.heartbeat_pool = shard.heartbeat_pool.get();
    shard.env.heartbeats = shard.heartbeats.get();
  }

  net::LinkSpec stb_link{config_.delta, config_.delta,
                         config_.receiver_latency};
  if (config_.return_channel.enabled) {
    // The PNA leg of the constrained path: a storm of beats that outruns
    // the uplink's committed backlog sheds at the set-top box.
    stb_link.uplink_queue = config_.return_channel.queue_limit;
  }
  // One registry for the population: an agent's environment is its
  // shard's.
  xlets_.register_factory("oddci-pna", [this](dtv::Receiver& host) {
    return std::make_unique<PnaXlet>(shards_[host.shard()].env);
  });
  receivers_.reserve(config_.receivers);
  const std::size_t A = config_.aggregators;
  for (std::size_t i = 0; i < config_.receivers; ++i) {
    // Placement follows the heartbeat routing: a receiver's pna id is the
    // node id it is about to get (the next endpoint), so it homes on
    // aggregator id % A, which lives on shard (id % A) % K — the
    // per-heartbeat hop never crosses a shard boundary. With no
    // aggregation tier, round-robin.
    const std::size_t s =
        A > 0 ? (network_->endpoint_count() % A) % K : i % K;
    network_->set_register_shard(static_cast<std::uint32_t>(s));
    auto receiver = std::make_unique<dtv::Receiver>(
        sharded_->shard(s), *network_, config_.profile, stb_link);
    receiver->set_power_mode(config_.initial_power);
    receiver->application_manager().set_registry(&xlets_);
    receiver->set_shard(static_cast<std::uint32_t>(s));
    if (rng.uniform() < config_.tuned_fraction) {
      receiver->tune(*channels_[i % channels_.size()]);
    }
    receivers_.push_back(std::move(receiver));
  }
  network_->set_register_shard(0);

  // Adversarial profile table: built after the receivers so it can key
  // collusion on their aggregator regions (node id % A). The table is a
  // pure hash of the fault seed's "fault.byzantine" stream — no live
  // draws, so enabling profiles never perturbs the PR 5 fault plan.
  if (config_.fault.enabled &&
      (config_.fault.byzantine_forger_fraction > 0.0 ||
       config_.fault.byzantine_freerider_fraction > 0.0 ||
       config_.fault.byzantine_collusion_size >= 2)) {
    const std::uint64_t fseed = config_.fault.seed != 0
                                    ? config_.fault.seed
                                    : (config_.seed ^ 0x0DDC1FA17ull);
    std::vector<std::uint32_t> regions;
    regions.reserve(receivers_.size());
    for (const auto& r : receivers_) {
      regions.push_back(
          A > 0 ? static_cast<std::uint32_t>(r->node_id() % A) : 0u);
    }
    byz_table_ = std::make_unique<fault::ByzantineTable>(
        util::stream_seed(fseed, "fault.byzantine"), receivers_.size(),
        config_.fault.byzantine_forger_fraction,
        config_.fault.byzantine_freerider_fraction,
        config_.fault.byzantine_collusion_size, regions);
  }
  if ((byz_table_ && byz_table_->active()) || verifier_) {
    // Agents need the block whenever results carry digests: adversaries to
    // forge them, and — under verification — honest agents to compute them.
    byz_block_.table = byz_table_.get();
    byz_block_.base =
        receivers_.empty() ? 0 : receivers_.front()->node_id();
    for (Shard& shard : shards_) shard.env.byzantine = &byz_block_;
  }

  if (config_.churn) {
    // One churn process per shard, on that shard's kernel, over that
    // shard's receivers: power cycles are ordinary intra-shard events. The
    // draws are keyed by receiver, so every shard shares the one seed.
    const std::uint64_t churn_seed = rng.engine().next();
    std::vector<std::vector<dtv::Receiver*>> per_shard(K);
    for (auto& r : receivers_) per_shard[r->shard()].push_back(r.get());
    for (std::size_t s = 0; s < K; ++s) {
      churn_procs_.push_back(std::make_unique<ChurnProcess>(
          sharded_->shard(s), std::move(per_shard[s]),
          churn_seed, *config_.churn));
      churn_procs_.back()->start();
    }
  }

  if (config_.fault.enabled) {
    // The fault plan gets its own seed stream: derived from the system
    // seed by default so one scenario seed reproduces everything, but
    // overridable to vary the fault schedule against a fixed population.
    const std::uint64_t fseed = config_.fault.seed != 0
                                    ? config_.fault.seed
                                    : (config_.seed ^ 0x0DDC1FA17ull);
    injector_ = std::make_unique<fault::FaultInjector>(*sharded_,
                                                       config_.fault, fseed);
    injector_->set_tracked_tag(static_cast<int>(kTagHeartbeat));
    network_->set_interposer(injector_.get());
    injector_->set_controller_hooks([this] { controller_->crash(); },
                                    [this] { controller_->restart(); });
    injector_->set_backend_hooks([this] { backend_->crash(); },
                                [this] { backend_->restart(); });
    for (auto& aggregator : aggregators_) {
      HeartbeatAggregator* agg = aggregator.get();
      injector_->add_region(agg->node_id(), [agg] { agg->crash(); },
                            [agg] { agg->restart(); });
    }
    injector_->set_pna_fault(
        [this](std::uint64_t pick, bool hang, sim::SimTime duration) {
          return apply_pna_fault(pick, hang, duration);
        });
    injector_->set_control_corruptor(
        [this] { return controller_->corrupt_on_air_control(); },
        [this] { controller_->restore_on_air_control(); });
    for (Shard& shard : shards_) {
      shard.recovery.result_retry_limit = config_.fault.result_retry_limit;
      shard.recovery.result_retry_base = config_.fault.result_retry_base;
      shard.recovery.request_watchdog = config_.fault.request_watchdog;
      shard.env.recovery = &shard.recovery;
    }
  }

  if (config_.obs.enabled) {
    wire_observability();
  }

  if (injector_) injector_->start();
}

template <typename F>
std::uint64_t OddciSystem::sum_shards(F read) const {
  std::uint64_t sum = 0;
  for (const Shard& shard : shards_) sum += read(shard);
  return sum;
}

void OddciSystem::wire_observability() {
  const std::size_t K = sharded_->shard_count();
  registry_ = std::make_unique<obs::MetricsRegistry>();
  registry_->set_max_spans(config_.obs.max_spans);
  tracer_ = std::make_unique<obs::Tracer>(*registry_);

  // Component cells: linked by pointer, owned by the components.
  network_->link_metrics(*registry_);
  controller_->link_metrics(*registry_);
  // Engines register their own "control.*" cells; the default StaticPolicy
  // registers none (byte-identical snapshots vs. the pre-engine tree).
  controller_->engine().link_metrics(*registry_);
  controller_->set_tracer(tracer_.get());
  backend_->link_metrics(*registry_);
  backend_->set_tracer(tracer_.get());
  // Verify/reputation cells — only when the defense is on, so verify-off
  // snapshots are byte-identical to a build without the subsystem.
  if (verifier_) verifier_->link_metrics(*registry_);
  provider_->link_metrics(*registry_);
  for (std::size_t a = 0; a < aggregators_.size(); ++a) {
    aggregators_[a]->link_metrics(*registry_,
                                  "aggregator." + std::to_string(a));
  }
  for (std::size_t r = 0; r < relays_.size(); ++r) {
    relays_[r]->link_metrics(*registry_, "relay." + std::to_string(r));
  }
  // Return-channel health: queue-drop counters and snapshot-time backlog
  // gauges over the constrained reporting path. Registered only when the
  // model is on, so legacy snapshots stay byte-identical.
  if (config_.return_channel.enabled) {
    network_->link_queue_metrics(*registry_);
    registry_->link_probe("net.controller_downlink_backlog_seconds", [this] {
      return network_->downlink_backlog_seconds(controller_->node_id());
    });
    registry_->link_probe("net.aggregator_uplink_backlog_seconds", [this] {
      double worst = 0.0;
      for (const auto& a : aggregators_) {
        worst =
            std::max(worst, network_->uplink_backlog_seconds(a->node_id()));
      }
      return worst;
    });
    registry_->link_probe("net.aggregator_downlink_backlog_seconds", [this] {
      double worst = 0.0;
      for (const auto& a : aggregators_) {
        worst =
            std::max(worst, network_->downlink_backlog_seconds(a->node_id()));
      }
      return worst;
    });
  }

  // Per-shard blocks: each shard increments its own cells and the
  // registry exports the merged sum lazily at snapshot time — one name per
  // metric, no atomic on the hot path.
  const auto merged = [this](auto read) {
    return [this, read] { return sum_shards(read); };
  };
  using Pna = obs::PnaCounters;
  std::vector<std::pair<const char*, obs::Counter Pna::*>> pna_cells = {
      {"pna.control_messages_seen", &Pna::control_messages_seen},
      {"pna.signature_failures", &Pna::signature_failures},
      {"pna.wakeups_dropped_busy", &Pna::wakeups_dropped_busy},
      {"pna.wakeups_rejected_requirements",
       &Pna::wakeups_rejected_requirements},
      {"pna.wakeups_dropped_probability", &Pna::wakeups_dropped_probability},
      {"pna.joins", &Pna::joins},
      {"pna.resets", &Pna::resets},
      {"pna.tasks_completed", &Pna::tasks_completed},
      {"pna.heartbeats_sent", &Pna::heartbeats_sent}};
  // Pacing effectiveness counter — only when pacing is on (no phantom zero
  // cell in unpaced snapshots).
  if (config_.heartbeat.paced) {
    pna_cells.emplace_back("pna.heartbeats_paced", &Pna::heartbeats_paced);
  }
  // Adversarial-behaviour counters — only when the profile table seeded at
  // least one adversary (no phantom zero cells otherwise).
  if (byz_table_ && byz_table_->active()) {
    pna_cells.emplace_back("pna.results_forged", &Pna::results_forged);
    pna_cells.emplace_back("pna.results_freeridden",
                           &Pna::results_freeridden);
  }
  for (const auto& [name, cell] : pna_cells) {
    registry_->link_counter_fn(name, merged([cell = cell](const Shard& s) {
      return (s.counters.*cell).value();
    }));
  }
  std::vector<const obs::LogHistogram*> hists;
  hists.reserve(shards_.size());
  for (const Shard& shard : shards_) hists.push_back(&shard.acquire_latency);
  registry_->link_histogram_set("pna.acquire_latency_seconds",
                                std::move(hists));
  broadcast_counters_.link(*registry_);
  for (auto& channel : channels_) {
    channel->set_counters(&broadcast_counters_);
  }
  // Announcements are counted on each listener's shard, in the channels'
  // per-shard cells.
  registry_->link_counter_fn("broadcast.announcements", [this] {
    std::uint64_t sum = 0;
    for (const auto& channel : channels_) sum += channel->announcements();
    return sum;
  });

  // Fan-out effectiveness: one signature hash per broadcast per shard,
  // recycled heartbeat messages.
  registry_->link_counter_fn(
      "verify_cache.hit",
      merged([](const Shard& s) { return s.verify_cache.hits().value(); }));
  registry_->link_counter_fn(
      "verify_cache.miss",
      merged([](const Shard& s) { return s.verify_cache.misses().value(); }));
  const auto cache_size =
      merged([](const Shard& s) { return s.verify_cache.size(); });
  registry_->link_probe("verify_cache.size", [cache_size] {
    return static_cast<double>(cache_size());
  });
  registry_->link_counter_fn(
      "heartbeat.pool_reused", merged([](const Shard& s) {
        return s.heartbeat_pool->reused().value();
      }));
  registry_->link_counter_fn(
      "heartbeat.pool_allocated", merged([](const Shard& s) {
        return s.heartbeat_pool->allocated().value();
      }));
  registry_->link_counter_fn(
      "heartbeat.pooled_bytes", merged([](const Shard& s) {
        return s.heartbeat_pool->pooled_bytes().value();
      }));
  registry_->link_counter("wire.writer_reuse", store_->writer_reuses());

  // Fault/recovery cells — only when fault injection is on, so fault-off
  // snapshots are byte-identical to a build without the subsystem.
  if (injector_) {
    injector_->link_metrics(*registry_);
    registry_->link_counter_fn(
        "recovery.result_retries", merged([](const Shard& s) {
          return s.recovery.result_retries.value();
        }));
    registry_->link_counter_fn(
        "recovery.request_retries", merged([](const Shard& s) {
          return s.recovery.request_retries.value();
        }));
  }

  if (config_.obs.trace) {
    // One ring per shard, written only by that shard's window thread.
    // Strided id streams (offset s, stride K) keep event ids disjoint, so
    // obs::merge_events() yields one chronological population-wide export.
    for (std::size_t s = 0; s < K; ++s) {
      shards_[s].recorder =
          std::make_unique<obs::FlightRecorder>(config_.obs.trace_capacity);
      shards_[s].recorder->set_id_stream(s, K);
      shards_[s].env.recorder = shards_[s].recorder.get();
      network_->set_shard_recorder(s, shards_[s].recorder.get());
      if (injector_) {
        injector_->set_shard_recorder(s, shards_[s].recorder.get());
      }
    }
    // The control plane — Provider, Controller and its engine, Backend and
    // the quorum decisions, the channels, the plan-level faults — runs on
    // shard 0, so its ring is their home. Engines gate their own emission
    // (the static default never emits).
    obs::FlightRecorder* control_rec = shards_.front().recorder.get();
    provider_->set_flight_recorder(control_rec);
    controller_->set_flight_recorder(control_rec);
    controller_->engine().set_flight_recorder(control_rec);
    backend_->set_flight_recorder(control_rec);
    if (verifier_) verifier_->set_flight_recorder(control_rec);
    if (injector_) injector_->set_recorder(control_rec);
    for (auto& channel : channels_) channel->set_recorder(control_rec);
    for (std::size_t a = 0; a < aggregators_.size(); ++a) {
      aggregators_[a]->set_flight_recorder(shards_[a % K].recorder.get());
    }
    for (auto& receiver : receivers_) {
      receiver->set_recorder(shards_[receiver->shard()].recorder.get());
    }
    // Protocol-trace log lines share the recorder's clock: while this
    // system is tracing, every Logger line carries t=<sim seconds>.
    util::Logger::instance().set_clock(
        [this] { return simulation_->now().seconds(); });
  }

  // Sim-time series. Every probe is O(1): the controller maintains its
  // population mirrors incrementally, so sampling never scans the
  // million-receiver maps.
  obs::Sampler::Options sopts;
  sopts.interval = config_.obs.sample_interval;
  sopts.max_points = config_.obs.max_series_points;
  sampler_ = std::make_unique<obs::Sampler>(*sharded_, *registry_, sopts);
  sampler_->add_gauge_series("series.instance_size", [this] {
    return static_cast<double>(controller_->total_member_count());
  });
  sampler_->add_gauge_series("series.idle_pool", [this] {
    return static_cast<double>(controller_->idle_known());
  });
  sampler_->add_gauge_series("series.backend_pending", [this] {
    return static_cast<double>(backend_->tasks_remaining());
  });
  sampler_->add_gauge_series("series.carousel_files", [this] {
    return static_cast<double>(channels_.front()->current().files.size());
  });
  sampler_->add_rate_series(
      "series.heartbeat_rate", merged([](const Shard& s) {
        return s.counters.heartbeats_sent.value();
      }));
  // Conservation auditor, sampled at the same parked tick points the
  // series probes use; run_job folds the final verdict into RunResult.
  health_ = std::make_unique<obs::HealthAuditor>(
      [this] { return health_ledger(); });
  sampler_->set_on_tick(
      [this] { health_->sample(simulation_->now().seconds()); });
  sampler_->start();
}

broadcast::BroadcastMedium& OddciSystem::channel(std::size_t i) {
  if (i >= channels_.size()) {
    throw std::out_of_range("OddciSystem: channel index out of range");
  }
  return *channels_[i];
}

obs::MetricsSnapshot OddciSystem::metrics_snapshot() const {
  if (!registry_) return obs::MetricsSnapshot{};
  return registry_->snapshot(simulation_->now().seconds());
}

obs::ProfileSnapshot OddciSystem::profile_snapshot() const {
  if (!profiler_) return obs::ProfileSnapshot{};
  return obs::take_profile(*profiler_, *sharded_);
}

obs::HealthLedger OddciSystem::health_ledger() const {
  obs::HealthLedger ledger;
  const net::NetworkStats net = network_->stats();
  ledger.messages_sent = net.messages_sent;
  ledger.arrivals_scheduled = net.arrivals_scheduled;
  ledger.messages_delivered = net.messages_delivered;
  ledger.messages_dropped = net.messages_dropped;
  ledger.heartbeats_dropped = net.tracked_dropped;
  ledger.uplink_queue_dropped = net.uplink_queue_dropped;
  ledger.downlink_queue_dropped = net.downlink_queue_dropped;
  ledger.heartbeats_uplink_queue_dropped = net.tracked_uplink_queue_dropped;
  ledger.heartbeats_downlink_queue_dropped =
      net.tracked_downlink_queue_dropped;
  if (config_.heartbeat.mode == HeartbeatMode::kDelta) {
    ledger.delta_active = true;
    ledger.delta_checksum_failures =
        controller_->delta_stats().checksum_failures;
    ledger.delta_members_incremental = controller_->total_member_count();
    ledger.delta_members_view = controller_->membership_view_count();
  }
  if (injector_) {
    const fault::FaultInjector::Stats faults = injector_->stats();
    // Partition drops never reach schedule_arrival either, so they count
    // with the wire losses on the "removed before arrival" side.
    ledger.messages_lost = faults.messages_lost + faults.partition_dropped;
    ledger.messages_duplicated = faults.messages_duplicated;
    ledger.heartbeats_lost = faults.tracked_lost;
    ledger.heartbeats_duplicated = faults.tracked_duplicated;
  }
  ledger.heartbeats_emitted = sum_shards(
      [](const Shard& s) { return s.counters.heartbeats_sent.value(); });
  ledger.heartbeats_received = controller_->stats().heartbeats_received;
  for (const auto& aggregator : aggregators_) {
    ledger.heartbeats_received += aggregator->stats().heartbeats_received;
  }
  const std::size_t K = sharded_->shard_count();
  ledger.shards.reserve(K);
  for (std::size_t s = 0; s < K; ++s) {
    const sim::Simulation& shard = sharded_->shard(s);
    obs::HealthLedger::ShardEvents events;
    events.scheduled = shard.events_scheduled();
    events.executed = shard.events_executed();
    events.cancelled = shard.events_cancelled();
    events.pending = shard.pending_events();
    ledger.shards.push_back(events);
  }
  ledger.pool_acquired = sum_shards([](const Shard& s) {
    return s.heartbeat_pool->reused().value() +
           s.heartbeat_pool->allocated().value();
  });
  if (verifier_) {
    const Verifier::Stats v = verifier_->stats();
    ledger.verify_active = true;
    ledger.verify_dispatched = v.dispatched;
    ledger.verify_verified = v.verified;
    ledger.verify_outvoted = v.outvoted;
    ledger.verify_discarded = v.discarded;
    ledger.verify_outstanding = v.outstanding;
    ledger.spot_dispatched = v.spot_dispatched;
    ledger.spot_passed = v.spot_passed;
    ledger.spot_failed = v.spot_failed;
    ledger.spot_flushed = v.spot_flushed;
    ledger.spot_outstanding = v.spot_outstanding;
  }
  if (verifier_ && byz_table_ && byz_table_->active()) {
    // Detection audit: a seeded adversary that accumulated enough ledger
    // observations to be caught yet still stands above the quarantine
    // threshold is a defense failure the auditor should flag.
    ledger.byz_active = true;
    ledger.byz_adversaries = byz_table_->adversaries();
    const double threshold = verifier_->options().quarantine_below;
    for (std::size_t i = 0; i < byz_table_->size(); ++i) {
      if (byz_table_->profile(i) == fault::ByzantineProfile::kHonest) {
        continue;
      }
      const ReputationEntry* entry =
          verifier_->reputation(byz_block_.base + i);
      if (entry == nullptr) continue;  // never dispatched to: nothing to catch
      if (entry->observations >= 4 &&
          entry->state != ReputationState::kQuarantined &&
          entry->score >= threshold) {
        ++ledger.byz_undetected;
      }
    }
  }
  if (config_.obs.health_tamper_lost > 0) {
    // Seeded violation hook: under-report wire losses so the arrival
    // balance no longer closes (tests and the runner's exit-code path).
    const std::uint64_t cut =
        std::min(config_.obs.health_tamper_lost, ledger.messages_lost);
    ledger.messages_lost -= cut;
  }
  return ledger;
}

OddciSystem::~OddciSystem() {
  // The logger clock captures this system's simulation; remove it before
  // the simulation goes away.
  if (config_.obs.trace) util::Logger::instance().clear_clock();
}

std::vector<const obs::FlightRecorder*> OddciSystem::flight_recorders()
    const {
  std::vector<const obs::FlightRecorder*> out;
  for (const Shard& shard : shards_) {
    if (shard.recorder) out.push_back(shard.recorder.get());
  }
  return out;
}

bool OddciSystem::apply_pna_fault(std::uint64_t pick, bool hang,
                                  sim::SimTime duration) {
  const std::size_t n = receivers_.size();
  if (n == 0) return false;
  // Deterministic scan from the picked offset: prefer a busy agent (a
  // mid-task crash exercises the whole recovery chain), fall back to the
  // first live idle one.
  PnaXlet* idle_victim = nullptr;
  for (std::size_t k = 0; k < n; ++k) {
    PnaXlet* pna = pna_of(*receivers_[(pick + k) % n]);
    if (pna == nullptr) continue;
    if (pna->state() == PnaState::kBusy) {
      return hang ? pna->fault_hang(duration) : pna->fault_crash();
    }
    if (idle_victim == nullptr) idle_victim = pna;
  }
  if (idle_victim == nullptr) return false;
  return hang ? idle_victim->fault_hang(duration)
              : idle_victim->fault_crash();
}

PnaXlet* OddciSystem::pna_of(dtv::Receiver& receiver) const {
  if (!receiver.powered()) return nullptr;
  return dynamic_cast<PnaXlet*>(receiver.application_manager().find(
      config_.controller.pna_application_id));
}

std::size_t OddciSystem::busy_pna_count() const {
  std::size_t busy = 0;
  for (const auto& receiver : receivers_) {
    const PnaXlet* pna = pna_of(*receiver);
    if (pna != nullptr && pna->state() == PnaState::kBusy) ++busy;
  }
  return busy;
}

RunResult OddciSystem::run_job(const workload::Job& job,
                               std::size_t instance_size,
                               sim::SimTime deadline) {
  if (!controller_->deployed()) {
    controller_->deploy_pna();
    sharded_->run_until(simulation_->now() + config_.warmup);
  }

  RunResult result;

  // Phi-driven admission (control.min_suitability > 0 only): a deferred
  // job never requests an instance, so no receiver is woken for work the
  // direct channel cannot feed profitably.
  if (!backend_->would_admit(job)) {
    result.admitted = false;
    if (registry_) {
      result.metrics = registry_->snapshot(simulation_->now().seconds());
    }
    return result;
  }

  const sim::SimTime t0 = simulation_->now();

  InstanceSpec spec;
  spec.name = job.name;
  spec.target_size = instance_size;
  spec.image_size = job.image_size;
  spec.heartbeat_interval = config_.controller.default_heartbeat;

  // Tasks assigned to PNAs that are reset (trimming) or churned away must
  // be re-dispatched; derive a timeout from the worst-case task cycle if
  // none was configured.
  if (config_.task_timeout <= sim::SimTime::zero()) {
    const double payload_s =
        (job.avg_input_bits() + job.avg_result_bits()) / config_.delta.bps();
    const double exec_s =
        job.avg_reference_seconds() *
        config_.profile.slowdown(dtv::PowerMode::kInUse);
    backend_->set_task_timeout(sim::SimTime::from_seconds(
        3.0 * (payload_s + exec_s) +
        2.0 * config_.controller.default_heartbeat.seconds() + 30.0));
  }

  const InstanceId id = provider_->request_instance(
      spec, backend_->node_id(),
      [&result, t0](InstanceId, sim::SimTime ready_at) {
        result.wakeup_seconds = (ready_at - t0).seconds();
      });

  bool done = false;
  // Task dispatch/result events chain off the instance's control.format
  // context, so one trace id spans wakeup through the last result.
  backend_->submit(job, id, [this, &done] {
    done = true;
    sharded_->stop();
  }, t0, controller_->trace_context(id));

  sharded_->run_until(t0 + deadline);

  // A job whose every task hit the retry cap also fires on_complete (the
  // Backend reports the failure explicitly); that is not success.
  result.completed = done && !backend_->job_failed();
  result.job = backend_->metrics();
  if (done) {
    result.makespan_seconds = result.job.makespan_seconds();
  }
  const InstanceStatus* st = controller_->status(id);
  if (st != nullptr) {
    result.final_instance_size = st->current_size;
    if (result.wakeup_seconds < 0.0 && st->reached_target_at) {
      result.wakeup_seconds = (*st->reached_target_at - t0).seconds();
    }
  }
  result.controller = controller_->stats();
  result.network = network_->stats();
  if (registry_) {
    result.metrics = registry_->snapshot(simulation_->now().seconds());
  }
  if (health_) {
    result.health = health_->finalize(simulation_->now().seconds());
  }

  provider_->release_instance(id);
  return result;
}

}  // namespace oddci::core
