#include "core/controller.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "util/logging.hpp"

namespace oddci::core {

Controller::Controller(sim::Simulation& simulation, net::Network& network,
                       broadcast::BroadcastMedium& channel,
                       ContentStore& store, broadcast::SigningKey key,
                       const net::LinkSpec& link, ControllerOptions options)
    : Controller(simulation, network,
                 std::vector<broadcast::BroadcastMedium*>{&channel}, store,
                 key, link, std::move(options)) {}

Controller::Controller(sim::Simulation& simulation, net::Network& network,
                       std::vector<broadcast::BroadcastMedium*> channels,
                       ContentStore& store, broadcast::SigningKey key,
                       const net::LinkSpec& link, ControllerOptions options)
    : simulation_(simulation),
      network_(network),
      channels_(std::move(channels)),
      store_(store),
      key_(key),
      options_(std::move(options)) {
  if (channels_.empty()) {
    throw std::invalid_argument("Controller: need at least one channel");
  }
  for (auto* c : channels_) {
    if (c == nullptr) {
      throw std::invalid_argument("Controller: null channel");
    }
  }
  // make_engine validates (throws std::invalid_argument on bad knobs).
  engine_ = control::make_engine(options_.policy);
  default_heartbeat_ = options_.default_heartbeat;
  node_id_ = network_.register_endpoint(this, link);
}

Controller::~Controller() {
  if (monitor_running_) monitor_.cancel();
}

void Controller::deploy_pna() {
  if (deployed_) return;
  deployed_ = true;

  // AIT: the PNA is a trigger application (AUTOSTART).
  broadcast::AitEntry entry;
  entry.application_id = options_.pna_application_id;
  entry.control_code = broadcast::AppControlCode::kAutostart;
  entry.application_name = options_.pna_application_name;
  entry.base_file = options_.pna_file;
  for (auto* channel : channels_) {
    channel->ait().upsert(entry);
    channel->put_file(options_.pna_file, options_.pna_xlet_size,
                      /*content_id=*/0);
  }

  // A signed no-op control message so freshly launched agents learn their
  // Controller's direct-channel address and begin heartbeating.
  ControlMessage hello;
  hello.type = ControlType::kReset;
  hello.instance = kNoInstance;  // matches no instance: a pure "hello"
  hello.probability = 0.0;
  hello.controller_node = node_id_;
  hello.backend_node = net::kInvalidNode;
  hello.heartbeat_interval = default_heartbeat_;
  broadcast_control(hello);

  aggregator_last_seen_.assign(aggregator_nodes_.size(), simulation_.now());

  monitor_ = sim::PeriodicTask(simulation_,
                               simulation_.now() + options_.policy.monitor_interval,
                               options_.policy.monitor_interval,
                               [this] { monitor_tick(); });
  monitor_running_ = true;
}

void Controller::set_aggregators(std::vector<net::NodeId> aggregators) {
  if (deployed_) {
    throw std::logic_error(
        "Controller: set_aggregators must precede deploy_pna");
  }
  aggregators_ = aggregators;
  aggregator_nodes_ = std::move(aggregators);
  aggregator_last_seen_.assign(aggregator_nodes_.size(), sim::SimTime::zero());
  aggregator_reported_.assign(aggregator_nodes_.size(), false);
}

obs::TraceContext Controller::broadcast_control(const ControlMessage& message) {
  ControlMessage signed_message = message;
  signed_message.aggregators = aggregators_;
  if (recorder_ != nullptr) {
    signed_message.trace = recorder_->emit(
        simulation_.now(), obs::TraceEventKind::kControlFormat,
        obs::TraceComponent::kController, message.trace, message.instance,
        static_cast<std::uint64_t>(message.type));
  }
  signed_message.sign_with(key_);
  const std::uint64_t content = store_.put_control(signed_message);
  // The configuration file is small; its size models a compact encoding.
  for (auto* channel : channels_) {
    channel->put_file(options_.config_file, util::Bits::from_bytes(512),
                      content);
  }
  stage_and_commit();
  // The previous configuration payload left the carousel; in-flight reads
  // of it were invalidated by the module-version bump anyway.
  if (last_config_content_ != 0) {
    store_.remove(last_config_content_);
  }
  last_config_content_ = content;
  if (message.type == ControlType::kWakeup) {
    ++wakeup_broadcasts_;
  } else {
    ++reset_broadcasts_;
  }
  return signed_message.trace;
}

void Controller::stage_and_commit() {
  for (auto* channel : channels_) {
    channel->commit();
  }
}

InstanceId Controller::create_instance(const InstanceSpec& spec,
                                       net::NodeId backend_node,
                                       obs::TraceContext parent) {
  if (!deployed_) {
    throw std::logic_error("Controller: deploy_pna() before create_instance");
  }
  if (spec.target_size == 0) {
    throw std::invalid_argument("Controller: target size must be > 0");
  }
  if (spec.image_size.count() <= 0) {
    throw std::invalid_argument("Controller: image size must be > 0");
  }

  const InstanceId id = next_instance_++;
  Instance inst;
  inst.status.id = id;
  inst.status.name = spec.name;
  inst.status.active = true;
  inst.status.target_size = spec.target_size;
  inst.status.created_at = simulation_.now();
  inst.spec = spec;
  inst.backend_node = backend_node;
  inst.image.image_id = next_image_++;
  inst.image.name = "image-" + std::to_string(inst.image.image_id);
  inst.image.size = spec.image_size;
  default_heartbeat_ = spec.heartbeat_interval;

  // Stage the user image on the carousel.
  for (auto* channel : channels_) {
    channel->put_file(inst.image.name, inst.image.size,
                      inst.image.image_id);
  }

  ControlMessage wakeup;
  wakeup.type = ControlType::kWakeup;
  wakeup.instance = id;
  wakeup.requirements = spec.requirements;
  wakeup.heartbeat_interval = spec.heartbeat_interval;
  wakeup.image = inst.image;
  wakeup.controller_node = node_id_;
  wakeup.backend_node = backend_node;
  if (spec.initial_probability) {
    const double given = *spec.initial_probability;
    if (given <= 0.0 || given > 1.0) {
      throw std::invalid_argument(
          "Controller: initial probability must be in (0, 1]");
    }
    wakeup.probability = given;
  } else {
    wakeup.probability = engine_->initial_probability(
        observe(id, inst, recruitment_idle_pool()));
  }
  wakeup.trace = parent;

  instances_.emplace(id, std::move(inst));
  if (tracer_ != nullptr) {
    tracer_->begin("instance.form", id, simulation_.now().seconds());
  }
  const obs::TraceContext formatted = broadcast_control(wakeup);
  Instance& live = instances_.at(id);
  live.trace = formatted;
  live.status.wakeups_broadcast++;
  live.last_wakeup_at = simulation_.now();
  ODDCI_LOG_TRACE("controller")
      << "instance " << id << " wakeup broadcast, target "
      << spec.target_size << ", p=" << wakeup.probability;
  return id;
}

control::ControlObservation Controller::observe(InstanceId id,
                                                const Instance& inst,
                                                std::size_t idle_pool) const {
  control::ControlObservation observation;
  observation.now = simulation_.now();
  observation.instance = id;
  observation.target = inst.status.target_size;
  observation.members = inst.members.size();
  observation.joining = inst.joining.size();
  observation.idle_pool = idle_pool;
  observation.known_pnas = pnas_known_;
  observation.pruned_this_tick = inst.pruned_last_tick;
  observation.recruiting = inst.recruiting;
  observation.heartbeat_interval = inst.spec.heartbeat_interval;
  observation.since_last_wakeup = simulation_.now() - inst.last_wakeup_at;
  return observation;
}

void Controller::destroy_instance(InstanceId id) {
  auto it = instances_.find(id);
  if (it == instances_.end()) {
    throw std::invalid_argument("Controller: unknown instance");
  }
  Instance& inst = it->second;
  if (!inst.status.active) return;
  inst.status.active = false;
  inst.status.target_size = 0;
  inst.pending_trims = 0;
  engine_->forget(id);
  if (tracer_ != nullptr) {
    tracer_->discard("instance.form", id);  // destroyed before forming
  }

  for (auto* channel : channels_) {
    channel->remove_file(inst.image.name);
  }

  ControlMessage reset;
  reset.type = ControlType::kReset;
  reset.instance = id;
  reset.controller_node = node_id_;
  reset.heartbeat_interval = inst.spec.heartbeat_interval;
  reset.trace = inst.trace;
  broadcast_control(reset);
  ODDCI_LOG_TRACE("controller") << "instance " << id << " reset broadcast";
}

void Controller::set_recruiting(InstanceId id, bool recruiting) {
  auto it = instances_.find(id);
  if (it == instances_.end()) {
    throw std::invalid_argument("Controller: unknown instance");
  }
  if (it->second.recruiting == recruiting) return;
  it->second.recruiting = recruiting;
  if (!recruiting) {
    // Supersede the on-air wakeup so returning receivers stop joining.
    ControlMessage hello;
    hello.type = ControlType::kReset;
    hello.instance = kNoInstance;
    hello.probability = 0.0;
    hello.controller_node = node_id_;
    hello.heartbeat_interval = it->second.spec.heartbeat_interval;
    broadcast_control(hello);
  }
  // Re-enabling recruiting needs no immediate action: the maintenance loop
  // rebroadcasts a wakeup on its next tick if there is a deficit.
}

void Controller::resize_instance(InstanceId id, std::size_t new_target) {
  auto it = instances_.find(id);
  if (it == instances_.end() || !it->second.status.active) {
    throw std::invalid_argument("Controller: unknown or inactive instance");
  }
  if (new_target == 0) {
    throw std::invalid_argument("Controller: resize target must be > 0 (use destroy_instance)");
  }
  it->second.status.target_size = new_target;
  it->second.spec.target_size = new_target;
  // The maintenance loop performs the growth/trim on its next tick.
}

const InstanceStatus* Controller::status(InstanceId id) const {
  auto it = instances_.find(id);
  return it == instances_.end() ? nullptr : &it->second.status;
}

std::vector<InstanceStatus> Controller::all_statuses() const {
  std::vector<InstanceStatus> out;
  out.reserve(instances_.size());
  for (const auto& [id, inst] : instances_) out.push_back(inst.status);
  std::sort(out.begin(), out.end(),
            [](const InstanceStatus& a, const InstanceStatus& b) {
              return a.id < b.id;
            });
  return out;
}

obs::TraceContext Controller::trace_context(InstanceId id) const {
  const auto it = instances_.find(id);
  return it == instances_.end() ? obs::TraceContext{} : it->second.trace;
}

std::pair<Controller::PnaRecord&, bool> Controller::ensure_pna(
    std::uint64_t id) {
  if (id >= pna_dense_.size()) pna_dense_.resize(id + 1);
  PnaRecord& rec = pna_dense_[id];
  const bool fresh = !rec.known;
  if (fresh) {
    rec.known = true;
    ++pnas_known_;
  }
  return {rec, fresh};
}

const Controller::PnaRecord* Controller::find_pna(std::uint64_t id) const {
  if (id >= pna_dense_.size() || !pna_dense_[id].known) return nullptr;
  return &pna_dense_[id];
}

Controller::PnaRecord* Controller::find_pna_mutable(std::uint64_t id) {
  if (id >= pna_dense_.size() || !pna_dense_[id].known) return nullptr;
  return &pna_dense_[id];
}

std::size_t Controller::idle_pool_estimate() const {
  // Delta mode maintains freshness incrementally: aggregator expiries and
  // the direct prune remove stale records outright, so the latest-report
  // mirror IS the windowed estimate — without the O(population) scan.
  if (options_.heartbeat_mode == HeartbeatMode::kDelta) return idle_known_;
  const sim::SimTime horizon =
      sim::SimTime::from_seconds(default_heartbeat_.seconds() *
                                 options_.policy.stale_factor);
  std::size_t count = 0;
  for_each_pna([&](const PnaRecord& rec) {
    if (rec.state == PnaState::kIdle &&
        simulation_.now() - rec.last_seen <= horizon) {
      ++count;
    }
  });
  return count;
}

std::size_t Controller::known_pna_count() const {
  if (options_.heartbeat_mode == HeartbeatMode::kDelta) return pnas_known_;
  const sim::SimTime horizon =
      sim::SimTime::from_seconds(default_heartbeat_.seconds() *
                                 options_.policy.stale_factor);
  std::size_t count = 0;
  for_each_pna([&](const PnaRecord& rec) {
    if (simulation_.now() - rec.last_seen <= horizon) ++count;
  });
  return count;
}

std::size_t Controller::recruitment_idle_pool() const {
  return options_.heartbeat_mode == HeartbeatMode::kDelta
             ? idle_known_
             : idle_pool_estimate();
}

void Controller::set_size_callback(SizeCallback callback) {
  size_callback_ = std::move(callback);
}

void Controller::link_metrics(obs::MetricsRegistry& registry) const {
  registry.link_counter("controller.heartbeats_received",
                        heartbeats_received_);
  registry.link_counter("controller.aggregate_reports_received",
                        aggregate_reports_received_);
  registry.link_counter("controller.wakeup_broadcasts", wakeup_broadcasts_);
  registry.link_counter("controller.reset_broadcasts", reset_broadcasts_);
  registry.link_counter("controller.unicast_resets", unicast_resets_);
  registry.link_counter("controller.recompositions", recompositions_);
  registry.link_counter("controller.members_pruned", members_pruned_);
  if (options_.aggregator_timeout > sim::SimTime::zero()) {
    registry.link_counter("recovery.aggregator_failovers",
                          aggregator_failovers_);
    registry.link_counter("recovery.aggregator_restores",
                          aggregator_restores_);
  }
  // Both modes carry the ingest-bytes cell: it is the naive-vs-delta
  // payload comparison the fan-out bench reads.
  registry.link_counter("controller.report_bytes_ingested",
                        report_bytes_ingested_);
  if (options_.heartbeat_mode == HeartbeatMode::kDelta) {
    registry.link_counter("controller.delta_frames_received",
                          delta_frames_received_);
    registry.link_counter("controller.delta_entries_applied",
                          delta_entries_applied_);
    registry.link_counter("controller.delta_expires_applied",
                          delta_expires_applied_);
    registry.link_counter("controller.delta_resyncs", delta_resyncs_);
    registry.link_counter("controller.delta_gaps", delta_gaps_);
    registry.link_counter("controller.delta_frames_skipped",
                          delta_frames_skipped_);
    registry.link_counter("controller.delta_resync_requests",
                          delta_resync_requests_);
    registry.link_counter("controller.delta_checksum_failures",
                          delta_checksum_failures_);
  }
  registry.link_histogram("controller.join_latency_seconds", join_latency_);
  // O(1) incremental mirrors — safe to evaluate every snapshot/sample.
  registry.link_probe("controller.pnas_known", [this] {
    return static_cast<double>(pnas_known_);
  });
  registry.link_probe("controller.idle_known", [this] {
    return static_cast<double>(idle_known_);
  });
  registry.link_probe("controller.total_members", [this] {
    return static_cast<double>(members_total_);
  });
  registry.link_probe("controller.instances", [this] {
    return static_cast<double>(instances_.size());
  });
}

void Controller::note_member_change(Instance& inst) {
  inst.status.current_size = inst.members.size();
  if (!inst.status.reached_target_at &&
      inst.status.current_size >= inst.status.target_size &&
      inst.status.active) {
    inst.status.reached_target_at = simulation_.now();
    if (tracer_ != nullptr) {
      tracer_->end("instance.form", inst.status.id,
                   simulation_.now().seconds());
    }
    if (recorder_ != nullptr) {
      recorder_->emit(simulation_.now(), obs::TraceEventKind::kInstanceReady,
                      obs::TraceComponent::kController, inst.trace,
                      inst.status.id, inst.status.target_size);
    }
  }
  if (size_callback_) {
    size_callback_(inst.status.id, inst.status.current_size,
                   inst.status.target_size);
  }
}

void Controller::on_message(net::NodeId from, const net::MessagePtr& message) {
  switch (message->tag()) {
    case kTagHeartbeat: {
      const auto& hb = static_cast<const HeartbeatMessage&>(*message);
      ++heartbeats_received_;
      PnaRecord& rec =
          handle_status(hb.pna_id(), hb.state(), hb.instance(), from,
                        hb.trace());
      if (options_.heartbeat_mode == HeartbeatMode::kDelta) {
        // Heard directly (failover fallback): this record is now ours to
        // staleness-check until an aggregator claims it back.
        rec.origin = kDirectOrigin;
        if (!rec.direct_listed) {
          rec.direct_listed = true;
          direct_ids_.push_back(hb.pna_id());
        }
      }
      break;
    }
    case kTagAggregateReport: {
      const auto& report =
          static_cast<const AggregateReportMessage&>(*message);
      ++aggregate_reports_received_;
      report_bytes_ingested_ +=
          static_cast<std::uint64_t>(report.wire_size().count() / 8);
      for (const auto& entry : report.entries()) {
        // The PNA id is its direct-channel address, so unicast replies can
        // bypass the aggregation tier.
        handle_status(entry.pna_id, entry.state, entry.instance,
                      static_cast<net::NodeId>(entry.pna_id), entry.trace);
      }
      if (options_.aggregator_timeout > sim::SimTime::zero()) {
        note_aggregator_alive(from);
      }
      break;
    }
    case kTagDeltaReport: {
      const auto& frame = static_cast<const DeltaReportMessage&>(*message);
      report_bytes_ingested_ +=
          static_cast<std::uint64_t>(frame.wire_size().count() / 8);
      apply_delta_frame(frame);
      break;
    }
    case kTagDeltaBatch: {
      const auto& batch = static_cast<const DeltaBatchMessage&>(*message);
      report_bytes_ingested_ +=
          static_cast<std::uint64_t>(batch.wire_size().count() / 8);
      for (const auto& frame : batch.frames()) apply_delta_frame(*frame);
      break;
    }
    default:
      break;
  }
}

Controller::PnaRecord& Controller::handle_status(std::uint64_t pna_id,
                                                 PnaState state,
                                                 InstanceId instance,
                                                 net::NodeId reply_to,
                                                 obs::TraceContext trace) {
  const net::NodeId from = reply_to;
  const auto [rec, first_report] = ensure_pna(pna_id);
  if (rec.suppress_busy) {
    // A trim reset is in flight to this agent (delta mode). One stale busy
    // report may still arrive from its aggregator, emitted before the
    // agent could obey; swallowing it keeps the just-trimmed member out.
    // If the reset was lost, the agent's *next* report re-adds it — the
    // flag is one-shot. (Never set in naive mode.)
    rec.suppress_busy = false;
    if (state == PnaState::kBusy) {
      rec.last_seen = simulation_.now();
      return rec;
    }
  }
  const PnaState old_state = rec.state;
  const InstanceId old_instance = rec.instance;
  // idle_known_ mirrors "latest report was idle" without rescanning the
  // PNA directory.
  if (first_report) {
    if (state == PnaState::kIdle) ++idle_known_;
  } else if (old_state == PnaState::kIdle && state != PnaState::kIdle) {
    --idle_known_;
  } else if (old_state != PnaState::kIdle && state == PnaState::kIdle) {
    ++idle_known_;
  }
  rec.state = state;
  rec.instance = instance;
  rec.last_seen = simulation_.now();

  // Membership bookkeeping: drop from the previous instance's sets if the
  // association changed, then (re)index under the reported state.
  if (old_instance != kNoInstance &&
      (old_instance != instance || old_state != state)) {
    auto it = instances_.find(old_instance);
    if (it != instances_.end()) {
      it->second.joining.erase(pna_id);
      if (it->second.members.erase(pna_id)) {
        --members_total_;
        note_member_change(it->second);
      }
    }
  }
  if (instance != kNoInstance) {
    auto it = instances_.find(instance);
    if (it != instances_.end()) {
      Instance& inst = it->second;
      if (state == PnaState::kBusy) {
        inst.joining.erase(pna_id);
        if (inst.members.insert(pna_id).second) {
          ++members_total_;
          join_latency_.record(
              (simulation_.now() - inst.last_wakeup_at).seconds());
          if (recorder_ != nullptr) {
            recorder_->emit(simulation_.now(),
                            obs::TraceEventKind::kMemberJoined,
                            obs::TraceComponent::kController, trace, pna_id,
                            instance);
          }
          note_member_change(inst);
        }
      } else if (state == PnaState::kJoining) {
        inst.joining.insert(pna_id);
      }
    }
  }

  // Trimming: answer heartbeats of oversized instances with unicast resets.
  if (state == PnaState::kBusy && instance != kNoInstance) {
    auto it = instances_.find(instance);
    if (it != instances_.end()) {
      Instance& inst = it->second;
      const bool over_target =
          inst.status.active && inst.members.size() > inst.status.target_size;
      if ((over_target && inst.pending_trims > 0) || !inst.status.active) {
        if (inst.pending_trims > 0) --inst.pending_trims;
        ++inst.status.unicast_resets;
        ++unicast_resets_;
        if (recorder_ != nullptr) {
          recorder_->emit(simulation_.now(), obs::TraceEventKind::kTrimReset,
                          obs::TraceComponent::kController, trace, pna_id,
                          instance);
        }
        network_.send(node_id_, from,
                      std::make_shared<HeartbeatReplyMessage>(
                          instance, HeartbeatCommand::kReset));
        if (inst.members.erase(pna_id)) {
          --members_total_;
          note_member_change(inst);
        }
        rec.instance = kNoInstance;
        if (rec.state != PnaState::kIdle) ++idle_known_;
        rec.state = PnaState::kIdle;
      }
    }
  }
  return rec;
}

void Controller::note_aggregator_alive(net::NodeId from) {
  for (std::size_t i = 0; i < aggregator_nodes_.size(); ++i) {
    if (aggregator_nodes_[i] != from) continue;
    aggregator_last_seen_[i] = simulation_.now();
    aggregator_reported_[i] = true;
    if (aggregators_[i] == net::kInvalidNode) {
      aggregators_[i] = from;
      ++aggregator_restores_;
      if (recorder_ != nullptr) {
        recorder_->emit(simulation_.now(),
                        obs::TraceEventKind::kRecoveryAggregatorRestore,
                        obs::TraceComponent::kController, {}, i, from);
      }
      rebroadcast_routing();
    }
    return;
  }
}

void Controller::note_origin_alive(std::size_t origin) {
  if (origin >= aggregator_nodes_.size()) return;
  aggregator_last_seen_[origin] = simulation_.now();
  aggregator_reported_[origin] = true;
  if (aggregators_[origin] == net::kInvalidNode) {
    aggregators_[origin] = aggregator_nodes_[origin];
    ++aggregator_restores_;
    if (recorder_ != nullptr) {
      recorder_->emit(simulation_.now(),
                      obs::TraceEventKind::kRecoveryAggregatorRestore,
                      obs::TraceComponent::kController, {}, origin,
                      aggregator_nodes_[origin]);
    }
    rebroadcast_routing();
  }
}

void Controller::apply_delta_frame(const DeltaReportMessage& frame) {
  ++delta_frames_received_;
  const std::uint32_t o = frame.origin();
  // An origin index far beyond any plausible tier size would balloon
  // origins_; such a frame is garbage, not protocol state.
  if (o > 1'000'000u) return;
  if (o >= origins_.size()) origins_.resize(o + 1);
  OriginState& os = origins_[o];
  if (options_.aggregator_timeout > sim::SimTime::zero()) {
    note_origin_alive(o);
  }

  if (frame.kind() == DeltaReportMessage::Kind::kResync) {
    ++delta_resyncs_;
    os.resync_requested = false;
    // Verify the frame is internally consistent before trusting it as the
    // new truth: the checksum covers the aggregator's ledger after this
    // frame, which for a resync is exactly the frame's kUpdate entries.
    std::uint64_t checksum = 0;
    for (const auto& e : frame.entries()) {
      if (e.op == DeltaReportMessage::Op::kUpdate) {
        checksum ^= delta_member_mix(e.pna_id, e.state, e.instance);
      }
    }
    if (checksum != frame.checksum()) ++delta_checksum_failures_;
    // Mark-and-sweep slice replacement: everything the frame lists is
    // stamped, everything this origin claimed before but no longer lists
    // is forgotten.
    ++resync_mark_counter_;
    std::vector<std::uint64_t> old_ids = std::move(os.ids);
    os.ids.clear();
    for (const auto& e : frame.entries()) apply_delta_entry(o, e, true);
    for (std::uint64_t id : old_ids) {
      PnaRecord* rec = find_pna_mutable(id);
      if (rec != nullptr && rec->origin == o &&
          rec->resync_mark != resync_mark_counter_) {
        remove_record(id);
        ++delta_expires_applied_;
      }
    }
    os.expected_epoch = frame.epoch() + 1;
    os.synced = true;
    return;
  }

  // Delta frame: applying it out of order (or before any resync) would
  // silently diverge the membership view — skip it and ask the origin for
  // a full frame instead.
  if (!os.synced) {
    ++delta_frames_skipped_;
    request_resync(o, os);
    return;
  }
  if (frame.epoch() != os.expected_epoch) {
    os.synced = false;
    ++delta_gaps_;
    ++delta_frames_skipped_;
    request_resync(o, os);
    return;
  }
  for (const auto& e : frame.entries()) apply_delta_entry(o, e, false);
  os.expected_epoch = frame.epoch() + 1;
}

void Controller::apply_delta_entry(std::uint32_t origin,
                                   const DeltaReportMessage::Entry& entry,
                                   bool in_resync) {
  if (entry.op == DeltaReportMessage::Op::kExpire) {
    PnaRecord* rec = find_pna_mutable(entry.pna_id);
    // Only the owning origin may expire a record: a stale expiry from a
    // previous owner must not kill a member that re-homed elsewhere.
    if (rec != nullptr && rec->origin == origin) {
      remove_record(entry.pna_id);
      ++delta_expires_applied_;
    }
    return;
  }
  // The PNA id is its direct-channel address, so unicast replies bypass
  // the aggregation tier (same convention as the naive report).
  PnaRecord& rec =
      handle_status(entry.pna_id, entry.state, entry.instance,
                    static_cast<net::NodeId>(entry.pna_id), entry.trace);
  ++delta_entries_applied_;
  OriginState& os = origins_[origin];
  if (in_resync) {
    os.ids.push_back(entry.pna_id);
    rec.resync_mark = resync_mark_counter_;
    if (rec.origin != origin) {
      rec.origin = origin;
      rec.direct_listed = false;
    }
  } else if (rec.origin != origin) {
    rec.origin = origin;
    rec.direct_listed = false;
    os.ids.push_back(entry.pna_id);
  }
}

void Controller::remove_record(std::uint64_t pna_id) {
  PnaRecord* rec = find_pna_mutable(pna_id);
  if (rec == nullptr) return;
  if (rec->instance != kNoInstance) {
    auto it = instances_.find(rec->instance);
    if (it != instances_.end()) {
      Instance& inst = it->second;
      inst.joining.erase(pna_id);
      if (inst.members.erase(pna_id)) {
        --members_total_;
        ++members_pruned_;
        ++inst.pruned_since_tick;
        if (recorder_ != nullptr) {
          recorder_->emit(simulation_.now(),
                          obs::TraceEventKind::kMemberPruned,
                          obs::TraceComponent::kController, inst.trace,
                          pna_id, rec->instance);
        }
        note_member_change(inst);
      }
    }
  }
  if (rec->state == PnaState::kIdle) --idle_known_;
  --pnas_known_;
  *rec = PnaRecord{};
}

void Controller::request_resync(std::uint32_t origin, OriginState& os) {
  if (os.resync_requested) return;
  if (origin >= aggregator_nodes_.size()) return;
  const net::NodeId target = aggregator_nodes_[origin];
  if (target == net::kInvalidNode) return;
  os.resync_requested = true;
  ++delta_resync_requests_;
  // An empty kResync frame sent *downstream* is the resync request: the
  // aggregator answers by making its next flush a full frame, bounding
  // recovery to about one window instead of the resync_every cadence.
  network_.send(node_id_, target,
                std::make_shared<DeltaReportMessage>(
                    origin, 0, DeltaReportMessage::Kind::kResync, 0,
                    std::vector<DeltaReportMessage::Entry>{}));
}

void Controller::prune_direct() {
  const sim::SimTime horizon =
      sim::SimTime::from_seconds(default_heartbeat_.seconds() *
                                 options_.policy.stale_factor);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < direct_ids_.size(); ++i) {
    const std::uint64_t id = direct_ids_[i];
    PnaRecord* rec = find_pna_mutable(id);
    if (rec == nullptr || rec->origin != kDirectOrigin ||
        !rec->direct_listed) {
      continue;  // re-homed to an aggregator or already gone: drop it
    }
    if (simulation_.now() - rec->last_seen > horizon) {
      rec->direct_listed = false;
      remove_record(id);
      continue;
    }
    direct_ids_[kept++] = id;
  }
  direct_ids_.resize(kept);
}

void Controller::trim_direct(Instance& inst, std::size_t count) {
  if (count == 0) return;
  // The Controller only hears *changes* in delta mode, so steady-state
  // members never re-report and the naive trim-on-heartbeat would starve;
  // pick members now and reset them by unicast immediately.
  std::vector<std::uint64_t> victims;
  victims.reserve(count);
  for (std::uint64_t id : inst.members) {
    if (victims.size() >= count) break;
    victims.push_back(id);
  }
  for (std::uint64_t id : victims) {
    ++inst.status.unicast_resets;
    ++unicast_resets_;
    if (recorder_ != nullptr) {
      recorder_->emit(simulation_.now(), obs::TraceEventKind::kTrimReset,
                      obs::TraceComponent::kController, inst.trace, id,
                      inst.status.id);
    }
    network_.send(node_id_, static_cast<net::NodeId>(id),
                  std::make_shared<HeartbeatReplyMessage>(
                      inst.status.id, HeartbeatCommand::kReset));
    inst.members.erase(id);
    --members_total_;
    note_member_change(inst);
    PnaRecord* rec = find_pna_mutable(id);
    if (rec != nullptr) {
      rec->instance = kNoInstance;
      if (rec->state != PnaState::kIdle) ++idle_known_;
      rec->state = PnaState::kIdle;
      rec->suppress_busy = true;
    }
  }
}

void Controller::rebroadcast_routing() {
  ControlMessage hello;
  hello.type = ControlType::kReset;
  hello.instance = kNoInstance;  // matches no instance: routing update only
  hello.probability = 0.0;
  hello.controller_node = node_id_;
  hello.backend_node = net::kInvalidNode;
  hello.heartbeat_interval = default_heartbeat_;
  broadcast_control(hello);
}

void Controller::crash() {
  if (crashed_) return;
  crashed_ = true;
  network_.unregister_endpoint(node_id_);
  if (monitor_running_) {
    monitor_.cancel();
    monitor_running_ = false;
  }
  // In-flight consolidation state dies with the process: the PNA directory
  // and every instance's membership view. The stable-storage side survives
  // (instance specs, staged carousel content, key, aggregator config).
  pna_dense_.clear();
  pnas_known_ = 0;
  idle_known_ = 0;
  members_total_ = 0;
  origins_.clear();
  direct_ids_.clear();
  for (auto& [id, inst] : instances_) {
    inst.members.clear();
    inst.joining.clear();
    inst.pending_trims = 0;
    inst.pruned_since_tick = 0;
    note_member_change(inst);
  }
}

void Controller::restart() {
  if (!crashed_) return;
  crashed_ = false;
  network_.reattach_endpoint(node_id_, this);
  // Benefit of the doubt on liveness clocks: everyone gets a full timeout
  // window to be heard from again before being pruned or failed over.
  for (sim::SimTime& seen : aggregator_last_seen_) seen = simulation_.now();
  if (deployed_) {
    monitor_ = sim::PeriodicTask(
        simulation_, simulation_.now() + options_.policy.monitor_interval,
        options_.policy.monitor_interval, [this] { monitor_tick(); });
    monitor_running_ = true;
  }
  // Membership now rebuilds purely from resumed heartbeats; until idle
  // reports repopulate the directory, the monitor's empty-pool gate keeps
  // it from broadcasting spurious wakeups.
}

bool Controller::corrupt_on_air_control() {
  if (crashed_ || corrupted_content_ != 0 || last_config_content_ == 0) {
    return false;
  }
  const std::optional<ControlMessage> current =
      store_.get_control(last_config_content_);
  if (!current) return false;
  // Flip a signed field after signing: every receiver's verification now
  // fails, and because the VerifyCache keys on the canonical bytes' digest,
  // the rejection is memoized under the *tampered* digest — the legitimate
  // generation's entry is untouched.
  ControlMessage tampered = *current;
  tampered.probability = tampered.probability * 0.5 + 0.25;
  corrupted_content_ = store_.put_control(tampered);
  for (auto* channel : channels_) {
    channel->put_file(options_.config_file, util::Bits::from_bytes(512),
                      corrupted_content_);
  }
  stage_and_commit();
  return true;
}

void Controller::restore_on_air_control() {
  if (corrupted_content_ == 0) return;
  if (last_config_content_ != 0) {
    for (auto* channel : channels_) {
      channel->put_file(options_.config_file, util::Bits::from_bytes(512),
                        last_config_content_);
    }
    stage_and_commit();
  }
  store_.remove(corrupted_content_);
  corrupted_content_ = 0;
}

sim::SimTime Controller::staleness_horizon(const Instance& inst) const {
  return sim::SimTime::from_seconds(inst.spec.heartbeat_interval.seconds() *
                                    options_.policy.stale_factor);
}

void Controller::monitor_tick() {
  const auto wall0 = std::chrono::steady_clock::now();
  monitor_tick_impl();
  monitor_wall_seconds_ +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();
}

void Controller::monitor_tick_impl() {
  // Aggregator failover: void silent aggregators from the routing so their
  // PNAs re-home to the Controller. Sticky until a report resumes
  // (note_aggregator_alive restores the slot).
  if (options_.aggregator_timeout > sim::SimTime::zero() &&
      !aggregator_nodes_.empty()) {
    bool changed = false;
    for (std::size_t i = 0; i < aggregator_nodes_.size(); ++i) {
      if (aggregators_[i] == net::kInvalidNode || !aggregator_reported_[i]) {
        continue;
      }
      if (simulation_.now() - aggregator_last_seen_[i] >
          options_.aggregator_timeout) {
        aggregators_[i] = net::kInvalidNode;
        ++aggregator_failovers_;
        changed = true;
        if (recorder_ != nullptr) {
          recorder_->emit(simulation_.now(),
                          obs::TraceEventKind::kRecoveryAggregatorFailover,
                          obs::TraceComponent::kController, {}, i,
                          aggregator_nodes_[i]);
        }
      }
    }
    if (changed) rebroadcast_routing();
  }

  // Phase 1: rebuild the membership view of EVERY active instance before
  // any policy decision. Pruning one instance changes the consolidated
  // telemetry (members_total_, effectively the idle pool the engine will
  // act on), so interleaving prune and decide — the old single-pass loop —
  // handed later instances' decisions a snapshot in which earlier
  // instances were current but their own staleness was not yet applied.
  if (options_.heartbeat_mode == HeartbeatMode::kDelta) {
    // Delta mode: staleness pruning happened upstream (aggregator expiry
    // deltas arrive between ticks and are applied on ingest); only direct
    // reporters — the failover fallback — need a windowed walk, and it is
    // over that small worklist, not the whole membership.
    prune_direct();
    for (auto& [id, inst] : instances_) {
      if (!inst.status.active) continue;
      inst.pruned_last_tick = inst.pruned_since_tick;
      inst.pruned_since_tick = 0;
    }
  } else {
    for (auto& [id, inst] : instances_) {
      if (!inst.status.active) continue;
      prune_instance(id, inst);
    }
  }

  // Phase 2: per-instance decisions against the fully rebuilt view.
  for (auto& [id, inst] : instances_) {
    if (!inst.status.active) continue;

    const std::size_t current = inst.members.size() + inst.joining.size();
    const std::size_t target = inst.status.target_size;

    if (current < target && inst.recruiting) {
      // Recomposition: retransmit the wakeup with an engine-chosen
      // probability — but only after the previous wakeup has had time to
      // propagate (mean acquisition is 1.5 carousel cycles; we wait twice
      // that before concluding that members are missing rather than still
      // joining).
      const sim::SimTime cooldown =
          sim::SimTime::from_seconds(
              1.5 * channels_.front()->acquisition_horizon_seconds()) +
          inst.spec.heartbeat_interval;
      if (simulation_.now() - inst.last_wakeup_at < cooldown) {
        continue;
      }
      // Naive mode: the windowed idle-pool scan is O(population) and stays
      // confined to the recruitment path past the cooldown. Delta mode
      // reads the O(1) incremental mirror instead.
      const std::size_t idle = recruitment_idle_pool();
      if (idle == 0) {
        // Nobody to recruit: rebroadcasting would only churn the carousel.
        // A future idle heartbeat re-enables recomposition.
        continue;
      }
      const control::ControlAction action =
          engine_->decide(observe(id, inst, idle));
      if (action.probability && *action.probability > 0.0) {
        ControlMessage wakeup;
        wakeup.type = ControlType::kWakeup;
        wakeup.instance = id;
        wakeup.requirements = inst.spec.requirements;
        wakeup.heartbeat_interval = inst.spec.heartbeat_interval;
        wakeup.image = inst.image;
        wakeup.controller_node = node_id_;
        wakeup.backend_node = inst.backend_node;
        wakeup.probability = *action.probability;
        wakeup.trace = inst.trace;
        broadcast_control(wakeup);
        inst.last_wakeup_at = simulation_.now();
        ++inst.status.wakeups_broadcast;
        ++recompositions_;
      }
      if (options_.heartbeat_mode == HeartbeatMode::kDelta) {
        trim_direct(inst, action.trim);
        inst.pending_trims = 0;
      } else {
        inst.pending_trims = action.trim;
      }
    } else if (inst.members.size() > target) {
      // Trim only confirmed members; joiners that push past the target are
      // shed as their busy heartbeats arrive. The engine decides how many
      // (a hysteresis band may hold some back); no idle-pool scan here.
      const control::ControlAction action =
          engine_->decide(observe(id, inst, /*idle_pool=*/0));
      if (options_.heartbeat_mode == HeartbeatMode::kDelta) {
        trim_direct(inst, action.trim);
        inst.pending_trims = 0;
      } else {
        inst.pending_trims = action.trim;
      }
    } else {
      inst.pending_trims = 0;
    }
  }
}

void Controller::prune_instance(InstanceId id, Instance& inst) {
  // Prune members whose heartbeats stopped (receiver switched off or tuned
  // away): they are presumed lost and must be replaced.
  const sim::SimTime horizon = staleness_horizon(inst);
  std::vector<std::uint64_t> stale;
  for (std::uint64_t member : inst.members) {
    const PnaRecord* rec = find_pna(member);
    if (rec == nullptr || simulation_.now() - rec->last_seen > horizon) {
      stale.push_back(member);
    }
  }
  for (std::uint64_t member : stale) {
    inst.members.erase(member);
    --members_total_;
    ++members_pruned_;
    if (recorder_ != nullptr) {
      recorder_->emit(simulation_.now(), obs::TraceEventKind::kMemberPruned,
                      obs::TraceComponent::kController, inst.trace, member,
                      id);
    }
  }
  if (!stale.empty()) note_member_change(inst);
  std::vector<std::uint64_t> stale_joining;
  for (std::uint64_t j : inst.joining) {
    const PnaRecord* rec = find_pna(j);
    if (rec == nullptr || simulation_.now() - rec->last_seen > horizon) {
      stale_joining.push_back(j);
    }
  }
  for (std::uint64_t j : stale_joining) inst.joining.erase(j);
  inst.pruned_last_tick = stale.size();
}

}  // namespace oddci::core
