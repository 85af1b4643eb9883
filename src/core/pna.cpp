#include "core/pna.hpp"

#include <algorithm>
#include <stdexcept>

namespace oddci::core {

PnaXlet::PnaXlet(const PnaEnvironment& environment) : env_(&environment) {
  if (env_->content_store == nullptr) {
    throw std::invalid_argument("PnaXlet: null content store");
  }
  if (env_->counters == nullptr || env_->acquire_latency == nullptr) {
    throw std::invalid_argument("PnaXlet: null counters");
  }
  if (env_->verify_cache == nullptr || env_->heartbeat_pool == nullptr) {
    throw std::invalid_argument("PnaXlet: null verify cache or heartbeat pool");
  }
  if (env_->heartbeats == nullptr || env_->heartbeats->fire() != &beat) {
    throw std::invalid_argument("PnaXlet: no heartbeat cadence firing beat()");
  }
}

PnaXlet::~PnaXlet() { cancel_heartbeat(); }

void PnaXlet::set_ctx(obs::TraceContext TraceState::*field,
                      obs::TraceContext ctx) {
  if (!trace_) {
    if (!ctx.valid()) return;
    trace_ = std::make_unique<TraceState>();
  }
  (*trace_).*field = ctx;
}

template <typename F>
void PnaXlet::schedule_guarded(sim::SimTime delay, F fn) {
  context_->simulation().schedule_in(
      delay,
      [context = context_, gen = context_->generation(), fn = std::move(fn)] {
        if (context->generation() == gen) fn();
      });
}

std::uint64_t PnaXlet::pna_id() const {
  return context_ != nullptr ? context_->receiver().node_id() : 0;
}

double PnaXlet::draw() {
  return util::keyed_uniform(
      env_->draw_seed, pna_id(),
      std::uint64_t{context_->generation()} << 32 | draws_++);
}

obs::TraceContext PnaXlet::trace_emit(obs::TraceEventKind kind,
                                      obs::TraceContext parent,
                                      std::uint64_t arg) {
  if (env_->recorder == nullptr) return {};
  return env_->recorder->emit(context_->simulation().now(), kind,
                             obs::TraceComponent::kPna, parent, pna_id(),
                             arg);
}

void PnaXlet::init_xlet(dtv::XletContext& context) {
  if (&env_->heartbeats->simulation() != &context.simulation()) {
    throw std::logic_error("PnaXlet: heartbeat cadence of another shard");
  }
  context_ = &context;
}

void PnaXlet::beat(void* agent) {
  static_cast<PnaXlet*>(agent)->send_heartbeat();
}

void PnaXlet::start_xlet() {
  if (context_ == nullptr) {
    throw std::logic_error("PnaXlet: started before init");
  }
  started_ = true;
  hung_ = false;
  context_->receiver().set_message_handler(this);
  // The carousel generation that delivered this Xlet also carries the
  // configuration file; acquire it.
  acquire_config();
}

void PnaXlet::pause_xlet() {
  started_ = false;
  context_->receiver().clear_message_handler();
}

void PnaXlet::destroy_xlet(bool /*unconditional*/) {
  // The ApplicationManager has bumped the host generation: every callback
  // this Xlet issued is already inert.
  started_ = false;
  pace_pending_ = false;
  cancel_heartbeat();
  // Teardown with a task in flight (e.g. a channel change destroying the
  // Xlet): hand the task back like a reset does. If the receiver is being
  // powered off the send is dropped, and the Backend's timeout covers it.
  abort_task();
  context_->receiver().clear_message_handler();
  dve_.reset();
  joining_ = false;
  pending_result_.reset();
}

void PnaXlet::abort_task() {
  if (running_exec_ != 0) {
    context_->receiver().cancel_execution(running_exec_);
    running_exec_ = 0;
  }
  if (task_running_ && dve_ && backend_node_ != net::kInvalidNode) {
    context_->receiver().send(
        backend_node_,
        std::make_shared<TaskAbortMessage>(
            dve_->instance(), running_task_, pna_id(),
            ctx(&TraceState::running_task), running_replica_));
  }
  task_running_ = false;
}

void PnaXlet::freeze() {
  // Every callback captured under the old host generation becomes inert.
  context_->bump_generation();
  pace_pending_ = false;
  cancel_heartbeat();
  if (running_exec_ != 0) {
    context_->receiver().cancel_execution(running_exec_);
    running_exec_ = 0;
  }
}

void PnaXlet::cancel_heartbeat() {
  if (heartbeat_ != sim::Cadence::kNone) {
    env_->heartbeats->cancel(heartbeat_);
    heartbeat_ = sim::Cadence::kNone;
  }
}

bool PnaXlet::member_of(InstanceId instance) const {
  return instance != kNoInstance &&
         ((dve_ && dve_->instance() == instance) ||
          (joining_ && pending_join_ == instance));
}

void PnaXlet::on_carousel_update(const broadcast::CarouselSnapshot&) {
  if (!started_) return;
  acquire_config();
}

void PnaXlet::acquire_config() {
  if (hung_) return;
  // Module-version dedupe (DSM-CC semantics): a configuration generation
  // this agent has handled, or is reading, is not read again. Real
  // receivers keep assembling the module they are already reading and only
  // restart on a module-version bump; here a commit that leaves the
  // configuration as it was (a bare recommit) would otherwise cost every
  // agent of the population one more read.
  if (const broadcast::CarouselSnapshot* on_air =
          context_->current_carousel()) {
    if (const broadcast::CarouselFile* announced =
            on_air->find(env_->config_file)) {
      if (announced->content_id == last_handled_content_ ||
          announced->content_id == pending_read_content_) {
        return;
      }
      pending_read_content_ = announced->content_id;
    }
  }
  context_->read_carousel_file(env_->config_file, *this, kConfigRead);
}

void PnaXlet::on_carousel_read(std::uint16_t token, bool ok,
                               const broadcast::CarouselFile& file) {
  if (token == kConfigRead) {
    on_config_read(ok, file);
  } else {
    on_image_read(token, ok, file);
  }
}

void PnaXlet::on_config_read(bool ok, const broadcast::CarouselFile& file) {
  if (!started_) return;
  if (!ok) {
    // Allow a retry of this generation (its module changed meanwhile).
    pending_read_content_ = 0;
    return;
  }
  // Completion-side belt-and-braces for readers that raced a generation
  // change between issue and delivery.
  if (file.content_id == last_handled_content_) return;
  last_handled_content_ = file.content_id;
  // The population shares one immutable decoded message (canonical bytes
  // + digest computed once per broadcast), and the signature check is
  // memoized across the shard's agents.
  const PreparedControlPtr control =
      env_->content_store->get_control_shared(file.content_id);
  if (!control) return;
  handle_control(control->message,
                 control->verify_with(env_->trusted_key, *env_->verify_cache));
}

void PnaXlet::handle_control(const ControlMessage& message, bool authentic) {
  ++env_->counters->control_messages_seen;
  // Accept only messages signed by the associated Controller.
  if (!authentic) {
    ++env_->counters->signature_failures;
    return;
  }
  set_ctx(&TraceState::control,
          trace_emit(obs::TraceEventKind::kControlReceived, message.trace,
                     message.instance));
  // The control message tells the agent where its Controller lives; start
  // heartbeating as soon as that is known (idle PNAs report too — this is
  // how the Controller sizes the idle pool).
  ensure_heartbeat(message);

  switch (message.type) {
    case ControlType::kWakeup:
      handle_wakeup(message);
      break;
    case ControlType::kReset:
      handle_reset(message);
      break;
  }
}

void PnaXlet::handle_wakeup(const ControlMessage& message) {
  // Busy PNAs simply drop wakeup messages.
  if (dve_ || joining_) {
    ++env_->counters->wakeups_dropped_busy;
    trace_emit(obs::TraceEventKind::kWakeupDroppedBusy, ctx(&TraceState::control),
               message.instance);
    return;
  }
  // Compliance with the requirements present in the message.
  const auto& profile = context_->receiver().profile();
  const Requirements& req = message.requirements;
  const bool compliant =
      (req.min_ram.count() == 0 || profile.ram >= req.min_ram) &&
      (req.min_flash.count() == 0 || profile.flash >= req.min_flash) &&
      (req.device_kind.empty() || req.device_kind == profile.name);
  if (!compliant) {
    ++env_->counters->wakeups_rejected_requirements;
    trace_emit(obs::TraceEventKind::kWakeupRejectedRequirements,
               ctx(&TraceState::control), message.instance);
    return;
  }
  // The probability attribute throttles how many idle PNAs handle the
  // message (instance-size control).
  if (!(draw() < message.probability)) {
    ++env_->counters->wakeups_dropped_probability;
    trace_emit(obs::TraceEventKind::kWakeupDroppedProbability, ctx(&TraceState::control),
               message.instance);
    return;
  }
  join_instance(message);
}

void PnaXlet::handle_reset(const ControlMessage& message) {
  // A reset targets exactly one instance (a reset for kNoInstance is the
  // Controller's deployment hello and matches nothing).
  if (!member_of(message.instance)) return;
  ++env_->counters->resets;
  leave_instance();
}

void PnaXlet::join_instance(const ControlMessage& message) {
  joining_ = true;
  pending_join_ = message.instance;
  backend_node_ = message.backend_node;
  join_started_at_ = context_->simulation().now();
  set_ctx(&TraceState::join,
          trace_emit(obs::TraceEventKind::kWakeupAccepted, ctx(&TraceState::control),
                     message.instance));
  // Event-driven status change: tell the Controller immediately so its
  // idle-pool estimate does not lag a full heartbeat interval.
  send_heartbeat();

  // Load the user application image from the carousel — the dominant cost
  // of the wakeup process (W = 1.5 I / beta on average).
  context_->read_carousel_file(message.image.name, *this,
                               image_read(message.instance));
}

void PnaXlet::on_image_read(std::uint16_t token, bool ok,
                            const broadcast::CarouselFile& file) {
  if (!started_) return;
  // Reset since, or issued for another instance's join. A read issued
  // before a reset out of the instance now joined again still serves: the
  // module is the same.
  if (!joining_ || token != image_read(pending_join_)) return;
  const InstanceId instance = pending_join_;
  joining_ = false;
  if (!ok) {
    // The module went off air (instance destroyed mid-join) or was
    // superseded; report the state change so the Controller's accounting
    // stays fresh.
    trace_emit(obs::TraceEventKind::kJoinAborted, ctx(&TraceState::join), instance);
    set_ctx(&TraceState::join, {});
    send_heartbeat();
    return;
  }
  ++env_->counters->joins;
  env_->acquire_latency->record(
      (context_->simulation().now() - join_started_at_).seconds());
  set_ctx(&TraceState::join,
          trace_emit(obs::TraceEventKind::kImageAcquired, ctx(&TraceState::join),
                     instance));
  // The DVE runs the image as read: the Controller stages it under the
  // wakeup's image id, name and size.
  dve_ = std::make_unique<Dve>(
      instance, ImageSpec{file.content_id, file.name, file.size},
      context_->simulation().now());
  send_heartbeat();  // joining -> busy: membership is event-driven
  request_task();
}

void PnaXlet::leave_instance() {
  // Hand the abandoned task back so the Backend can requeue it now rather
  // than after the re-dispatch timeout.
  abort_task();
  if (dve_ || joining_) {
    trace_emit(obs::TraceEventKind::kResetApplied, ctx(&TraceState::join),
               instance());
  }
  set_ctx(&TraceState::running_task, {});
  set_ctx(&TraceState::join, {});
  dve_.reset();
  joining_ = false;
  // Any recovery timers in flight are for an instance we just left.
  pending_result_.reset();
  ++result_gen_;
  ++request_gen_;
  send_heartbeat();
}

void PnaXlet::ensure_heartbeat(const ControlMessage& message) {
  if (message.controller_node == net::kInvalidNode) return;
  // With an aggregation tier, heartbeats go to this agent's shard
  // aggregator instead of straight to the Controller. A voided slot
  // (aggregator failed over) re-homes the shard to the Controller.
  net::NodeId target = message.controller_node;
  if (!message.aggregators.empty()) {
    target = message.aggregators[pna_id() % message.aggregators.size()];
    if (target == net::kInvalidNode) target = message.controller_node;
  }
  heartbeat_target_ = target;
  if (message.heartbeat_interval <= sim::SimTime::zero()) return;
  if (heartbeat_ != sim::Cadence::kNone) {
    if (message.heartbeat_interval == env_->heartbeats->period(heartbeat_)) {
      return;
    }
    // The Controller re-parameterized the reporting cadence: re-arm.
    cancel_heartbeat();
  }
  // Desynchronize the population: first beat at a random phase.
  const double phase = draw() * message.heartbeat_interval.seconds();
  heartbeat_ = env_->heartbeats->arm(
      this,
      context_->simulation().now() + sim::SimTime::from_seconds(phase),
      message.heartbeat_interval);
}

void PnaXlet::send_heartbeat() {
  if (!started_ || heartbeat_target_ == net::kInvalidNode) return;
  const sim::SimTime window = env_->heartbeat_pace_window;
  if (window <= sim::SimTime::zero()) {
    send_heartbeat_now();
    return;
  }
  // Paced mode: a beat already queued for our next phase slot absorbs this
  // one (the slot transmits the state current at release time, so nothing
  // is lost — only the redundant intermediate report).
  if (pace_pending_) {
    ++env_->counters->heartbeats_paced;
    return;
  }
  pace_pending_ = true;
  // Deterministic per-agent phase in [0, window): keyed by the pacing
  // stream seed and the agent id alone, the same slot in every life.
  const double frac =
      util::keyed_uniform(env_->heartbeat_phase_seed, pna_id(), 0);
  auto& simulation = context_->simulation();
  const sim::SimTime now = simulation.now();
  const std::int64_t wus = window.micros();
  const std::int64_t phase_us =
      static_cast<std::int64_t>(frac * static_cast<double>(wus));
  sim::SimTime release =
      sim::SimTime::from_micros((now.micros() / wus) * wus + phase_us);
  if (release <= now) release += window;
  schedule_guarded(release - now, [this] {
    pace_pending_ = false;
    if (!started_ || hung_) return;
    send_heartbeat_now();
  });
}

void PnaXlet::send_heartbeat_now() {
  if (!started_ || heartbeat_target_ == net::kInvalidNode) return;
  ++env_->counters->heartbeats_sent;
  // Heartbeats chain off the join in progress when there is one (they are
  // what confirms membership) and off the last control receipt otherwise.
  const obs::TraceContext parent =
      ctx(&TraceState::join).valid() ? ctx(&TraceState::join) : ctx(&TraceState::control);
  const obs::TraceContext ctx =
      trace_emit(obs::TraceEventKind::kHeartbeatSent, parent,
                 static_cast<std::uint64_t>(state()));
  // The pool recycles an exclusively-held message (object + control
  // block) instead of allocating one per beat.
  context_->receiver().send(
      heartbeat_target_,
      env_->heartbeat_pool->acquire(pna_id(), state(), instance(), ctx));
}

void PnaXlet::request_task() {
  if (!dve_ || backend_node_ == net::kInvalidNode) return;
  context_->receiver().send(
      backend_node_,
      std::make_shared<TaskRequestMessage>(dve_->instance(), pna_id()));
  if (env_->recovery != nullptr &&
      env_->recovery->request_watchdog > sim::SimTime::zero()) {
    arm_request_watchdog();
  }
}

void PnaXlet::arm_request_watchdog() {
  schedule_guarded(env_->recovery->request_watchdog,
                   [this, gen = ++request_gen_] {
                     if (!started_ || hung_) return;
                     if (gen != request_gen_) return;  // answered in time
                     if (!dve_ || running_exec_ != 0) return;
                     ++env_->recovery->request_retries;
                     trace_emit(obs::TraceEventKind::kRecoveryRequestRetry,
                                ctx(&TraceState::control), 0);
                     request_task();  // re-arms the watchdog
                   });
}

void PnaXlet::arm_result_retry() {
  const std::uint32_t gen = ++result_gen_;
  // Exponential backoff with deterministic jitter: delay_n in
  // [0.5, 1.0) * base * 2^attempts, so colliding retries from agents that
  // lost the same ack desynchronize.
  const double backoff =
      env_->recovery->result_retry_base.seconds() *
      static_cast<double>(1ull << std::min(pending_result_->attempts, 16));
  const double delay = backoff * (0.5 + 0.5 * draw());
  schedule_guarded(sim::SimTime::from_seconds(delay), [this, gen] {
    if (!started_ || hung_) return;
    if (gen != result_gen_ || !pending_result_) return;
    if (pending_result_->attempts >= env_->recovery->result_retry_limit) {
      // Give up: the Backend's timeout sweep re-dispatches the task.
      pending_result_.reset();
      ++result_gen_;
      return;
    }
    ++pending_result_->attempts;
    ++env_->recovery->result_retries;
    const obs::TraceContext ctx =
        trace_emit(obs::TraceEventKind::kRecoveryResultRetry,
                   pending_result_->trace, pending_result_->task_index);
    context_->receiver().send(
        backend_node_,
        std::make_shared<TaskResultMessage>(
            pending_result_->instance, pending_result_->task_index, pna_id(),
            pending_result_->result_size, ctx, pending_result_->digest,
            pending_result_->replica));
    arm_result_retry();
  });
}

void PnaXlet::schedule_task_poll() {
  schedule_guarded(env_->task_poll_interval, [this] {
    if (started_) request_task();
  });
}

void PnaXlet::on_direct_message(net::NodeId from,
                                const net::MessagePtr& message) {
  if (hung_) return;
  switch (message->tag()) {
    case kTagHeartbeatReply: {
      const auto& reply =
          static_cast<const HeartbeatReplyMessage&>(*message);
      if (reply.command() == HeartbeatCommand::kReset &&
          member_of(reply.instance())) {
        ++env_->counters->resets;
        leave_instance();
      }
      break;
    }
    case kTagTaskAssign: {
      ++request_gen_;  // the request was answered; stop the watchdog
      const auto& assign = static_cast<const TaskAssignMessage&>(*message);
      if (!dve_ || assign.instance() != dve_->instance()) {
        // A reset raced with the assignment: hand the task back now rather
        // than leave it to the Backend's re-dispatch timeout.
        context_->receiver().send(
            from, std::make_shared<TaskAbortMessage>(
                      assign.instance(), assign.task_index(), pna_id(),
                      assign.trace(), assign.replica()));
        break;
      }
      // Duplicate delivery of an assignment we are already executing (or a
      // second assignment racing a watchdog re-request): keep the first.
      if (running_exec_ != 0) break;
      start_task(assign);
      break;
    }
    case kTagTaskResultAck: {
      const auto& ack = static_cast<const TaskResultAckMessage&>(*message);
      if (pending_result_ && pending_result_->instance == ack.instance() &&
          pending_result_->task_index == ack.task_index()) {
        pending_result_.reset();
        ++result_gen_;  // invalidate the in-flight retry timer
      }
      break;
    }
    case kTagNoTask: {
      ++request_gen_;  // the request was answered; stop the watchdog
      if (!dve_) break;
      // Queue exhausted: the PNA remains a member of the instance until a
      // reset, polling lazily in case tasks are re-queued (churn recovery).
      schedule_task_poll();
      break;
    }
    default:
      break;
  }
}

void PnaXlet::start_task(const TaskAssignMessage& assign) {
  const std::uint64_t task_index = assign.task_index();
  const util::Bits result_size = assign.result_size();
  const InstanceId instance = dve_->instance();
  const std::uint32_t replica = assign.replica();

  // Byzantine gate: with a profile block attached, this agent stamps a
  // result digest — the canonical one when honest, a forged one when
  // adversarial. Without a block, digest 0 keeps the pre-verification
  // wire bytes bit for bit.
  auto profile = fault::ByzantineProfile::kHonest;
  std::uint64_t digest = 0;
  if (env_->byzantine != nullptr) {
    const auto* table = env_->byzantine->table;
    const auto index =
        static_cast<std::size_t>(pna_id() - env_->byzantine->base);
    if (table != nullptr) profile = table->profile(index);
    digest = profile == fault::ByzantineProfile::kHonest
                 ? fault::honest_result_digest(instance, task_index)
                 : fault::forged_result_digest(table->forge_seed(index),
                                               instance, task_index);
  }

  if (profile == fault::ByzantineProfile::kFreeRider) {
    // Free-rider: accept the task, skip the compute entirely, return
    // garbage immediately — to the Backend it looks like an absurdly fast
    // completion; only the digest (and the spot-check record) gives it
    // away.
    ++env_->counters->results_freeridden;
    finish_task(task_index, result_size, instance, digest, replica,
                assign.trace());
    return;
  }

  task_running_ = true;
  running_task_ = task_index;
  running_replica_ = replica;
  set_ctx(&TraceState::running_task, assign.trace());
  const bool forged = profile != fault::ByzantineProfile::kHonest;
  running_exec_ = context_->receiver().execute(
      assign.reference_seconds(),
      [this, task_index, result_size, instance, digest, replica, forged] {
        running_exec_ = 0;
        task_running_ = false;
        if (!dve_ || dve_->instance() != instance) return;
        if (forged) ++env_->counters->results_forged;
        const obs::TraceContext parent = ctx(&TraceState::running_task);
        set_ctx(&TraceState::running_task, {});
        finish_task(task_index, result_size, instance, digest, replica,
                    parent);
      });
}

void PnaXlet::finish_task(std::uint64_t task_index, util::Bits result_size,
                          InstanceId instance, std::uint64_t digest,
                          std::uint32_t replica, obs::TraceContext parent) {
  ++env_->counters->tasks_completed;
  dve_->record_task_completed();
  const obs::TraceContext done =
      trace_emit(obs::TraceEventKind::kTaskExecuted, parent, task_index);
  context_->receiver().send(
      backend_node_,
      std::make_shared<TaskResultMessage>(instance, task_index, pna_id(),
                                          result_size, done, digest, replica));
  if (env_->recovery != nullptr) {
    // Hold the result for bounded retry until the Backend acks.
    pending_result_ = std::make_unique<PendingResult>(PendingResult{
        instance, task_index, result_size, done, 0, digest, replica});
    arm_result_retry();
  }
  request_task();
}

bool PnaXlet::fault_crash() {
  if (!started_ || context_ == nullptr) return false;
  // The process dies: every outstanding callback, read, and timer becomes
  // inert; the relaunched Xlet runs under the new host generation.
  freeze();
  hung_ = false;
  // No abort goes out — a crashed process cannot say goodbye. The
  // Backend's timeout sweep recovers any task that was in flight.
  task_running_ = false;
  trace_.reset();
  pending_result_.reset();
  ++result_gen_;
  ++request_gen_;
  dve_.reset();
  joining_ = false;
  heartbeat_target_ = net::kInvalidNode;
  backend_node_ = net::kInvalidNode;
  last_handled_content_ = 0;
  pending_read_content_ = 0;
  // Middleware watchdog relaunch: the trigger application starts over and
  // re-reads the on-air configuration, which re-homes it (heartbeats,
  // possibly a fresh join if a wakeup is on air).
  acquire_config();
  return true;
}

bool PnaXlet::fault_hang(sim::SimTime duration) {
  if (!started_ || hung_ || context_ == nullptr) return false;
  hung_ = true;
  // A frozen process fires no timers and services no I/O: invalidate all
  // outstanding callbacks like a crash does, but keep the state so the
  // agent *looks* alive (stale membership) until the watchdog acts.
  freeze();
  schedule_guarded(duration, [this] {
    if (!started_ || !hung_) return;
    // Watchdog: kill the frozen process and relaunch it.
    hung_ = false;
    fault_crash();
  });
  return true;
}

}  // namespace oddci::core
