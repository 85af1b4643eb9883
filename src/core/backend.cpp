#include "core/backend.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/verify.hpp"

namespace oddci::core {

Backend::Backend(sim::Simulation& simulation, net::Network& network,
                 const net::LinkSpec& link, BackendOptions options)
    : simulation_(simulation), network_(network), options_(options) {
  node_id_ = network_.register_endpoint(this, link);
}

Backend::~Backend() {
  if (sweeper_running_) sweeper_.cancel();
}

bool Backend::would_admit(const workload::Job& job) {
  if (engine_ == nullptr) return true;
  control::AdmissionRequest request;
  request.now = simulation_.now();
  request.tasks = job.task_count();
  request.input_bits = job.avg_input_bits();
  request.result_bits = job.avg_result_bits();
  request.task_seconds = job.avg_reference_seconds() * admission_slowdown_;
  request.delta = admission_delta_;
  if (verifier_ != nullptr) {
    // Verified execution multiplies every task's bandwidth/compute cost by
    // the observed redundancy factor; discount the suitability accordingly.
    request.verify_overhead = verifier_->overhead_estimate();
  }
  return engine_->admit(request) == control::Admission::kAdmit;
}

void Backend::submit(const workload::Job& job, InstanceId instance,
                     std::function<void()> on_complete,
                     std::optional<sim::SimTime> clock_start,
                     obs::TraceContext trace) {
  if (active_) {
    throw std::logic_error("Backend: a job is already active");
  }
  job.validate();
  if (instance == kNoInstance) {
    throw std::invalid_argument("Backend: invalid instance id");
  }

  active_ = true;
  instance_ = instance;
  job_trace_ = trace;
  job_ = job;
  on_complete_ = std::move(on_complete);

  pending_.clear();
  outstanding_.clear();
  done_.assign(job_.tasks.size(), false);
  done_count_ = 0;
  retry_counts_.assign(job_.tasks.size(), 0);
  failed_.assign(job_.tasks.size(), false);
  failed_count_ = 0;
  job_failed_ = false;
  completion_times_.clear();
  completion_times_.reserve(job_.tasks.size());
  for (std::uint64_t i = 0; i < job_.tasks.size(); ++i) {
    pending_.push_back(i);
  }

  if (verifier_ != nullptr) {
    verifier_->begin_job(instance, &job_);
    pending_marks_.assign(job_.tasks.size(), 1);
    revote_counts_.assign(job_.tasks.size(), 0);
  }

  metrics_ = JobMetrics{};
  metrics_.submitted_at = clock_start.value_or(simulation_.now());
  metrics_.task_count = job_.tasks.size();

  if (options_.task_timeout > sim::SimTime::zero()) {
    arm_sweeper();
  }
}

void Backend::arm_sweeper() {
  sweeper_ = sim::PeriodicTask(
      simulation_, simulation_.now() + options_.sweep_interval,
      options_.sweep_interval, [this] { sweep_timeouts(); });
  sweeper_running_ = true;
}

void Backend::set_task_timeout(sim::SimTime timeout) {
  options_.task_timeout = timeout;
  if (!active_ || crashed_) return;
  if (sweeper_running_) {
    sweeper_.cancel();
    sweeper_running_ = false;
  }
  if (timeout > sim::SimTime::zero()) arm_sweeper();
}

void Backend::on_message(net::NodeId from, const net::MessagePtr& message) {
  switch (message->tag()) {
    case kTagTaskRequest:
      handle_request(from, static_cast<const TaskRequestMessage&>(*message));
      break;
    case kTagTaskResult:
      handle_result(from, static_cast<const TaskResultMessage&>(*message));
      break;
    case kTagTaskAbort: {
      const auto& abort = static_cast<const TaskAbortMessage&>(*message);
      if (!active_ || abort.instance() != instance_) break;
      const std::uint64_t index = abort.task_index();
      // Naive aborts always carry replica 0, so the composite key stays
      // numerically identical to the raw index there. Only the assignee
      // can hand a task back: a late or duplicated abort must not cancel
      // the task's re-dispatch to another PNA.
      const auto out = outstanding_.find(vkey(index, abort.replica()));
      if (index < done_.size() && !done_[index] && !failed_[index] &&
          out != outstanding_.end() && out->second.assignee == from) {
        outstanding_.erase(out);
        ++metrics_.aborts_received;
        if (verifier_ == nullptr && tracer_ != nullptr) {
          tracer_->discard("task.cycle", index);
        }
        if (recorder_ != nullptr) {
          recorder_->emit(simulation_.now(),
                          obs::TraceEventKind::kTaskAborted,
                          obs::TraceComponent::kBackend, abort.trace(),
                          abort.pna_id(), index);
        }
        if (verifier_ != nullptr) verifier_->on_replica_lost(index);
        note_retry(index);
      }
      break;
    }
    default:
      break;
  }
}

void Backend::handle_request(net::NodeId from,
                             const TaskRequestMessage& request) {
  if (verifier_ != nullptr) {
    handle_request_verified(from, request);
    return;
  }
  if (!active_ || request.instance() != instance_ || pending_.empty()) {
    ++metrics_.requests_denied;
    network_.send(node_id_, from,
                  std::make_shared<NoTaskMessage>(instance_));
    return;
  }
  const std::uint64_t index = pending_.front();
  pending_.pop_front();
  obs::TraceContext dispatch;
  if (recorder_ != nullptr) {
    dispatch = recorder_->emit(
        simulation_.now(), obs::TraceEventKind::kTaskDispatched,
        obs::TraceComponent::kBackend, job_trace_, from, index);
  }
  outstanding_[index] = Outstanding{from, simulation_.now(), dispatch};
  ++metrics_.assignments;
  if (tracer_ != nullptr) {
    tracer_->begin("task.cycle", index, simulation_.now().seconds());
  }

  const workload::Task& task = job_.tasks[index];
  network_.send(node_id_, from,
                std::make_shared<TaskAssignMessage>(
                    instance_, index, task.input_size, task.result_size,
                    task.reference_seconds, dispatch));
}

void Backend::handle_request_verified(net::NodeId from,
                                      const TaskRequestMessage& request) {
  if (!active_ || request.instance() != instance_) {
    ++metrics_.requests_denied;
    network_.send(node_id_, from, std::make_shared<NoTaskMessage>(instance_));
    return;
  }
  switch (verifier_->poll_gate(from)) {
    case Verifier::PollGate::kDeny:
      // Quarantined and no parole slot this poll.
      ++metrics_.requests_denied;
      network_.send(node_id_, from,
                    std::make_shared<NoTaskMessage>(instance_));
      return;
    case Verifier::PollGate::kSpot: {
      const Verifier::SpotTask spot = verifier_->make_spot_check(from);
      obs::TraceContext dispatch;
      if (recorder_ != nullptr) {
        dispatch = recorder_->emit(
            simulation_.now(), obs::TraceEventKind::kTaskDispatched,
            obs::TraceComponent::kBackend, job_trace_, from, spot.index);
      }
      // Spot checks never enter the outstanding table or the assignment
      // tally: they are verification traffic, not job progress.
      network_.send(node_id_, from,
                    std::make_shared<TaskAssignMessage>(
                        instance_, spot.index, spot.input_size,
                        spot.result_size, spot.reference_seconds, dispatch));
      return;
    }
    case Verifier::PollGate::kTask:
      break;
  }

  // Bounded two-pass scan over the head of the queue: prefer a task this
  // PNA may serve under the strict region-diversity rule (no two replicas
  // from one collusion-correlated aggregator region); fall back to any
  // task it has not already served. Stale entries (concluded or failed
  // since queuing) are dropped lazily as they surface.
  constexpr std::size_t kScanLimit = 32;
  std::size_t scanned = 0;
  std::size_t pos = 0;
  std::size_t strict_pos = pending_.size();
  std::size_t relaxed_pos = pending_.size();
  while (pos < pending_.size() && scanned < kScanLimit) {
    const std::uint64_t idx = pending_[pos];
    if (done_[idx] || failed_[idx] || !verifier_->needs_replica(idx)) {
      pending_marks_[idx] = 0;
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(pos));
      continue;
    }
    ++scanned;
    if (verifier_->may_assign(idx, from, /*region_strict=*/true)) {
      strict_pos = pos;
      break;
    }
    if (relaxed_pos == pending_.size() &&
        verifier_->may_assign(idx, from, /*region_strict=*/false)) {
      relaxed_pos = pos;
    }
    ++pos;
  }

  const bool relaxed = strict_pos >= pending_.size();
  const std::size_t pick = relaxed ? relaxed_pos : strict_pos;
  if (pick >= pending_.size()) {
    ++metrics_.requests_denied;
    network_.send(node_id_, from, std::make_shared<NoTaskMessage>(instance_));
    return;
  }
  const std::uint64_t index = pending_[pick];
  pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(pick));
  pending_marks_[index] = 0;
  if (relaxed) verifier_->note_region_relaxed();

  const Verifier::Dispatch d = verifier_->on_dispatch(index, from);
  if (d.more_replicas) push_pending(index);

  obs::TraceContext dispatch;
  if (recorder_ != nullptr) {
    dispatch = recorder_->emit(
        simulation_.now(), obs::TraceEventKind::kTaskDispatched,
        obs::TraceComponent::kBackend, job_trace_, from, index);
  }
  outstanding_[vkey(index, d.replica)] =
      Outstanding{from, simulation_.now(), dispatch};
  ++metrics_.assignments;

  const workload::Task& task = job_.tasks[index];
  network_.send(node_id_, from,
                std::make_shared<TaskAssignMessage>(
                    instance_, index, task.input_size, task.result_size,
                    task.reference_seconds, dispatch, d.replica));
}

void Backend::handle_result(net::NodeId from, const TaskResultMessage& result) {
  if (verifier_ != nullptr) {
    handle_result_verified(from, result);
    return;
  }
  if (result.instance() != instance_) return;
  const std::uint64_t index = result.task_index();
  if (index >= done_.size()) return;
  ++metrics_.results_received;
  // Ack before any dedup decision: the ack is idempotent, and a duplicate
  // delivery's sender needs it just as much as the first one's.
  if (options_.ack_results) {
    network_.send(node_id_, from,
                  std::make_shared<TaskResultAckMessage>(instance_, index));
  }
  if (!active_) {
    // Straggler of the final re-dispatch wave: the job already ended.
    ++metrics_.late_results;
    return;
  }
  if (done_[index] || failed_[index]) {
    // Re-dispatched, trim-raced, or duplicate-delivered tasks legitimately
    // finish twice; only the first result is kept.
    ++metrics_.duplicate_results;
    return;
  }
  done_[index] = true;
  ++done_count_;
  task_retries_.record(static_cast<double>(retry_counts_[index]));
  const auto out_it = outstanding_.find(index);
  if (out_it != outstanding_.end()) {
    task_cycle_.record(
        (simulation_.now() - out_it->second.assigned_at).seconds());
    outstanding_.erase(out_it);
  }
  if (tracer_ != nullptr) {
    tracer_->end("task.cycle", index, simulation_.now().seconds());
  }
  if (recorder_ != nullptr) {
    recorder_->emit(simulation_.now(), obs::TraceEventKind::kTaskResult,
                    obs::TraceComponent::kBackend, result.trace(),
                    result.pna_id(), index);
  }
  completion_times_.push_back(
      (simulation_.now() - metrics_.submitted_at).seconds());

  check_job_done();
}

void Backend::handle_result_verified(net::NodeId from,
                                     const TaskResultMessage& result) {
  if (result.instance() != instance_) return;
  const std::uint64_t index = result.task_index();
  if (verifier_->is_spot_index(index)) {
    // Seeded spot-check: verification traffic, graded against the
    // precomputed answer and kept out of every job-progress metric.
    if (options_.ack_results) {
      network_.send(node_id_, from,
                    std::make_shared<TaskResultAckMessage>(instance_, index));
    }
    verifier_->on_spot_result(index, result.pna_id(), result.digest());
    return;
  }
  if (index >= done_.size()) return;
  ++metrics_.results_received;
  if (options_.ack_results) {
    network_.send(node_id_, from,
                  std::make_shared<TaskResultAckMessage>(instance_, index));
  }
  if (!active_) {
    ++metrics_.late_results;
    return;
  }
  if (done_[index] || failed_[index]) {
    ++metrics_.duplicate_results;
    return;
  }
  const auto out_it = outstanding_.find(vkey(index, result.replica()));
  if (out_it == outstanding_.end()) {
    // The replica's slot was already written off (timeout sweep or crash);
    // its vote died with it.
    ++metrics_.duplicate_results;
    return;
  }
  const double cycle_seconds =
      (simulation_.now() - out_it->second.assigned_at).seconds();
  task_cycle_.record(cycle_seconds);
  outstanding_.erase(out_it);

  const Verifier::Verdict verdict =
      verifier_->on_result(index, result.pna_id(), result.digest(),
                           result.trace(), cycle_seconds);
  switch (verdict.outcome) {
    case Verifier::Verdict::Outcome::kAccepted:
      done_[index] = true;
      ++done_count_;
      task_retries_.record(static_cast<double>(retry_counts_[index]));
      task_revotes_.record(static_cast<double>(revote_counts_[index]));
      if (recorder_ != nullptr) {
        recorder_->emit(simulation_.now(), obs::TraceEventKind::kTaskResult,
                        obs::TraceComponent::kBackend, result.trace(),
                        result.pna_id(), index);
      }
      completion_times_.push_back(
          (simulation_.now() - metrics_.submitted_at).seconds());
      check_job_done();
      break;
    case Verifier::Verdict::Outcome::kEscalated:
    case Verifier::Verdict::Outcome::kDiscarded:
      // Quorum-driven re-queue: tracked apart from loss retries so a noisy
      // vote can never trip the per-task retry cap.
      ++revote_counts_[index];
      if (verdict.requeue) push_pending(index);
      break;
    case Verifier::Verdict::Outcome::kPending:
      // Sequential quorum: the vote landed but the round wants another
      // replica that is not yet live — put the task back in the queue.
      if (verdict.requeue) push_pending(index);
      break;
  }
}

void Backend::check_job_done() {
  if (!active_ || done_count_ + failed_count_ != done_.size()) return;
  if (failed_count_ == 0) {
    metrics_.completed_at = simulation_.now();
  } else {
    job_failed_ = true;
  }
  active_ = false;
  if (sweeper_running_) {
    sweeper_.cancel();
    sweeper_running_ = false;
  }
  if (on_complete_) {
    // Move out first: the callback may submit a new job.
    auto cb = std::move(on_complete_);
    on_complete_ = nullptr;
    cb();
  }
}

bool Backend::note_retry(std::uint64_t index) {
  if (options_.max_task_retries > 0 &&
      retry_counts_[index] >=
          static_cast<std::uint16_t>(options_.max_task_retries)) {
    fail_task(index);
    return false;
  }
  ++retry_counts_[index];
  push_pending(index);
  return true;
}

void Backend::push_pending(std::uint64_t index) {
  if (verifier_ != nullptr) {
    if (pending_marks_[index] != 0) return;
    pending_marks_[index] = 1;
  }
  pending_.push_back(index);
}

void Backend::fail_task(std::uint64_t index) {
  failed_[index] = true;
  ++failed_count_;
  ++metrics_.tasks_failed;
  if (verifier_ != nullptr) {
    // Write off the task's remaining live replicas: their results, if any
    // ever arrive, will be refused by the failed_ guard, and the verifier's
    // conservation ledger must not count them outstanding forever.
    for (auto it = outstanding_.begin(); it != outstanding_.end();) {
      if ((it->first & kIndexMask) == index) {
        verifier_->on_replica_lost(index);
        it = outstanding_.erase(it);
      } else {
        ++it;
      }
    }
  }
  if (recorder_ != nullptr) {
    recorder_->emit(simulation_.now(), obs::TraceEventKind::kTaskFailed,
                    obs::TraceComponent::kBackend, job_trace_, 0, index);
  }
  check_job_done();
}

void Backend::sweep_timeouts() {
  if (!active_) return;
  std::vector<std::uint64_t> expired;
  for (const auto& [key, out] : outstanding_) {
    if (simulation_.now() - out.assigned_at > options_.task_timeout) {
      expired.push_back(key);
    }
  }
  for (std::uint64_t key : expired) {
    // A key scanned as expired may already be gone: failing one task (via
    // note_retry below) writes off its sibling replicas.
    const auto it = outstanding_.find(key);
    if (it == outstanding_.end()) continue;
    const obs::TraceContext dispatch = it->second.trace;
    outstanding_.erase(it);
    const std::uint64_t index = key & kIndexMask;
    if (verifier_ == nullptr && tracer_ != nullptr) {
      tracer_->discard("task.cycle", index);
    }
    if (verifier_ != nullptr) verifier_->on_replica_lost(index);
    if (note_retry(index)) {
      ++metrics_.reassignments;
      if (recorder_ != nullptr) {
        recorder_->emit(simulation_.now(), obs::TraceEventKind::kTaskRequeued,
                        obs::TraceComponent::kBackend, dispatch, 0, index);
      }
    }
  }
}

void Backend::crash() {
  if (crashed_) return;
  crashed_ = true;
  network_.unregister_endpoint(node_id_);
  if (sweeper_running_) {
    sweeper_.cancel();
    sweeper_running_ = false;
  }
  // The assignment table is in-memory state and dies with the process; the
  // job ledger (done_/failed_/pending_/retry_counts_) is stable storage.
  // The verifier's volatile quorum state dies the same way (its reputation
  // ledger is durable).
  outstanding_.clear();
  if (verifier_ != nullptr) verifier_->on_crash();
}

void Backend::restart() {
  if (!crashed_) return;
  crashed_ = false;
  network_.reattach_endpoint(node_id_, this);
  if (active_) {
    // Every task that was outstanding at crash time lost its assignment
    // record; without it the timeout sweep can never reclaim the task, so
    // re-queue them all now. Exempt from the retry cap: this is work the
    // Backend lost, not work that keeps failing.
    std::vector<bool> queued(done_.size(), false);
    for (const std::uint64_t index : pending_) queued[index] = true;
    for (std::uint64_t index = 0; index < done_.size(); ++index) {
      if (done_[index] || failed_[index] || queued[index]) continue;
      pending_.push_back(index);
      ++metrics_.crash_requeues;
      if (recorder_ != nullptr) {
        recorder_->emit(simulation_.now(), obs::TraceEventKind::kTaskRequeued,
                        obs::TraceComponent::kBackend, job_trace_, 0, index);
      }
    }
    if (verifier_ != nullptr) {
      std::fill(pending_marks_.begin(), pending_marks_.end(), 0);
      for (const std::uint64_t index : pending_) pending_marks_[index] = 1;
    }
    if (options_.task_timeout > sim::SimTime::zero()) arm_sweeper();
  }
}

void Backend::link_metrics(obs::MetricsRegistry& registry) const {
  registry.link_histogram("backend.task_cycle_seconds", task_cycle_);
  registry.link_histogram("backend.task_retries", task_retries_);
  if (verifier_ != nullptr) {
    registry.link_histogram("backend.task_revotes", task_revotes_);
  }
  registry.link_probe("backend.duplicate_results", [this] {
    return static_cast<double>(metrics_.duplicate_results);
  });
  registry.link_probe("backend.late_results", [this] {
    return static_cast<double>(metrics_.late_results);
  });
  if (options_.max_task_retries > 0) {
    registry.link_probe("backend.tasks_failed", [this] {
      return static_cast<double>(metrics_.tasks_failed);
    });
    registry.link_probe("backend.crash_requeues", [this] {
      return static_cast<double>(metrics_.crash_requeues);
    });
  }
  registry.link_probe("backend.pending_tasks", [this] {
    return static_cast<double>(pending_.size());
  });
  registry.link_probe("backend.outstanding_tasks", [this] {
    return static_cast<double>(outstanding_.size());
  });
  registry.link_probe("backend.tasks_done", [this] {
    return static_cast<double>(done_count_);
  });
  registry.link_probe("backend.assignments", [this] {
    return static_cast<double>(metrics_.assignments);
  });
  registry.link_probe("backend.reassignments", [this] {
    return static_cast<double>(metrics_.reassignments);
  });
  registry.link_probe("backend.requests_denied", [this] {
    return static_cast<double>(metrics_.requests_denied);
  });
}

}  // namespace oddci::core
