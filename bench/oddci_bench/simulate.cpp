#include "simulate.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>

#include "analytical/models.hpp"
#include "obs/health.hpp"
#include "obs/json.hpp"
#include "obs/profiler.hpp"
#include "rss.hpp"
#include "util/stats.hpp"

namespace oddci_bench {

using namespace oddci;
using Clock = std::chrono::steady_clock;

namespace {

double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Per-layer counters copied from the metrics snapshot under their own
/// names (0 when the workload never registers the cell).
constexpr std::string_view kSnapshotCounters[] = {
    "broadcast.commits",
    "verify_cache.hit",
    "verify_cache.miss",
    "pna.control_messages_seen",
    "pna.heartbeats_sent",
    "pna.joins",
    "pna.tasks_completed",
    "pna.wakeups_dropped_probability",
    "net.messages_sent",
    "net.messages_delivered",
    "net.messages_dropped",
    "net.bits_sent",
    "wire.writer_reuse",
    "controller.aggregate_reports_received",
    "controller.report_bytes_ingested",
    "controller.delta_frames_received",
    "controller.delta_resyncs",
    "controller.delta_gaps",
    "controller.delta_checksum_failures",
    "controller.heartbeats_received",
    "controller.wakeup_broadcasts",
    "controller.recompositions",
    "controller.unicast_resets",
    "verify.dispatches",
    "verify.spot_dispatches",
    "verify.escalations",
    "verify.implausible_returns",
    "fault.messages_lost",
    "fault.pna_crashes",
    "recovery.result_retries",
};

/// Harness-side spans, one per phase call and per 1 s slice, kept in
/// memory and written once as Chrome trace_event JSON.
class SpanLog {
 public:
  using Id = std::size_t;  ///< 1-based; 0 = no parent

  Id open(std::string name, Id parent) {
    const Clock::time_point now = Clock::now();
    spans_.push_back({std::move(name), parent, now, now, {}});
    return spans_.size();
  }
  void close(Id id) { spans_[id - 1].end = Clock::now(); }
  void add(std::string name, Id parent, Clock::time_point start,
           Clock::time_point end) {
    spans_.push_back({std::move(name), parent, start, end, {}});
  }
  void arg(Id id, std::string key, double value) {
    spans_[id - 1].args.emplace_back(std::move(key), value);
  }

  [[nodiscard]] std::string to_chrome_trace() const {
    using namespace obs::json;
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (i > 0) out += ",\n";
      out += "{\"name\":";
      append_string(out, s.name);
      out += ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":";
      append_double(out, 1e6 * seconds(s.start - origin_));
      out += ",\"dur\":";
      append_double(out, 1e6 * seconds(s.end - s.start));
      out += ",\"args\":{\"span\":";
      append_u64(out, i + 1);
      out += ",\"parent\":";
      append_u64(out, s.parent);
      for (const auto& [key, value] : s.args) {
        out += ',';
        append_string(out, key);
        out += ':';
        append_double(out, value);
      }
      out += "}}";
    }
    out += "]}\n";
    return out;
  }

 private:
  struct Span {
    std::string name;
    Id parent = 0;
    Clock::time_point start;
    Clock::time_point end;
    std::vector<std::pair<std::string, double>> args;
  };
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Workload-specific correctness checks on a finished simulation.
void check(const Workload& w, const core::OddciSystem& system,
           const obs::HealthReport& health, Sample& s) {
  auto fail = [&s](std::string line) { s.failures.push_back(std::move(line)); };
  if (s.sim["backend.tasks_done"] < s.sim["tasks"]) {
    fail("job incomplete: " + std::to_string(s.sim["backend.tasks_done"]) + " of " +
         std::to_string(s.sim["tasks"]) + " tasks done");
  }
  if (s.sim["tasks_failed"] > 0.0) {
    fail("task_fail_frac > 0: " + std::to_string(s.sim["tasks_failed"]) +
         " tasks failed");
  }
  if (health.worst() > obs::HealthSeverity::kInfo) {
    fail("health " + std::string(obs::to_string(health.worst())) + ": " +
         health.to_text());
  }
  const double wakeup = s.sim["wakeup_s"];
  if (wakeup < 0.0) fail("instance never reached its target size (W)");

  const core::SystemConfig& config = w.config;
  if (w.name == "paper_job") {
    // [I/beta, 2I/beta] plus the signalling and heartbeat slack that
    // tests/integration/model_validation_test.cpp allows: W is observed at
    // the Controller's monitor tick after the last join is reported.
    const double best = analytical::wakeup_best_seconds(w.job.image_size, config.beta);
    const double worst = analytical::wakeup_worst_seconds(w.job.image_size, config.beta);
    if (wakeup < 0.99 * best || wakeup > worst + 40.0) {
      fail("W = " + std::to_string(wakeup) + " s outside [I/beta, 2I/beta + 40] = [" +
           std::to_string(best) + ", " + std::to_string(worst + 40.0) + "]");
    }
    // Eq. 1 band of the same test.
    analytical::SystemModel sm{config.beta, config.delta};
    analytical::JobModel jm;
    jm.n = w.job.task_count();
    jm.s_bits = w.job.avg_input_bits();
    jm.r_bits = w.job.avg_result_bits();
    jm.p_seconds = w.job.avg_reference_seconds() *
                   config.profile.slowdown(config.initial_power);
    jm.image = w.job.image_size;
    const double model = analytical::makespan_seconds(sm, jm, w.instance_size);
    const double w_spread = analytical::wakeup_seconds(jm.image, sm.beta) - best;
    const double phi = workload::suitability(w.job, config.delta);
    const double tolerance = phi >= 1000.0 ? 0.25 : 0.60;
    const double lo = model - w_spread - 10.0;
    const double hi = model * (1.0 + tolerance) + w_spread;
    const double makespan = s.sim["makespan_s"];
    if (makespan < lo || makespan > hi) {
      fail("M = " + std::to_string(makespan) + " s outside the Eq. 1 band [" +
           std::to_string(lo) + ", " + std::to_string(hi) + "]");
    }
  }
  if (const core::Verifier* verifier = system.verifier()) {
    const core::Verifier::Stats vs = verifier->stats();
    if (vs.wrong_results > 0) {
      fail(std::to_string(vs.wrong_results) + " wrong results accepted");
    }
    if (static_cast<double>(vs.tasks_verified) != s.sim["tasks"]) {
      fail(std::to_string(vs.tasks_verified) + " tasks verified of " +
           std::to_string(s.sim["tasks"]));
    }
    const double overhead =
        ratio(static_cast<double>(vs.dispatched + vs.spot_dispatched),
              static_cast<double>(vs.tasks_verified));
    if (overhead > 2.75) {
      fail("(replica + spot) / verified = " + std::to_string(overhead) +
           " > 2.75");
    }
  }
  if (s.sim["controller.delta_checksum_failures"] > 0.0) {
    fail("delta checksum failures: " +
         std::to_string(s.sim["controller.delta_checksum_failures"]));
  }
}

}  // namespace

Sample simulate(const Workload& w, bool traced, const std::string& trace_dir) {
  const std::uint64_t rss_start = current_rss_bytes();
  const double receivers = static_cast<double>(w.config.receivers);
  core::SystemConfig config = w.config;
  config.obs.profile = traced;

  Sample out;
  SpanLog spans;
  const SpanLog::Id root = spans.open(w.name, 0);
  std::unique_ptr<core::OddciSystem> system;

  // Traced runs time every simulated second as a slice; only run-phase
  // slices feed the slice quantiles.
  SpanLog::Id slice_parent = root;
  Clock::time_point slice_start = Clock::now();
  bool in_run = false;
  util::Samples run_slices_ms;
  // Traced runs read every counter at each phase boundary and attach the
  // phase's counter deltas to its span.
  obs::MetricsSnapshot boundary;

  const auto phase = [&](const std::string& name, const auto& body) {
    const std::string key = "phase." + name;
    const std::uint64_t rss0 = current_rss_bytes();
    const std::uint64_t events0 = system ? system->kernel().events_executed() : 0;
    const SpanLog::Id span = spans.open(name, root);
    slice_parent = span;
    const Clock::time_point t0 = Clock::now();
    slice_start = t0;
    body(t0);
    const double wall = seconds(Clock::now() - t0);
    spans.close(span);
    out.wall[key + ".wall_s"] = wall;
    out.sim[key + ".events"] =
        static_cast<double>(system->kernel().events_executed() - events0);
    out.wall[key + ".rss_delta_bytes"] =
        static_cast<double>(static_cast<std::int64_t>(current_rss_bytes()) -
                            static_cast<std::int64_t>(rss0));
    if (traced) {
      obs::MetricsSnapshot now = system->metrics_snapshot();
      for (const obs::CounterSample& c : now.counters) {
        const std::uint64_t before = boundary.counter_value(c.name);
        if (c.value != before) {
          spans.arg(span, c.name, static_cast<double>(c.value - before));
        }
      }
      boundary = std::move(now);
    }
    return wall;
  };

  const double construct_s = phase("construct", [&](Clock::time_point) {
    system = std::make_unique<core::OddciSystem>(config);
  });
  sim::ShardedSimulation& kernel = system->kernel();
  if (traced) {
    kernel.set_progress(
        [&] {
          const Clock::time_point now = Clock::now();
          spans.add("slice", slice_parent, slice_start, now);
          if (in_run) run_slices_ms.add(1e3 * seconds(now - slice_start));
          slice_start = now;
        },
        sim::SimTime::from_seconds(1));
  }

  const double deploy_s = phase("deploy", [&](Clock::time_point) {
    system->controller().deploy_pna();
    kernel.run_until(kernel.now() + config.warmup);
  });

  const sim::SimTime t0 = kernel.now();
  std::optional<sim::SimTime> ready_at;
  double wall_to_ready = -1.0;
  double wall_to_done = -1.0;
  bool done = false;
  core::InstanceId id = core::kNoInstance;
  in_run = true;
  const double run_s = phase("run", [&](Clock::time_point start) {
    core::InstanceSpec spec;
    spec.name = w.job.name;
    spec.target_size = w.instance_size;
    spec.image_size = w.job.image_size;
    spec.heartbeat_interval = config.controller.default_heartbeat;
    // Re-dispatch timeout derived from the worst-case task cycle. This
    // mirrors the formula OddciSystem::run_job (src/core/system.cpp) uses
    // when SystemConfig::task_timeout is unset; a change to one must be
    // made to the other.
    const double payload_s =
        (w.job.avg_input_bits() + w.job.avg_result_bits()) / config.delta.bps();
    const double exec_s = w.job.avg_reference_seconds() *
                          config.profile.slowdown(dtv::PowerMode::kInUse);
    system->backend().set_task_timeout(sim::SimTime::from_seconds(
        3.0 * (payload_s + exec_s) +
        2.0 * config.controller.default_heartbeat.seconds() + 30.0));

    id = system->provider().request_instance(
        spec, system->backend().node_id(),
        [&](core::InstanceId, sim::SimTime at) {
          ready_at = at;
          wall_to_ready = seconds(Clock::now() - start);
        });
    system->backend().submit(
        w.job, id,
        [&] {
          done = true;
          wall_to_done = seconds(Clock::now() - start);
          if (w.stop_on_done) kernel.stop();
        },
        t0, system->controller().trace_context(id));
    kernel.run_until(t0 + w.horizon);
  });
  in_run = false;

  obs::MetricsSnapshot snap;
  obs::HealthReport health;
  phase("snapshot", [&](Clock::time_point) {
    snap = system->metrics_snapshot();
    health = obs::HealthAuditor::evaluate(system->health_ledger(),
                                          kernel.now().seconds(), true);
  });
  spans.close(root);

  // --- end-to-end --------------------------------------------------------
  const core::Backend& backend = system->backend();
  const core::JobMetrics& job = backend.metrics();
  const double sim_s = (kernel.now() - t0).seconds();
  if (!ready_at) {
    if (const core::InstanceStatus* st = system->controller().status(id);
        st != nullptr && st->reached_target_at) {
      ready_at = *st->reached_target_at;
    }
  }
  const double tasks = static_cast<double>(w.job.task_count());
  const core::Verifier* verifier = system->verifier();
  const core::Verifier::Stats vs = verifier ? verifier->stats() : core::Verifier::Stats{};

  out.sim["sim_s"] = sim_s;
  out.sim["tasks"] = tasks;
  out.sim["backend.tasks_done"] = static_cast<double>(backend.tasks_done());
  out.sim["tasks_failed"] = static_cast<double>(job.tasks_failed);
  out.sim["wrong_results"] = static_cast<double>(vs.wrong_results);
  out.sim["wakeup_s"] = ready_at ? (*ready_at - t0).seconds() : -1.0;
  out.sim["makespan_s"] = done ? job.makespan_seconds() : -1.0;
  out.sim["dispatches_per_task"] =
      ratio(static_cast<double>(job.assignments + vs.spot_dispatched), tasks);

  out.wall["setup_s"] = construct_s + deploy_s;
  out.wall["run_wall_s"] = run_s;
  out.wall["wall_s_per_sim_hour"] = ratio(run_s, sim_s / 3600.0);
  out.wall["peak_rss_bytes_per_receiver"] =
      static_cast<double>(peak_rss_bytes() - rss_start) / receivers;

  // --- per layer -----------------------------------------------------------
  out.sim["sim.events_executed"] = static_cast<double>(kernel.events_executed());
  out.sim["sim.cross_posts"] = static_cast<double>(kernel.cross_posts());
  out.sim["sim.clamped_posts"] = static_cast<double>(kernel.clamped_posts());
  out.wall["sim.events_per_s"] = ratio(out.sim["phase.run.events"], run_s);
  for (const std::string_view name : kSnapshotCounters) {
    out.sim[std::string(name)] = static_cast<double>(snap.counter_value(name));
  }
  out.sim["verify.outvoted"] = static_cast<double>(vs.outvoted);
  out.sim["verify.quarantines"] = static_cast<double>(vs.quarantines);

  const double reused = static_cast<double>(snap.counter_value("heartbeat.pool_reused"));
  const double allocated =
      static_cast<double>(snap.counter_value("heartbeat.pool_allocated"));
  out.sim["heartbeat.pool_reuse_ratio"] = ratio(reused, reused + allocated);
  for (const char* p : {"construct", "deploy", "run"}) {
    const std::string key = std::string("phase.") + p;
    out.wall[key + ".rss_bytes_per_receiver"] =
        out.wall[key + ".rss_delta_bytes"] / receivers;
  }
  out.wall["run.wall_to_ready_s"] = wall_to_ready;
  out.wall["run.wall_to_done_s"] = wall_to_done;

  const double target = static_cast<double>(w.instance_size);
  out.sim["control.overshoot_frac"] =
      std::max(0.0, out.sim["pna.joins"] - target) / target;
  out.wall["controller.monitor_wall_s"] = system->controller().monitor_wall_seconds();

  out.sim["backend.assignments"] = static_cast<double>(job.assignments);
  out.sim["backend.reassignments"] = static_cast<double>(job.reassignments);
  out.sim["backend.duplicate_results"] = static_cast<double>(job.duplicate_results);
  const obs::HistogramSample* retries = snap.find_histogram("backend.task_retries");
  out.sim["backend.task_retries"] = retries != nullptr ? retries->sum : 0.0;
  out.sim["backend.useful_ratio"] =
      ratio(out.sim["backend.tasks_done"], static_cast<double>(job.assignments));

  if (traced) {
    out.wall["sim.slice_wall_ms.p50"] = run_slices_ms.empty() ? 0.0 : run_slices_ms.median();
    out.wall["sim.slice_wall_ms.p99"] =
        run_slices_ms.empty() ? 0.0 : run_slices_ms.percentile(99.0);
    out.wall["sim.slice_wall_ms.count"] = static_cast<double>(run_slices_ms.count());
    const obs::ProfileSnapshot prof = system->profile_snapshot();
    out.wall["sim.execute_s"] = prof.execute_seconds_total();
    out.wall["sim.barrier_s"] = prof.barrier_seconds_total();
    out.wall["sim.drain_s"] = prof.drain_seconds;
    out.wall["sim.global_s"] = prof.global_seconds;
    out.wall["sim.mail_items"] = static_cast<double>(prof.mail_items);
    out.wall["sim.imbalance_mean"] = prof.imbalance_mean;
    if (!trace_dir.empty()) {
      obs::write_profile_json(trace_dir + "/" + w.name + ".profile.json", prof);
      obs::json::write_file(trace_dir + "/" + w.name + ".bench_trace.json",
                            spans.to_chrome_trace());
    }
  }

  check(w, *system, health, out);
  // Tear down while the locals the system's callbacks captured are alive.
  system.reset();
  return out;
}

std::string to_json(const Sample& sample) {
  using namespace obs::json;
  std::string out = "{";
  for (const auto& [group, values] :
       {std::pair{"sim", &sample.sim}, std::pair{"wall", &sample.wall}}) {
    append_string(out, group);
    out += ":{";
    bool first = true;
    for (const auto& [name, value] : *values) {
      if (!first) out += ',';
      first = false;
      append_string(out, name);
      out += ':';
      append_double(out, value);
    }
    out += "},";
  }
  out += "\"failures\":[";
  for (std::size_t i = 0; i < sample.failures.size(); ++i) {
    if (i > 0) out += ',';
    append_string(out, sample.failures[i]);
  }
  out += "]}";
  return out;
}

Sample sample_from_json(std::string_view text) {
  using namespace obs::json;
  const Value doc = parse(text);
  const Object& obj = doc.as_object();
  Sample sample;
  for (const auto& [group, values] :
       {std::pair{"sim", &sample.sim}, std::pair{"wall", &sample.wall}}) {
    for (const auto& [name, value] : member(obj, group).as_object()) {
      (*values)[name] = value.as_double();
    }
  }
  for (const Value& line : member(obj, "failures").as_array()) {
    sample.failures.push_back(line.as_string());
  }
  return sample;
}

}  // namespace oddci_bench
