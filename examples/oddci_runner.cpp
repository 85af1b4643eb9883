// oddci_runner — scenario driver: build an OddCI system from a key=value
// configuration file (see examples/scenarios/*.cfg), run one job, and print
// the measured metrics next to the paper's analytical model.
//
// Usage:
//   oddci_runner <scenario.cfg> [--progress] [key=value overrides...]
//
// Every parameter has a default, so `oddci_runner /dev/null` runs a sane
// baseline scenario. Overrides on the command line win over the file.
// `--progress` (or progress=1) streams one NDJSON line of run telemetry
// to stderr every `progress_every_s` of sim time (wall-gated to >= 2 Hz).

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>

#include "analytical/models.hpp"
#include "control/policy.hpp"
#include "core/system.hpp"
#include "obs/export.hpp"
#include "obs/health.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_export.hpp"
#include "util/config.hpp"
#include "util/table.hpp"
#include "workload/job.hpp"

namespace {

using namespace oddci;

/// Resident set size in MiB (Linux /proc; 0.0 where unavailable).
double resident_mb() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t pages = 0;
  std::uint64_t resident = 0;
  if (!(statm >> pages >> resident)) return 0.0;
  const long page = sysconf(_SC_PAGESIZE);
  return static_cast<double>(resident) *
         static_cast<double>(page > 0 ? page : 4096) / (1024.0 * 1024.0);
}

/// Hang the NDJSON progress stream on the kernel's coordinator hook: every
/// `progress_every_s` of sim time (and at most ~2 lines per wall second)
/// one `oddci.progress.v1` object goes to stderr — sim time, event totals
/// and throughput, RSS, and per-shard executed/pending/lag. Stderr only:
/// stdout stays the report the scenario scripts parse.
void install_progress(core::OddciSystem& system, double every_s) {
  struct State {
    std::chrono::steady_clock::time_point start;
    std::chrono::steady_clock::time_point last_emit;
    std::uint64_t last_events = 0;
    double last_wall = 0.0;
  };
  auto state = std::make_shared<State>();
  state->start = std::chrono::steady_clock::now();
  state->last_emit = state->start - std::chrono::seconds(1);
  core::OddciSystem* sys = &system;
  system.kernel().set_progress(
      [sys, state] {
        const auto now = std::chrono::steady_clock::now();
        if (now - state->last_emit < std::chrono::milliseconds(500)) return;
        state->last_emit = now;
        auto& kernel = sys->kernel();
        const std::size_t shards = kernel.shard_count();
        std::uint64_t events = 0;
        double max_now_s = 0.0;
        for (std::size_t s = 0; s < shards; ++s) {
          events += kernel.shard(s).events_executed();
          max_now_s = std::max(max_now_s, kernel.shard(s).now().seconds());
        }
        const double wall =
            std::chrono::duration<double>(now - state->start).count();
        const double dw = wall - state->last_wall;
        const double rate =
            dw > 0.0
                ? static_cast<double>(events - state->last_events) / dw
                : 0.0;
        state->last_wall = wall;
        state->last_events = events;
        std::cerr << "{\"schema\":\"oddci.progress.v1\",\"sim_s\":"
                  << max_now_s << ",\"wall_s\":" << wall
                  << ",\"events\":" << events << ",\"events_per_s\":" << rate
                  << ",\"rss_mb\":" << resident_mb() << ",\"shards\":[";
        for (std::size_t s = 0; s < shards; ++s) {
          const sim::Simulation& shard = kernel.shard(s);
          if (s > 0) std::cerr << ',';
          std::cerr << "{\"shard\":" << s
                    << ",\"executed\":" << shard.events_executed()
                    << ",\"pending\":" << shard.pending_events()
                    << ",\"lag_s\":" << max_now_s - shard.now().seconds()
                    << '}';
        }
        std::cerr << "]}\n";
      },
      sim::SimTime::from_seconds(every_s));
}

/// A count or size read from `key` into a `T`: negative values and values
/// above T's maximum are rejected (cast to T they would wrap, and the run
/// would go on with a different count from the one typed).
template <typename T = std::size_t>
T get_count(const util::Config& cfg, const std::string& key,
            long long fallback) {
  const long long value = cfg.get_int(key, fallback);
  if (value < 0) {
    throw std::runtime_error(key + " must be >= 0, got " +
                             std::to_string(value));
  }
  constexpr auto kMax =
      static_cast<unsigned long long>(std::numeric_limits<T>::max());
  if (static_cast<unsigned long long>(value) > kMax) {
    throw std::runtime_error(key + " must be <= " + std::to_string(kMax) +
                             ", got " + std::to_string(value));
  }
  return static_cast<T>(value);
}

core::SystemConfig system_config(const util::Config& cfg) {
  core::SystemConfig config;
  config.receivers = get_count(cfg, "receivers", 1000);
  config.channels = get_count(cfg, "channels", 1);
  config.beta = util::BitRate::from_mbps(cfg.get_double("beta_mbps", 1.0));
  config.delta =
      util::BitRate::from_kbps(cfg.get_double("delta_kbps", 150.0));
  config.section_loss = cfg.get_double("section_loss", 0.0);
  config.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 42));
  config.control.overshoot_margin = cfg.get_double("overshoot", 1.3);
  config.controller.default_heartbeat =
      sim::SimTime::from_seconds(cfg.get_double("heartbeat_s", 30.0));
  // Control-loop policy: which decision engine drives wakeup probability,
  // trimming, and Phi-driven admission (static | proportional | bandit).
  config.control.engine = control::engine_kind_from_string(
      cfg.get_string("control_engine", "static"));
  config.control.min_suitability = cfg.get_double("control_min_phi", 0.0);
  config.control.gain = cfg.get_double("control_gain", 1.0);
  config.control.integral_gain =
      cfg.get_double("control_integral_gain", 0.3);
  config.control.integral_cap = cfg.get_double("control_integral_cap", 0.5);
  config.control.max_step = cfg.get_double("control_max_step", 1.0);
  config.control.trim_hysteresis =
      cfg.get_double("control_trim_hysteresis", 0.0);
  config.control.explore = cfg.get_double("control_explore", 0.1);
  config.control.seed =
      static_cast<std::uint64_t>(cfg.get_int("control_seed", 0));
  config.tuned_fraction = cfg.get_double("tuned_fraction", 1.0);
  config.aggregators = get_count(cfg, "aggregators", 0);
  // O(changes) return channel: delta-encoded aggregate reports, optional
  // relay tier, paced heartbeats, and the modeled (bounded-queue) links on
  // the PNA -> aggregator -> Controller path. All default off.
  const std::string hb_mode = cfg.get_string("heartbeat_mode", "naive");
  if (hb_mode == "delta") {
    config.heartbeat.mode = core::HeartbeatMode::kDelta;
  } else if (hb_mode != "naive") {
    throw std::runtime_error("heartbeat_mode must be 'naive' or 'delta'");
  }
  config.heartbeat.resync_every =
      get_count<std::uint32_t>(cfg, "resync_every", 30);
  const double expiry_s = cfg.get_double("heartbeat_expiry_s", 0.0);
  if (expiry_s > 0.0) {
    config.heartbeat.expiry = sim::SimTime::from_seconds(expiry_s);
  }
  config.heartbeat.tree_fanin = get_count(cfg, "tree_fanin", 0);
  config.heartbeat.paced = cfg.get_bool("heartbeat_paced", false);
  const double pace_window_s = cfg.get_double("pace_window_s", 0.0);
  if (pace_window_s > 0.0) {
    config.heartbeat.pace_window = sim::SimTime::from_seconds(pace_window_s);
  }
  if (cfg.get_bool("return_channel", false)) {
    config.return_channel.enabled = true;
    config.return_channel.aggregator_uplink = util::BitRate::from_mbps(
        cfg.get_double("return_channel_agg_up_mbps", 2.0));
    config.return_channel.aggregator_downlink = util::BitRate::from_mbps(
        cfg.get_double("return_channel_agg_down_mbps", 8.0));
    config.return_channel.controller_downlink = util::BitRate::from_mbps(
        cfg.get_double("return_channel_ctl_down_mbps", 16.0));
    config.return_channel.queue_limit = sim::SimTime::from_seconds(
        cfg.get_double("return_channel_queue_s", 2.0));
  }
  config.obs.sample_interval =
      sim::SimTime::from_seconds(cfg.get_double("sample_interval_s", 10.0));
  // Kernel profiler: on when asked for explicitly or when a profile export
  // path is configured. (The `profile` key names the device profile.)
  config.obs.profile = cfg.get_bool("kernel_profile", false) ||
                       !cfg.get_string("profile_json", "").empty();
  // Causal flight recorder: on when a trace export path is configured.
  config.obs.trace = !cfg.get_string("trace_json", "").empty();
  config.obs.trace_capacity = get_count(cfg, "trace_capacity", 1 << 16);
  config.obs.health_tamper_lost = get_count(cfg, "health_tamper_lost", 0);
  // Sharded parallel kernel: worker-thread shard count (1 = one shard on
  // the calling thread).
  config.shards = get_count(cfg, "shards", 1);
  const double window_ms = cfg.get_double("window_ms", 0.0);
  if (window_ms > 0.0) {
    config.window = sim::SimTime::from_seconds(window_ms / 1e3);
  }

  const std::string technology = cfg.get_string("technology", "dtv");
  if (technology == "iptv") {
    config.technology = core::BroadcastTechnology::kIpMulticast;
    config.multicast.block_loss = config.section_loss;
  } else if (technology != "dtv") {
    throw std::runtime_error("technology must be 'dtv' or 'iptv'");
  }

  const std::string profile = cfg.get_string("profile", "reference-stb");
  if (profile == "stb-st7109") {
    config.profile = dtv::DeviceProfile::stb_st7109();
  } else if (profile == "reference-pc") {
    config.profile = dtv::DeviceProfile::reference_pc();
  } else if (profile == "mobile-phone") {
    config.profile = dtv::DeviceProfile::mobile_phone();
  } else if (profile == "reference-stb") {
    config.profile = dtv::DeviceProfile::reference_stb();
  } else {
    throw std::runtime_error("unknown device profile: " + profile);
  }

  const std::string power = cfg.get_string("power", "standby");
  if (power == "in-use") {
    config.initial_power = dtv::PowerMode::kInUse;
  } else if (power != "standby") {
    throw std::runtime_error("power must be 'standby' or 'in-use'");
  }

  if (cfg.get_bool("churn", false)) {
    core::ChurnOptions churn;
    churn.mean_on_seconds = cfg.get_double("churn_on_s", 3600.0);
    churn.mean_off_seconds = cfg.get_double("churn_off_s", 1800.0);
    churn.in_use_probability = cfg.get_double("churn_in_use", 0.7);
    config.churn = churn;
  }

  if (cfg.get_bool("fault", false)) {
    fault::FaultOptions& f = config.fault;
    f.enabled = true;
    f.seed = static_cast<std::uint64_t>(cfg.get_int("fault_seed", 0));
    f.message_loss = cfg.get_double("fault_loss", 0.0);
    f.message_duplication = cfg.get_double("fault_duplication", 0.0);
    f.latency_spike_probability =
        cfg.get_double("fault_latency_spike_p", 0.0);
    f.latency_spike_mean = sim::SimTime::from_seconds(
        cfg.get_double("fault_latency_spike_s", 0.5));
    f.partitions_per_hour = cfg.get_double("fault_partitions_ph", 0.0);
    f.partition_duration = sim::SimTime::from_seconds(
        cfg.get_double("fault_partition_s", 120.0));
    const double controller_crash_s =
        cfg.get_double("fault_controller_crash_s", 0.0);
    if (controller_crash_s > 0.0) {
      f.controller_crash_at.push_back(
          sim::SimTime::from_seconds(controller_crash_s));
    }
    f.controller_downtime = sim::SimTime::from_seconds(
        cfg.get_double("fault_controller_down_s", 30.0));
    const double backend_crash_s =
        cfg.get_double("fault_backend_crash_s", 0.0);
    if (backend_crash_s > 0.0) {
      f.backend_crash_at.push_back(
          sim::SimTime::from_seconds(backend_crash_s));
    }
    f.backend_downtime = sim::SimTime::from_seconds(
        cfg.get_double("fault_backend_down_s", 30.0));
    f.aggregator_crashes_per_hour =
        cfg.get_double("fault_aggregator_crash_ph", 0.0);
    f.aggregator_downtime = sim::SimTime::from_seconds(
        cfg.get_double("fault_aggregator_down_s", 60.0));
    f.pna_crashes_per_hour = cfg.get_double("fault_pna_crash_ph", 0.0);
    f.pna_hangs_per_hour = cfg.get_double("fault_pna_hang_ph", 0.0);
    f.pna_hang_duration = sim::SimTime::from_seconds(
        cfg.get_double("fault_pna_hang_s", 60.0));
    f.control_corruptions_per_hour =
        cfg.get_double("fault_corrupt_ph", 0.0);
    f.corrupt_exposure = sim::SimTime::from_seconds(
        cfg.get_double("fault_corrupt_exposure_s", 2.0));
    f.result_retry_limit =
        get_count<int>(cfg, "fault_result_retry_limit", 4);
    f.result_retry_base = sim::SimTime::from_seconds(
        cfg.get_double("fault_result_retry_s", 2.0));
    f.request_watchdog = sim::SimTime::from_seconds(
        cfg.get_double("fault_request_watchdog_s", 45.0));
    f.task_retry_cap =
        get_count<int>(cfg, "fault_task_retry_cap", 16);
    f.aggregator_failover_timeout = sim::SimTime::from_seconds(
        cfg.get_double("fault_failover_s", 60.0));
    // Byzantine adversary profiles (require fault=1): seeded fractions of
    // result forgers and free-riders, plus one colluding group sharing a
    // forgery seed.
    f.byzantine_forger_fraction = cfg.get_double("byzantine_forgers", 0.0);
    f.byzantine_freerider_fraction =
        cfg.get_double("byzantine_freeriders", 0.0);
    f.byzantine_collusion_size =
        get_count<std::uint32_t>(cfg, "byzantine_collusion", 0);
  }

  // Backend-side Byzantine defense: redundant dispatch + quorum voting,
  // seeded spot checks, and the reputation ledger. Off by default (the
  // naive path stays byte-identical to the pre-verification tree).
  if (cfg.get_bool("verify", false)) {
    core::VerifyOptions& v = config.verify;
    v.enabled = true;
    v.redundancy =
        get_count<std::uint32_t>(cfg, "verify_redundancy", 2);
    v.trusted_redundancy =
        get_count<std::uint32_t>(cfg, "verify_trusted_redundancy", 1);
    v.max_redundancy =
        get_count<std::uint32_t>(cfg, "verify_max_redundancy", 5);
    v.spot_check_rate = cfg.get_double("verify_spot_rate", 0.05);
    v.quarantine_spot_boost =
        cfg.get_double("verify_quarantine_boost", 4.0);
    v.parole_failure_limit =
        get_count<std::uint32_t>(cfg, "verify_parole_failure_limit", 4);
    v.implausible_speedup =
        cfg.get_double("verify_implausible_speedup", 64.0);
    v.eager_replicas = cfg.get_bool("verify_eager", false);
    v.ewma_alpha = cfg.get_double("reputation_alpha", 0.25);
    v.initial_reputation = cfg.get_double("reputation_initial", 0.5);
    v.quarantine_below =
        cfg.get_double("reputation_quarantine_below", 0.25);
    v.trusted_above = cfg.get_double("reputation_trusted_above", 0.9);
    v.min_observations =
        get_count<std::uint32_t>(cfg, "reputation_min_observations", 8);
    v.parole_checks =
        get_count<std::uint32_t>(cfg, "reputation_parole_checks", 3);
    v.seed = static_cast<std::uint64_t>(cfg.get_int("verify_seed", 0));
  }
  return config;
}

workload::Job job_from(const util::Config& cfg) {
  return workload::make_uniform_job(
      cfg.get_string("job_name", "scenario-job"),
      util::Bits::from_megabytes(get_count(cfg, "image_mb", 10)),
      get_count(cfg, "tasks", 2000),
      util::Bits::from_bytes(get_count(cfg, "task_input_bytes", 512)),
      util::Bits::from_bytes(get_count(cfg, "task_result_bytes", 512)),
      cfg.get_double("task_seconds", 30.0));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: oddci_runner <scenario.cfg> [key=value ...]\n";
    return 2;
  }
  util::Config cfg;
  try {
    cfg = util::Config::load(argv[1]);
    for (int i = 2; i < argc; ++i) {
      if (std::strcmp(argv[i], "--progress") == 0) {
        cfg.set("progress", "1");
        continue;
      }
      const char* eq = std::strchr(argv[i], '=');
      if (eq == nullptr) {
        throw std::runtime_error(std::string("override without '=': ") +
                                 argv[i]);
      }
      cfg.set(std::string(argv[i], static_cast<std::size_t>(eq - argv[i])),
              std::string(eq + 1));
    }
  } catch (const std::exception& e) {
    std::cerr << "config error: " << e.what() << "\n";
    return 2;
  }

  try {
    const core::SystemConfig config = system_config(cfg);
    const workload::Job job = job_from(cfg);
    const std::size_t instance_size = get_count(cfg, "instance_size", 200);
    const double deadline_h = cfg.get_double("deadline_hours", 48.0);

    std::cout << "scenario: " << argv[1] << "\n"
              << "  " << config.receivers << " receivers ("
              << config.profile.name << ", "
              << (config.technology ==
                          core::BroadcastTechnology::kIpMulticast
                      ? "iptv"
                      : "dtv")
              << ", " << config.channels << " channel(s)), instance "
              << instance_size << ", " << job.task_count() << " tasks x "
              << job.avg_reference_seconds() << " s\n\n";

    core::OddciSystem system(config);
    if (cfg.get_bool("progress", false)) {
      install_progress(system, cfg.get_double("progress_every_s", 30.0));
    }
    const auto result = system.run_job(
        job, instance_size, sim::SimTime::from_hours(deadline_h));

    if (!result.admitted) {
      std::cout << "job deferred: suitability below control_min_phi="
                << config.control.min_suitability
                << " (phi=" << workload::suitability(job, config.delta)
                << ")\n";
      return 1;
    }

    analytical::SystemModel sm{config.beta, config.delta};
    analytical::JobModel jm;
    jm.n = job.task_count();
    jm.s_bits = job.avg_input_bits();
    jm.r_bits = job.avg_result_bits();
    jm.p_seconds = job.avg_reference_seconds() *
                   config.profile.slowdown(config.initial_power);
    jm.image = job.image_size;

    util::Table table({"metric", "analytical", "measured"});
    table.add_row({"wakeup W (s)",
                   util::Table::fmt(
                       analytical::wakeup_seconds(job.image_size, config.beta),
                       1),
                   util::Table::fmt(result.wakeup_seconds, 1)});
    table.add_row(
        {"makespan M (s)",
         util::Table::fmt(
             analytical::makespan_seconds(sm, jm, instance_size), 1),
         util::Table::fmt(result.makespan_seconds, 1)});
    table.add_row(
        {"efficiency E",
         util::Table::fmt(analytical::efficiency(sm, jm, instance_size), 3),
         util::Table::fmt(result.efficiency(job.task_count(), jm.p_seconds,
                                            instance_size),
                          3)});
    table.print(std::cout);
    std::cout << "\n  completed: " << (result.completed ? "yes" : "NO")
              << " (" << result.job.results_received << "/"
              << job.task_count() << " tasks, "
              << result.job.reassignments << " reassignments, "
              << result.controller.recompositions << " recompositions)\n";

    if (const auto* injector = system.fault_injector()) {
      const auto fs = injector->stats();
      std::cout << "  faults: " << fs.messages_lost << " lost, "
                << fs.messages_duplicated << " duplicated, "
                << fs.latency_spikes << " spikes, "
                << fs.partitions_started << " partitions, "
                << fs.aggregator_crashes << " aggregator / "
                << fs.controller_crashes << " controller / "
                << fs.backend_crashes << " backend crashes, "
                << fs.pna_crashes << " pna crashes, " << fs.pna_hangs
                << " pna hangs, " << fs.control_corruptions
                << " corruptions\n"
                << "  recovery: " << result.job.duplicate_results
                << " duplicates dropped, " << result.job.late_results
                << " late, " << result.job.crash_requeues
                << " crash requeues, " << result.job.tasks_failed
                << " tasks failed\n";
      // Invariant: a completed job received every task exactly once —
      // duplicates and stragglers were deduped, nothing was lost or
      // double-counted. Under verification the per-task result count is
      // the quorum size, so the invariant moves to the verify gate below
      // (every task concluded by exactly one accepted quorum).
      const std::uint64_t unique = result.job.results_received -
                                   result.job.duplicate_results -
                                   result.job.late_results;
      if (system.verifier() == nullptr && result.completed &&
          unique != job.task_count()) {
        std::cerr << "INVARIANT VIOLATION: " << unique
                  << " unique results for " << job.task_count()
                  << " tasks\n";
        return 3;
      }
    }

    // Verification report + acceptance gate: with the defense on, print
    // the quorum/ledger tallies and fail (exit 3) if any wrong result was
    // accepted or the measured redundancy overhead — (replica + spot
    // dispatches) per verified task — exceeds the configured bound.
    if (const core::Verifier* verifier = system.verifier()) {
      const auto vs = verifier->stats();
      const double overhead =
          vs.tasks_verified > 0
              ? static_cast<double>(vs.dispatched + vs.spot_dispatched) /
                    static_cast<double>(vs.tasks_verified)
              : 0.0;
      std::cout << "  verify: " << vs.tasks_verified << " tasks verified, "
                << vs.wrong_results << " wrong, " << vs.outvoted
                << " outvoted, " << vs.escalations << " escalations, "
                << vs.spot_failed << "/" << vs.spot_dispatched
                << " spot fails, " << vs.implausible_returns
                << " implausible returns\n"
                << "  reputation: " << vs.quarantines << " quarantines ("
                << vs.quarantined_now << " now), " << vs.paroles
                << " paroles, " << vs.trusted_promotions
                << " trusted promotions; overhead "
                << util::Table::fmt(overhead, 2) << "x per verified task\n";
      const double max_overhead = cfg.get_double("verify_max_overhead", 0.0);
      if (result.completed && vs.tasks_verified != job.task_count()) {
        std::cerr << "INVARIANT VIOLATION: " << vs.tasks_verified
                  << " verified quorums for " << job.task_count()
                  << " tasks\n";
        return 3;
      }
      if (vs.wrong_results > 0) {
        std::cerr << "VERIFY VIOLATION: " << vs.wrong_results
                  << " wrong result(s) accepted\n";
        return 3;
      }
      if (max_overhead > 0.0 && overhead > max_overhead) {
        std::cerr << "VERIFY VIOLATION: redundancy overhead " << overhead
                  << " exceeds bound " << max_overhead << "\n";
        return 3;
      }
    }

    // Optional machine-readable exports of the run's full MetricsSnapshot
    // (scenario keys `metrics_json` / `series_csv`, empty = off).
    const std::string metrics_json = cfg.get_string("metrics_json", "");
    if (!metrics_json.empty()) {
      obs::write_json(metrics_json, result.metrics);
      std::cout << "  wrote " << metrics_json << "\n";
    }
    const std::string series_csv = cfg.get_string("series_csv", "");
    if (!series_csv.empty()) {
      obs::write_series_csv(series_csv, result.metrics);
      std::cout << "  wrote " << series_csv << "\n";
    }
    const std::string trace_json = cfg.get_string("trace_json", "");
    if (!trace_json.empty() && system.flight_recorder() != nullptr) {
      // Merge the per-shard rings so a K>1 run exports one chronological
      // population-wide trace, byte-identical per (seed, K).
      std::ofstream trace_out(trace_json, std::ios::binary);
      trace_out << obs::to_chrome_trace(
          obs::merge_events(system.flight_recorders()));
      std::cout << "  wrote " << trace_json << "\n";
    }

    if (system.profiler() != nullptr) {
      const obs::ProfileSnapshot prof = system.profile_snapshot();
      std::cout << "  profile: " << prof.run_wall_seconds << " s wall, "
                << prof.windows << " windows, utilization "
                << util::Table::fmt(prof.utilization_mean, 3)
                << ", imbalance " << util::Table::fmt(prof.imbalance_mean, 2)
                << " (max " << util::Table::fmt(prof.imbalance_max, 2)
                << ")\n";
      const std::string profile_json = cfg.get_string("profile_json", "");
      if (!profile_json.empty()) {
        obs::write_profile_json(profile_json, prof);
        std::cout << "  wrote " << profile_json << "\n";
      }
    }

    // Conservation audit: a Warning/Critical finding means a counter
    // balance the simulation must preserve did not close — fail loudly
    // with its own exit code so CI and scripts can tell it apart.
    if (!result.health.findings.empty()) {
      std::cout << "  health: "
                << obs::to_string(result.health.worst()) << " ("
                << result.health.samples << " samples)\n";
    }
    if (!result.health.ok()) {
      std::cerr << "HEALTH VIOLATION:\n" << result.health.to_text();
      return 4;
    }
    return result.completed ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
