#pragma once

#include <string_view>

/// Every metric the benchmark reports: unit, direction, whether it is a
/// host measurement or a simulated outcome and, for per-layer metrics, the
/// layer it belongs to and what a change to that layer should move.
/// BENCHMARK.json lists the same names, units and directions, with the
/// end-to-end bounds; run.py checks that the two agree.
namespace oddci_bench {

enum class Source {
  /// Wall time or memory on this host: noisy, so two sets are compared by
  /// their medians and quartiles.
  kHost,
  /// A simulated outcome: exact for a given workload and seed, so two sets
  /// are compared seed by seed.
  kSim,
};

struct MetricDef {
  std::string_view name;
  std::string_view unit;
  bool lower_is_better = true;
  Source source = Source::kHost;
  /// Per-layer metrics: the module of this repository the metric measures,
  /// and the end-to-end metric and workload a change to it should move.
  std::string_view layer = {};
  std::string_view moves = {};
  /// Compared by the difference of the two medians rather than its share
  /// of the baseline's: for a fraction near 0 that can be negative.
  bool absolute = false;
};

/// Share by which a simulated outcome may worsen on the same seed before
/// `compare` reads it as regressed. A rise from 0 (a failed task, a wrong
/// result) always counts.
inline constexpr double kSameSeedBound = 0.02;
/// Share by which the median of a per-layer host measurement may worsen
/// before `compare` reads it as regressed (end-to-end metrics take their
/// bound from BENCHMARK.json).
inline constexpr double kLayerHostBound = 0.10;

inline constexpr bool kLower = true;
inline constexpr bool kHigher = false;
inline constexpr Source kHost = Source::kHost;
inline constexpr Source kSim = Source::kSim;

/// Reported per workload by every run, from untraced simulations.
inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s", kLower, kHost},
    {"run_wall_s", "s", kLower, kHost},
    {"wall_s_per_sim_hour", "s/h", kLower, kHost},
    {"peak_rss_bytes_per_receiver", "B", kLower, kHost},
    {"wakeup_s", "s", kLower, kSim},
    {"makespan_s", "s", kLower, kSim},
    {"task_fail_frac", "ratio", kLower, kSim},
    {"wrong_result_frac", "ratio", kLower, kSim},
    {"dispatches_per_task", "ratio", kLower, kSim},
};

namespace moves {
inline constexpr std::string_view kIdleRun = "run_wall_s on idle_population_1m";
inline constexpr std::string_view kShardedRun = "run_wall_s on sharded_delta_1m";
inline constexpr std::string_view kIdleSetup = "setup_s on idle_population_1m";
inline constexpr std::string_view kIdleRssRun =
    "peak_rss_bytes_per_receiver and run_wall_s on idle_population_1m";
inline constexpr std::string_view kNetRun =
    "run_wall_s on paper_job and idle_population_1m";
inline constexpr std::string_view kControl =
    "wakeup_s on paper_job; run_wall_s on idle_population_1m";
inline constexpr std::string_view kBackend = "makespan_s and run_wall_s on paper_job";
inline constexpr std::string_view kVerify =
    "dispatches_per_task and run_wall_s on byzantine_quorum";
inline constexpr std::string_view kFault = "task_fail_frac on byzantine_quorum";
inline constexpr std::string_view kEveryRun = "run_wall_s on every workload";
inline constexpr std::string_view kEverySetup = "setup_s on every workload";
inline constexpr std::string_view kEveryRss =
    "peak_rss_bytes_per_receiver on every workload";
}  // namespace moves

/// Reported per workload by --trace runs.
inline constexpr MetricDef kPerLayer[] = {
    {"sim.events_executed", "count", kLower, kSim, "sim", moves::kIdleRun},
    {"sim.events_per_s", "1/s", kHigher, kHost, "sim", moves::kIdleRun},
    {"sim.slice_wall_ms.p50", "ms", kLower, kHost, "sim", moves::kIdleRun},
    {"sim.slice_wall_ms.p99", "ms", kLower, kHost, "sim", moves::kIdleRun},
    {"sim.slice_wall_ms.count", "count", kLower, kSim, "sim", moves::kIdleRun},
    {"sim.execute_s", "s", kLower, kHost, "sim", moves::kIdleRun},
    {"sim.barrier_s", "s", kLower, kHost, "sim", moves::kShardedRun},
    {"sim.drain_s", "s", kLower, kHost, "sim", moves::kShardedRun},
    {"sim.global_s", "s", kLower, kHost, "sim", moves::kShardedRun},
    {"sim.mail_items", "count", kLower, kSim, "sim", moves::kShardedRun},
    {"sim.cross_posts", "count", kLower, kSim, "sim", moves::kShardedRun},
    {"sim.clamped_posts", "count", kLower, kSim, "sim", moves::kShardedRun},
    {"sim.imbalance_mean", "ratio", kLower, kHost, "sim", moves::kShardedRun},
    {"sim.timer_event_ns", "ns", kLower, kHost, "sim", moves::kIdleRun},

    {"broadcast.commits", "count", kLower, kSim, "broadcast", moves::kIdleSetup},
    {"verify_cache.hit", "count", kHigher, kSim, "broadcast", moves::kIdleSetup},
    {"verify_cache.miss", "count", kLower, kSim, "broadcast", moves::kIdleSetup},
    {"pna.control_messages_seen", "count", kLower, kSim, "broadcast",
     moves::kIdleSetup},
    {"broadcast.verify_ns", "ns", kLower, kHost, "broadcast", moves::kIdleSetup},

    {"pna.heartbeats_sent", "count", kLower, kSim, "dtv/core.pna",
     moves::kIdleRssRun},
    {"pna.joins", "count", kLower, kSim, "dtv/core.pna", moves::kIdleRssRun},
    {"pna.tasks_completed", "count", kLower, kSim, "dtv/core.pna",
     moves::kIdleRssRun},
    {"pna.wakeups_dropped_probability", "count", kLower, kSim, "dtv/core.pna",
     moves::kIdleRssRun},
    {"heartbeat.pool_reuse_ratio", "ratio", kHigher, kSim, "dtv/core.pna",
     moves::kIdleRssRun},
    {"phase.construct.rss_bytes_per_receiver", "B", kLower, kHost,
     "dtv/core.pna", moves::kIdleRssRun},
    {"phase.deploy.rss_bytes_per_receiver", "B", kLower, kHost, "dtv/core.pna",
     moves::kIdleRssRun},
    {"phase.run.rss_bytes_per_receiver", "B", kLower, kHost, "dtv/core.pna",
     moves::kIdleRssRun},

    {"net.messages_sent", "count", kLower, kSim, "net", moves::kNetRun},
    {"net.messages_delivered", "count", kLower, kSim, "net", moves::kNetRun},
    {"net.messages_dropped", "count", kLower, kSim, "net", moves::kNetRun},
    {"net.bits_sent", "bit", kLower, kSim, "net", moves::kNetRun},

    {"wire.writer_reuse", "count", kHigher, kSim, "core.wire", moves::kIdleRun},
    {"wire.heartbeat_roundtrip_ns", "ns", kLower, kHost, "core.wire",
     moves::kIdleRun},

    {"controller.aggregate_reports_received", "count", kLower, kSim,
     "core.aggregator", moves::kShardedRun},
    {"controller.report_bytes_ingested", "B", kLower, kSim, "core.aggregator",
     moves::kShardedRun},
    {"controller.delta_frames_received", "count", kLower, kSim,
     "core.aggregator", moves::kShardedRun},
    {"controller.delta_resyncs", "count", kLower, kSim, "core.aggregator",
     moves::kShardedRun},
    {"controller.delta_gaps", "count", kLower, kSim, "core.aggregator",
     moves::kShardedRun},

    {"controller.monitor_wall_s", "s", kLower, kHost, "core.controller",
     moves::kControl},
    {"controller.heartbeats_received", "count", kLower, kSim, "core.controller",
     moves::kControl},
    {"controller.wakeup_broadcasts", "count", kLower, kSim, "core.controller",
     moves::kControl},
    {"controller.recompositions", "count", kLower, kSim, "core.controller",
     moves::kControl},
    {"controller.unicast_resets", "count", kLower, kSim, "core.controller",
     moves::kControl},
    {"control.overshoot_frac", "ratio", kLower, kSim, "control", moves::kControl},

    {"backend.assignments", "count", kLower, kSim, "core.backend",
     moves::kBackend},
    {"backend.tasks_done", "count", kHigher, kSim, "core.backend",
     moves::kBackend},
    {"backend.reassignments", "count", kLower, kSim, "core.backend",
     moves::kBackend},
    {"backend.task_retries", "count", kLower, kSim, "core.backend",
     moves::kBackend},
    {"backend.duplicate_results", "count", kLower, kSim, "core.backend",
     moves::kBackend},
    {"backend.useful_ratio", "ratio", kHigher, kSim, "core.backend",
     moves::kBackend},

    {"verify.dispatches", "count", kLower, kSim, "core.verify", moves::kVerify},
    {"verify.spot_dispatches", "count", kLower, kSim, "core.verify",
     moves::kVerify},
    {"verify.outvoted", "count", kLower, kSim, "core.verify", moves::kVerify},
    {"verify.escalations", "count", kLower, kSim, "core.verify", moves::kVerify},
    {"verify.quarantines", "count", kHigher, kSim, "core.verify",
     moves::kVerify},
    {"verify.implausible_returns", "count", kLower, kSim, "core.verify",
     moves::kVerify},

    {"fault.messages_lost", "count", kLower, kSim, "fault", moves::kFault},
    {"fault.pna_crashes", "count", kLower, kSim, "fault", moves::kFault},
    {"recovery.result_retries", "count", kLower, kSim, "fault", moves::kFault},

    {"obs.trace_overhead_frac", "ratio", kLower, kHost, "obs", moves::kEveryRun,
     true},

    {"phase.construct.wall_s", "s", kLower, kHost, "phases", moves::kEverySetup},
    {"phase.construct.events", "count", kLower, kSim, "phases",
     moves::kEverySetup},
    {"phase.construct.rss_delta_bytes", "B", kLower, kHost, "phases",
     moves::kEveryRss},
    {"phase.deploy.wall_s", "s", kLower, kHost, "phases", moves::kEverySetup},
    {"phase.deploy.events", "count", kLower, kSim, "phases", moves::kEverySetup},
    {"phase.deploy.rss_delta_bytes", "B", kLower, kHost, "phases",
     moves::kEveryRss},
    {"phase.run.wall_s", "s", kLower, kHost, "phases", moves::kEveryRun},
    {"phase.run.events", "count", kLower, kSim, "phases", moves::kEveryRun},
    {"phase.run.rss_delta_bytes", "B", kLower, kHost, "phases",
     moves::kEveryRss},
    {"phase.snapshot.wall_s", "s", kLower, kHost, "obs", moves::kEveryRun},
    {"phase.snapshot.events", "count", kLower, kSim, "phases", moves::kEveryRun},
    {"phase.snapshot.rss_delta_bytes", "B", kLower, kHost, "phases",
     moves::kEveryRss},
    {"run.wall_to_ready_s", "s", kLower, kHost, "phases", moves::kControl},
    {"run.wall_to_done_s", "s", kLower, kHost, "phases", moves::kEveryRun},
};

}  // namespace oddci_bench
