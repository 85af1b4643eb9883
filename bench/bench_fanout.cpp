// Broadcast fan-out + heartbeat-storm microbench (verify-once control
// messages, shared decoded broadcasts, pooled heartbeat messages).
//
// Scenario, per population and per heartbeat encoding (naive or delta):
//
//  1. Fan-out phase: deploy the PNA. One signed control message reaches
//     every receiver; the population shares one decode and one signature
//     hash per shard.
//  2. Storm phase: the population heartbeats at a 10 s cadence through the
//     aggregation tier for 10 simulated minutes (the allocation hot path:
//     each beat is a recycled pool slot).
//
// `--heartbeat-mode both` runs naive and delta at each population and
// reports the naive-vs-delta ratios. Output: human table on stdout,
// BENCH_fanout.json shape via --json <path>. --quick shrinks to one small
// population for CI smoke.
//
// --byzantine replaces the sweep with the verification-overhead point:
// the byzantine_10pct acceptance scenario (100k receivers, 10% forgers,
// 5% free-riders, one colluding trio, on top of the crash/omission fault
// matrix) run twice — once with an honest population and the verifier
// off (the baseline dispatch bill), once defended (2-way sequential
// quorum + spot checks + reputation ledger). The JSON gains a
// "byzantine" section recording both bills and the overhead ratio the
// acceptance criterion bounds at 2.5x.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_metrics.hpp"
#include "core/system.hpp"

namespace {

using namespace oddci;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Deltas of the current resident set around a run approximate its
// footprint (see "rss_note" in the JSON).
using bench::current_rss_mb;

struct Point {
  std::size_t receivers = 0;
  std::size_t shards = 1;
  core::HeartbeatMode hb_mode = core::HeartbeatMode::kNaive;
  double fanout_wall_s = 0.0;
  double storm_wall_s = 0.0;
  double wall_seconds = 0.0;
  double events_per_sec = 0.0;
  std::uint64_t events_executed = 0;
  double rss_delta_mb = 0.0;
  std::uint64_t controls_seen = 0;
  std::uint64_t verify_hits = 0;
  std::uint64_t verify_misses = 0;
  std::uint64_t heartbeats = 0;
  std::uint64_t pool_reused = 0;
  std::uint64_t pool_allocated = 0;
  std::uint64_t pooled_bytes = 0;
  std::uint64_t report_bytes_ingested = 0;
  double controller_tick_wall_s = 0.0;
};

const char* hb_mode_name(core::HeartbeatMode m) {
  return m == core::HeartbeatMode::kDelta ? "delta" : "naive";
}

// One run of the byzantine acceptance scenario (--byzantine), either as
// the honest baseline (adversaries off, verifier off: what the dispatch
// bill looks like when every PNA is honest under the same fault matrix)
// or defended (10%/5%/trio adversaries with the full verify pipeline).
struct ByzPoint {
  std::size_t receivers = 0;
  std::size_t shards = 1;
  bool defended = false;
  double wall_seconds = 0.0;
  bool completed = false;
  std::uint64_t assignments = 0;       ///< job-level task dispatches
  std::uint64_t tasks_verified = 0;
  std::uint64_t wrong_results = 0;
  std::uint64_t dispatched = 0;        ///< verify replica dispatches
  std::uint64_t spot_dispatched = 0;
  std::uint64_t outvoted = 0;
  std::uint64_t escalations = 0;
  std::uint64_t implausible_returns = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t trusted_promotions = 0;
};

// Mirrors examples/scenarios/byzantine_10pct.cfg and the byzantine_replay
// integration test so the three surfaces track the same acceptance point.
core::SystemConfig byzantine_config(std::size_t shards, bool defended) {
  core::SystemConfig config;
  config.receivers = 100'000;
  config.channels = 4;
  config.aggregators = 16;
  config.seed = 20260809;
  config.control.overshoot_margin = 1.3;
  config.shards = shards;
  config.fault.enabled = true;
  config.fault.message_loss = 0.01;
  config.fault.message_duplication = 0.01;
  config.fault.latency_spike_probability = 0.005;
  config.fault.pna_crashes_per_hour = 20.0;
  config.fault.pna_hangs_per_hour = 10.0;
  if (defended) {
    config.fault.byzantine_forger_fraction = 0.10;
    config.fault.byzantine_freerider_fraction = 0.05;
    config.fault.byzantine_collusion_size = 3;
    config.verify.enabled = true;
    config.verify.redundancy = 2;
    config.verify.spot_check_rate = 0.02;
    config.verify.min_observations = 6;
    config.verify.ewma_alpha = 0.3;
    config.verify.parole_failure_limit = 2;
  }
  return config;
}

ByzPoint run_byzantine_point(std::size_t shards, bool defended) {
  ByzPoint p;
  p.shards = shards;
  p.defended = defended;

  const auto t0 = Clock::now();
  core::OddciSystem system(byzantine_config(shards, defended));
  p.receivers = 100'000;
  const auto job = workload::make_uniform_job(
      "byzantine-bench", util::Bits::from_megabytes(2), 400,
      util::Bits::from_bytes(512), util::Bits::from_bytes(512), 10.0);
  const auto result = system.run_job(job, 100);
  p.wall_seconds = seconds_since(t0);

  p.completed = result.completed;
  p.assignments = result.job.assignments;
  if (const core::Verifier* verifier = system.verifier()) {
    const auto s = verifier->stats();
    p.tasks_verified = s.tasks_verified;
    p.wrong_results = s.wrong_results;
    p.dispatched = s.dispatched;
    p.spot_dispatched = s.spot_dispatched;
    p.outvoted = s.outvoted;
    p.escalations = s.escalations;
    p.implausible_returns = s.implausible_returns;
    p.quarantines = s.quarantines;
    p.trusted_promotions = s.trusted_promotions;
  }
  return p;
}

void print_byz_point(const ByzPoint& p) {
  std::printf("%-8s | %7.2f | %11llu | %8llu | %5llu | %8llu | %4llu | %11llu | %7llu\n",
              p.defended ? "defended" : "honest", p.wall_seconds,
              static_cast<unsigned long long>(p.assignments),
              static_cast<unsigned long long>(p.tasks_verified),
              static_cast<unsigned long long>(p.wrong_results),
              static_cast<unsigned long long>(p.dispatched),
              static_cast<unsigned long long>(p.spot_dispatched),
              static_cast<unsigned long long>(p.quarantines),
              static_cast<unsigned long long>(p.trusted_promotions));
}

void write_byz_json(std::ostream& out, const std::vector<ByzPoint>& byz) {
  out << "  \"byzantine\": {\n"
      << "    \"scenario\": {\"receivers\": 100000, \"channels\": 4, "
      << "\"aggregators\": 16, \"seed\": 20260809, \"tasks\": 400, "
      << "\"task_seconds\": 10, \"forgers\": 0.10, \"freeriders\": 0.05, "
      << "\"collusion\": 3, \"redundancy\": 2, \"spot_check_rate\": 0.02},\n"
      << "    \"points\": [\n";
  for (std::size_t i = 0; i < byz.size(); ++i) {
    const auto& p = byz[i];
    out << "      {\"mode\": \"" << (p.defended ? "defended" : "honest")
        << "\", \"shards\": " << p.shards
        << ", \"wall_seconds\": " << p.wall_seconds
        << ", \"completed\": " << (p.completed ? "true" : "false")
        << ", \"assignments\": " << p.assignments
        << ", \"tasks_verified\": " << p.tasks_verified
        << ", \"wrong_results\": " << p.wrong_results
        << ", \"replica_dispatches\": " << p.dispatched
        << ", \"spot_dispatches\": " << p.spot_dispatched
        << ", \"outvoted\": " << p.outvoted
        << ", \"escalations\": " << p.escalations
        << ", \"implausible_returns\": " << p.implausible_returns
        << ", \"quarantines\": " << p.quarantines
        << ", \"trusted_promotions\": " << p.trusted_promotions << "}"
        << (i + 1 < byz.size() ? "," : "") << "\n";
  }
  out << "    ]";
  // The acceptance ratio: the defended run's full verification bill
  // (replicas + spot checks) over the honest baseline's dispatch bill.
  const ByzPoint* honest = nullptr;
  const ByzPoint* defended = nullptr;
  for (const auto& p : byz) (p.defended ? defended : honest) = &p;
  if (honest != nullptr && defended != nullptr && honest->assignments > 0) {
    out << ",\n    \"overhead_vs_honest\": "
        << static_cast<double>(defended->dispatched +
                               defended->spot_dispatched) /
               static_cast<double>(honest->assignments)
        << ",\n    \"overhead_bound\": 2.5";
  }
  out << "\n  },\n";
}

Point run_point(std::size_t receivers, std::size_t shards,
                core::HeartbeatMode hb_mode) {
  Point point;
  point.receivers = receivers;
  point.shards = shards;
  point.hb_mode = hb_mode;

  core::SystemConfig config;
  config.receivers = receivers;
  config.channels = 8;
  config.aggregators = 16;
  config.seed = 99;
  config.controller.default_heartbeat = sim::SimTime::from_seconds(10);
  config.shards = shards;
  config.heartbeat.mode = hb_mode;

  const double rss_before = current_rss_mb();
  const auto t0 = Clock::now();
  core::OddciSystem system(config);

  // Phase 1: one broadcast fans out to the whole population.
  system.controller().deploy_pna();
  system.kernel().run_until(sim::SimTime::from_seconds(120));
  point.fanout_wall_s = seconds_since(t0);

  // Phase 2: heartbeat storm through the aggregation tier.
  const auto storm0 = Clock::now();
  system.kernel().run_until(sim::SimTime::from_seconds(120 + 600));
  point.storm_wall_s = seconds_since(storm0);

  point.wall_seconds = seconds_since(t0);
  point.rss_delta_mb = current_rss_mb() - rss_before;
  point.events_executed = system.kernel().events_executed();
  point.events_per_sec =
      static_cast<double>(point.events_executed) / point.wall_seconds;

  const auto snap = system.metrics_snapshot();
  point.controls_seen = snap.counter_value("pna.control_messages_seen");
  point.verify_hits = snap.counter_value("verify_cache.hit");
  point.verify_misses = snap.counter_value("verify_cache.miss");
  point.heartbeats = snap.counter_value("pna.heartbeats_sent");
  point.pool_reused = snap.counter_value("heartbeat.pool_reused");
  point.pool_allocated = snap.counter_value("heartbeat.pool_allocated");
  point.pooled_bytes = snap.counter_value("heartbeat.pooled_bytes");
  point.report_bytes_ingested = system.controller().report_bytes_ingested();
  point.controller_tick_wall_s = system.controller().monitor_wall_seconds();
  return point;
}

void print_point(const Point& p) {
  std::printf(
      "%9zu | %-5s | %8.2f | %8.2f | %8.3g | %7.1f | ingest %llu KiB, "
      "pool %llur\n",
      p.receivers, hb_mode_name(p.hb_mode), p.fanout_wall_s, p.storm_wall_s,
      p.events_per_sec, p.rss_delta_mb,
      static_cast<unsigned long long>(p.report_bytes_ingested / 1024),
      static_cast<unsigned long long>(p.pool_reused));
}

void write_json(const std::string& path, const std::vector<Point>& points,
                const std::vector<ByzPoint>& byz) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"fanout\",\n"
      << "  \"host\": " << oddci::bench::host_json() << ",\n"
      << "  \"scenario\": {\"channels\": 8, \"aggregators\": 16, "
      << "\"seed\": 99, \"heartbeat_s\": 10, \"fanout_sim_s\": 120, "
      << "\"storm_sim_s\": 600},\n";
  if (!byz.empty()) write_byz_json(out, byz);
  out
      << "  \"rss_note\": \"rss_delta_mb is current-RSS growth across the "
      << "run (from /proc/self/statm); the allocator may retain freed "
      << "pages from earlier points in the same process, so deltas are "
      << "indicative, not exact\",\n"
      << "  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    out << "    {\"receivers\": " << p.receivers
        << ", \"shards\": " << p.shards
        << ", \"heartbeat_mode\": \"" << hb_mode_name(p.hb_mode) << "\""
        << ", \"fanout_wall_s\": " << p.fanout_wall_s
        << ", \"storm_wall_s\": " << p.storm_wall_s
        << ", \"wall_seconds\": " << p.wall_seconds
        << ", \"events_executed\": " << p.events_executed
        << ", \"events_per_sec\": " << p.events_per_sec
        << ", \"rss_delta_mb\": " << p.rss_delta_mb
        << ", \"controls_seen\": " << p.controls_seen
        << ", \"verify_hits\": " << p.verify_hits
        << ", \"verify_misses\": " << p.verify_misses
        << ", \"heartbeats_sent\": " << p.heartbeats
        << ", \"pool_reused\": " << p.pool_reused
        << ", \"pool_allocated\": " << p.pool_allocated
        << ", \"pooled_bytes\": " << p.pooled_bytes
        << ", \"report_bytes_ingested\": " << p.report_bytes_ingested
        << ", \"controller_tick_wall_s\": " << p.controller_tick_wall_s
        << "}" << (i + 1 < points.size() ? "," : "") << "\n";
  }
  // Naive-vs-delta: the O(changes) return channel's win in ingested
  // report bytes, Controller tick wall time and storm wall time.
  out << "  ],\n  \"delta_speedups\": [\n";
  bool first = true;
  for (const auto& naive : points) {
    if (naive.hb_mode != core::HeartbeatMode::kNaive) continue;
    for (const auto& delta : points) {
      if (delta.hb_mode != core::HeartbeatMode::kDelta ||
          delta.receivers != naive.receivers) {
        continue;
      }
      if (!first) out << ",\n";
      first = false;
      out << "    {\"receivers\": " << naive.receivers
          << ", \"ingest_bytes_ratio\": "
          << (delta.report_bytes_ingested > 0
                  ? static_cast<double>(naive.report_bytes_ingested) /
                        static_cast<double>(delta.report_bytes_ingested)
                  : 0.0)
          << ", \"tick_speedup\": "
          << (delta.controller_tick_wall_s > 0.0
                  ? naive.controller_tick_wall_s / delta.controller_tick_wall_s
                  : 0.0)
          << ", \"storm_speedup\": " << naive.storm_wall_s / delta.storm_wall_s
          << ", \"wall_speedup\": " << naive.wall_seconds / delta.wall_seconds
          << "}";
    }
  }
  out << "\n  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string hb_arg = "naive";
  bool quick = false;
  bool byzantine = false;
  std::size_t shards = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) json_path = argv[++i];
    if (arg == "--quick") quick = true;
    if (arg == "--byzantine") byzantine = true;
    if (arg == "--shards" && i + 1 < argc) {
      shards = static_cast<std::size_t>(std::stoull(argv[++i]));
    }
    if (arg == "--heartbeat-mode" && i + 1 < argc) hb_arg = argv[++i];
  }
  if (hb_arg != "naive" && hb_arg != "delta" && hb_arg != "both") {
    std::cerr << "--heartbeat-mode must be naive, delta or both\n";
    return 2;
  }

  if (byzantine) {
    std::cout << "== Byzantine verification bill: honest baseline vs "
              << "defended adversarial population (100k receivers, "
              << "400 tasks) ==\n";
    std::cout << "mode     | wall s  | assignments | verified | wrong | "
              << "replicas | spot | quarantines | trusted\n";
    std::vector<ByzPoint> byz;
    byz.push_back(run_byzantine_point(shards, /*defended=*/false));
    print_byz_point(byz.back());
    byz.push_back(run_byzantine_point(shards, /*defended=*/true));
    print_byz_point(byz.back());
    const double overhead =
        static_cast<double>(byz[1].dispatched + byz[1].spot_dispatched) /
        static_cast<double>(byz[0].assignments);
    std::printf(
        "defended bill %.2fx honest baseline (%llu replica + %llu spot "
        "dispatches vs %llu honest assignments), %llu wrong results\n",
        overhead, static_cast<unsigned long long>(byz[1].dispatched),
        static_cast<unsigned long long>(byz[1].spot_dispatched),
        static_cast<unsigned long long>(byz[0].assignments),
        static_cast<unsigned long long>(byz[1].wrong_results));
    if (!json_path.empty()) {
      write_json(json_path, {}, byz);
      std::cout << "wrote " << json_path << "\n";
    }
    return 0;
  }

  const std::vector<std::size_t> populations =
      quick ? std::vector<std::size_t>{10'000}
            : std::vector<std::size_t>{100'000, 1'000'000};

  std::cout << "== Broadcast fan-out + heartbeat storm ==\n";
  std::cout << "receivers | hb    | fanout s | storm s  | ev/s     | dRSS MB "
            << "| counters\n";
  std::vector<core::HeartbeatMode> modes;
  if (hb_arg != "delta") modes.push_back(core::HeartbeatMode::kNaive);
  if (hb_arg != "naive") modes.push_back(core::HeartbeatMode::kDelta);
  std::vector<Point> points;
  for (const auto receivers : populations) {
    // Note the ordering caveat: the allocator is warm with pages an
    // earlier point freed, which can understate a later point's RSS delta
    // (see rss_note in the JSON).
    for (const core::HeartbeatMode mode : modes) {
      points.push_back(run_point(receivers, shards, mode));
      print_point(points.back());
    }
  }

  for (const auto& naive : points) {
    if (naive.hb_mode != core::HeartbeatMode::kNaive) continue;
    for (const auto& delta : points) {
      if (delta.hb_mode != core::HeartbeatMode::kDelta ||
          delta.receivers != naive.receivers) {
        continue;
      }
      std::printf(
          "%9zu receivers naive->delta: ingest %.1fx fewer bytes, "
          "storm %.2fx, tick %.2fx\n",
          naive.receivers,
          delta.report_bytes_ingested > 0
              ? static_cast<double>(naive.report_bytes_ingested) /
                    static_cast<double>(delta.report_bytes_ingested)
              : 0.0,
          naive.storm_wall_s / delta.storm_wall_s,
          delta.controller_tick_wall_s > 0.0
              ? naive.controller_tick_wall_s / delta.controller_tick_wall_s
              : 0.0);
    }
  }

  if (!json_path.empty()) {
    write_json(json_path, points, {});
    std::cout << "wrote " << json_path << "\n";
  }
  return 0;
}
