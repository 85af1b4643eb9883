// Kernel scaling benchmark for the pooled-event kernel.
//
// Two parts:
//
//  1. Kernel heartbeats — a synthetic heartbeat workload (N agents beating
//     from a `sim::Cadence` with random phases, each beat crossing the
//     network as two chained kernel events, the shape the OddCI control
//     plane produces) driven through `sim::Simulation`: events/sec per
//     population, kernel cost only.
//
//  2. System sweep — full `OddciSystem::run_job` at 10k -> 1M receivers,
//     reporting events/sec, wall seconds per simulated hour, and peak RSS.
//
// Output: a human table on stdout and JSON (BENCH_kernel.json shape) on
// request via --json <path>.

#include <sys/resource.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_metrics.hpp"
#include "core/system.hpp"
#include "sim/cadence.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workload/job.hpp"

namespace {

using namespace oddci;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB -> MB
}

// Return allocator-retained free pages to the OS so the next sweep's
// baseline is tight. Without this, pages freed by a previous sweep stay
// resident and get silently reused, and the following sweep's RSS delta
// reads as ~0 (the historical `rss_delta_mb: 0` anomaly at the 100k
// point, which ran entirely inside the 10k sweep's retained pages).
void settle_allocator() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

// Current (not peak) resident set. ru_maxrss is a process-global high-water
// mark: once the largest sweep has run, every later (or smaller,
// earlier-allocating) sweep reports the same number. Per-sweep current-RSS
// deltas (baseline taken after settle_allocator()) attribute growth to the
// sweep that caused it.
using bench::current_rss_mb;

struct KernelPoint {
  std::size_t population = 0;
  double events_per_sec = 0.0;
};

// Control-plane workload mirroring what `run_job` generates per heartbeat:
// each agent beats from the shard's heartbeat cadence (`sim::Cadence`, one
// kernel event per due instant), and the heartbeat message crosses the
// network in two chained hops exactly as net::Network::send schedules them
// (an edge-arrival event whose handler schedules the downlink-completion
// event; each closure captures {this, from, to, shared_ptr message} =
// 32 bytes). `population` agents, 30 s period, random phase, one simulated
// hour. Message construction is deliberately hoisted out (a shared dummy
// payload) so the point measures kernel cost, not workload cost. Useful
// events = beat + 2 hops.
constexpr std::int64_t kHourUs = 3'600'000'000;
constexpr std::int64_t kPeriodUs = 30'000'000;
constexpr std::int64_t kEdgeUs = 40'000;  // uplink + propagation to edge
constexpr std::int64_t kDownUs = 4'000;   // receiver downlink serialization

struct Payload {
  std::uint64_t wire_bits = 544;
  std::uint64_t* sink = nullptr;
};

struct Fleet {
  sim::Simulation* kernel = nullptr;
  std::shared_ptr<Payload> message;
};

struct Agent {
  const Fleet* fleet = nullptr;
  std::uint32_t id = 0;
};

void beat(void* target) {
  const auto& agent = *static_cast<const Agent*>(target);
  void* const self = agent.fleet->kernel;
  const std::uint32_t from = agent.id;
  const std::uint32_t to = 0;
  agent.fleet->kernel->schedule_in(
      sim::SimTime::from_micros(kEdgeUs),
      [self, from, to, message = agent.fleet->message] {
        auto& k = *static_cast<sim::Simulation*>(self);
        k.schedule_in(sim::SimTime::from_micros(kDownUs),
                      [self, from, to, message] {
                        *message->sink += message->wire_bits != 0;
                      },
                      sim::EventPriority::kDelivery);
      },
      sim::EventPriority::kDelivery);
}

KernelPoint kernel_heartbeats(std::size_t population) {
  KernelPoint point;
  point.population = population;
  util::Random rng(7);
  sim::Simulation kernel;
  std::uint64_t delivered = 0;
  Fleet fleet{&kernel, std::make_shared<Payload>()};
  fleet.message->sink = &delivered;
  std::vector<Agent> agents(population);
  sim::Cadence heartbeats(kernel, &beat);
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < population; ++i) {
    agents[i] = Agent{&fleet, static_cast<std::uint32_t>(i)};
    const auto phase = sim::SimTime::from_micros(
        static_cast<std::int64_t>(rng.uniform(0.0, 1.0) * kPeriodUs));
    heartbeats.arm(&agents[i], phase, sim::SimTime::from_micros(kPeriodUs));
  }
  kernel.run_until(sim::SimTime::from_micros(kHourUs));
  point.events_per_sec =
      static_cast<double>(3 * delivered) / seconds_since(t0);
  return point;
}

struct SystemPoint {
  std::size_t receivers = 0;
  std::size_t shards = 1;
  bool completed = false;
  double events_per_sec = 0.0;
  double wall_seconds = 0.0;
  double wall_seconds_per_sim_hour = 0.0;
  double sim_seconds = 0.0;
  double peak_rss_mb = 0.0;
  /// Current-RSS growth across this sweep (see current_rss_mb()).
  double rss_delta_mb = 0.0;
  std::uint64_t events_executed = 0;
  obs::MetricsSnapshot metrics;
};

SystemPoint system_sweep(std::size_t receivers, std::size_t shards,
                         bool profile = false,
                         const std::string& profile_json = "") {
  SystemPoint point;
  point.receivers = receivers;
  point.shards = shards;

  core::SystemConfig config;
  config.receivers = receivers;
  config.channels = 8;
  config.aggregators = 16;
  config.seed = 99;
  config.control.overshoot_margin = 1.3;
  config.shards = shards;
  config.obs.profile = profile;

  settle_allocator();
  const double rss_before = current_rss_mb();
  const auto t0 = Clock::now();
  core::OddciSystem system(config);
  const auto job = workload::make_uniform_job(
      "kernel-sweep", util::Bits::from_megabytes(2), 500,
      util::Bits::from_bytes(512), util::Bits::from_bytes(512), 10.0);
  const auto result = system.run_job(job, receivers / 10);

  point.completed = result.completed;
  point.wall_seconds = seconds_since(t0);
  point.events_executed = system.kernel().events_executed();
  point.events_per_sec =
      static_cast<double>(point.events_executed) / point.wall_seconds;
  point.sim_seconds = system.kernel().now().seconds();
  point.wall_seconds_per_sim_hour =
      point.wall_seconds / (point.sim_seconds / 3600.0);
  point.peak_rss_mb = peak_rss_mb();
  point.rss_delta_mb = current_rss_mb() - rss_before;
  point.metrics = result.metrics;
  if (profile && !profile_json.empty()) {
    obs::write_profile_json(profile_json, system.profile_snapshot());
  }
  return point;
}

struct OverheadPoint {
  std::size_t receivers = 0;
  std::size_t shards = 1;
  int reps = 0;
  double off_wall_s = 0.0;    ///< median over the pairs
  double on_wall_s = 0.0;     ///< median over the pairs
  double overhead_pct = 0.0;  ///< median of the per-pair on/off ratios
};

/// Profiler-cost A/B: the same seeded scenario with the kernel profiler
/// off and on, `reps` back-to-back pairs. Even pairs run profiler-off
/// first and odd pairs profiler-on first, so a host that drifts within a
/// pair charges neither side; the overhead is the median of the per-pair
/// on/off wall ratios, which a single slow run cannot move.
OverheadPoint profiler_overhead_ab(std::size_t receivers, std::size_t shards,
                                   int reps,
                                   const std::string& profile_json) {
  OverheadPoint point;
  point.receivers = receivers;
  point.shards = shards;
  point.reps = reps;
  util::Samples off;
  util::Samples on;
  util::Samples ratios;
  for (int r = 0; r < reps; ++r) {
    const auto run_off = [&] {
      return system_sweep(receivers, shards).wall_seconds;
    };
    const auto run_on = [&] {
      return system_sweep(receivers, shards, true,
                          r + 1 == reps ? profile_json : "")
          .wall_seconds;
    };
    double off_wall = 0.0;
    double on_wall = 0.0;
    if (r % 2 == 0) {
      off_wall = run_off();
      on_wall = run_on();
    } else {
      on_wall = run_on();
      off_wall = run_off();
    }
    off.add(off_wall);
    on.add(on_wall);
    ratios.add(on_wall / off_wall);
  }
  if (reps > 0) {
    point.off_wall_s = off.median();
    point.on_wall_s = on.median();
    point.overhead_pct = 100.0 * (ratios.median() - 1.0);
  }
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bool quick = false;
  bool deep = false;
  std::size_t shards = 1;
  std::vector<std::size_t> shard_sweep;
  // Profiler-overhead A/B mode (appended after the requested sweeps):
  // --profile-overhead enables it, --overhead-gate <pct> makes a breach a
  // nonzero exit (the CI smoke), --overhead-pop overrides the population
  // (defaults to the sweep's largest), --overhead-reps the A/B pairs, and
  // --profile-json saves the final profiled run's oddci.profile.v1.
  bool profile_overhead = false;
  double overhead_gate = 0.0;
  std::size_t overhead_pop = 0;
  int overhead_reps = 3;
  std::string profile_json;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) json_path = argv[++i];
    if (arg == "--quick") quick = true;
    if (arg == "--deep") deep = true;  // adds the 10M-receiver point
    if (arg == "--shards" && i + 1 < argc) {
      shards = static_cast<std::size_t>(std::stoull(argv[++i]));
    }
    if (arg == "--profile-overhead") profile_overhead = true;
    if (arg == "--overhead-gate" && i + 1 < argc) {
      overhead_gate = std::stod(argv[++i]);
    }
    if (arg == "--overhead-pop" && i + 1 < argc) {
      overhead_pop = static_cast<std::size_t>(std::stoull(argv[++i]));
    }
    if (arg == "--overhead-reps" && i + 1 < argc) {
      overhead_reps = std::stoi(argv[++i]);
    }
    if (arg == "--profile-json" && i + 1 < argc) profile_json = argv[++i];
    // Comma-separated shard counts for the fixed-population scaling
    // sweep, e.g. --shard-sweep 1,2,8 (run at the largest non-deep
    // population: 1M in the full sweep, 10k with --quick).
    if (arg == "--shard-sweep" && i + 1 < argc) {
      std::string list = argv[++i];
      std::size_t pos = 0;
      while (pos < list.size()) {
        const std::size_t comma = list.find(',', pos);
        const std::string item = list.substr(
            pos, comma == std::string::npos ? std::string::npos : comma - pos);
        if (!item.empty()) shard_sweep.push_back(std::stoull(item));
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    }
  }

  const std::vector<std::size_t> kernel_pops =
      quick ? std::vector<std::size_t>{10'000}
            : std::vector<std::size_t>{10'000, 100'000, 1'000'000};
  std::vector<std::size_t> system_pops =
      quick ? std::vector<std::size_t>{10'000}
            : std::vector<std::size_t>{10'000, 100'000, 1'000'000};
  // Shard scaling runs at the largest non-deep population (1M in the full
  // sweep) — the 10M point is a capacity probe, not the scaling scenario.
  const std::size_t shard_sweep_pop = system_pops.back();
  if (deep && !quick) system_pops.push_back(10'000'000);

  std::cout << "== Kernel: pooled events + heartbeat cadence"
            << " — 1 simulated hour of heartbeats ==\n";
  std::cout << "population | ev/s\n";
  std::vector<KernelPoint> kernel_points;
  for (const auto population : kernel_pops) {
    const auto point = kernel_heartbeats(population);
    kernel_points.push_back(point);
    std::printf("%10zu | %.3g\n", point.population, point.events_per_sec);
  }

  std::cout << "\n== System sweep: OddciSystem::run_job (shards=" << shards
            << ") ==\n";
  std::cout << "receivers | done | events | ev/s | wall s | wall s/sim h |"
            << " dRSS MB | peak RSS MB\n";
  std::vector<SystemPoint> system_points;
  for (const auto receivers : system_pops) {
    const auto point = system_sweep(receivers, shards);
    system_points.push_back(point);
    std::printf("%9zu | %4s | %.3g | %.3g | %6.1f | %12.1f | %7.1f |"
                " %11.1f\n",
                point.receivers, point.completed ? "yes" : "NO",
                static_cast<double>(point.events_executed),
                point.events_per_sec, point.wall_seconds,
                point.wall_seconds_per_sim_hour, point.rss_delta_mb,
                point.peak_rss_mb);
  }

  // Fixed-population shard scaling: the same scenario at each K. Different
  // K are different (each internally deterministic) trajectories, so the
  // comparison is wall clock for the same simulated workload, not
  // event-for-event.
  std::vector<SystemPoint> shard_points;
  if (!shard_sweep.empty()) {
    const std::size_t population = shard_sweep_pop;
    std::cout << "\n== Shard scaling at " << population << " receivers ==\n";
    std::cout << "shards | done | events | ev/s | wall s | speedup vs K=1\n";
    double k1_wall = 0.0;
    for (const auto k : shard_sweep) {
      const auto point = system_sweep(population, k);
      shard_points.push_back(point);
      if (k == 1) k1_wall = point.wall_seconds;
      std::printf("%6zu | %4s | %.3g | %.3g | %6.1f | %6.2fx\n", point.shards,
                  point.completed ? "yes" : "NO",
                  static_cast<double>(point.events_executed),
                  point.events_per_sec, point.wall_seconds,
                  k1_wall > 0.0 ? k1_wall / point.wall_seconds : 0.0);
    }
  }

  OverheadPoint overhead;
  if (profile_overhead) {
    const std::size_t population =
        overhead_pop != 0 ? overhead_pop : shard_sweep_pop;
    std::cout << "\n== Profiler overhead A/B at " << population
              << " receivers, " << shards << " shard(s), median of "
              << overhead_reps << " alternating pairs ==\n";
    overhead =
        profiler_overhead_ab(population, shards, overhead_reps, profile_json);
    std::printf("off %.2f s | on %.2f s | overhead %+.2f%%\n",
                overhead.off_wall_s, overhead.on_wall_s,
                overhead.overhead_pct);
    if (!profile_json.empty()) {
      std::cout << "wrote " << profile_json << "\n";
    }
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    // Shard-scaling speedups only mean anything relative to the cores the
    // sweep had: K worker threads on fewer than K cores time-slice, so the
    // barrier cost shows up but the parallelism cannot.
    out << "{\n  \"host\": " << oddci::bench::host_json() << ",\n"
        << "  \"kernel_heartbeats\": [\n";
    for (std::size_t i = 0; i < kernel_points.size(); ++i) {
      const auto& p = kernel_points[i];
      out << "    {\"population\": " << p.population
          << ", \"events_per_sec\": " << p.events_per_sec << "}"
          << (i + 1 < kernel_points.size() ? "," : "") << "\n";
    }
    const auto emit_system_point = [&out](const SystemPoint& p) {
      out << "    {\"receivers\": " << p.receivers
          << ", \"shards\": " << p.shards
          << ", \"completed\": " << (p.completed ? "true" : "false")
          << ", \"events_executed\": " << p.events_executed
          << ", \"events_per_sec\": " << p.events_per_sec
          << ", \"wall_seconds\": " << p.wall_seconds
          << ", \"wall_seconds_per_sim_hour\": "
          << p.wall_seconds_per_sim_hour
          << ", \"rss_delta_mb\": " << p.rss_delta_mb
          << ", \"peak_rss_mb\": " << p.peak_rss_mb << "}";
    };
    out << "  ],\n  \"system_sweep\": [\n";
    for (std::size_t i = 0; i < system_points.size(); ++i) {
      emit_system_point(system_points[i]);
      out << (i + 1 < system_points.size() ? "," : "") << "\n";
    }
    out << "  ],\n";
    if (!shard_points.empty()) {
      out << "  \"shard_scaling\": [\n";
      for (std::size_t i = 0; i < shard_points.size(); ++i) {
        emit_system_point(shard_points[i]);
        out << (i + 1 < shard_points.size() ? "," : "") << "\n";
      }
      out << "  ],\n";
    }
    if (profile_overhead) {
      out << "  \"profiler_overhead\": {\"receivers\": " << overhead.receivers
          << ", \"shards\": " << overhead.shards
          << ", \"reps\": " << overhead.reps
          << ", \"off_wall_seconds\": " << overhead.off_wall_s
          << ", \"on_wall_seconds\": " << overhead.on_wall_s
          << ", \"overhead_pct\": " << overhead.overhead_pct << "},\n";
    }
    out << "  \"heartbeat_note\": \"all sweeps run the default naive "
        << "heartbeat path (heartbeat_mode flags off), which the delta "
        << "return-channel PR keeps byte-identical — these numbers are the "
        << "O(receivers) baseline, including the 10M point. The "
        << "O(changes) delta-mode comparison (Controller ingest bytes, "
        << "monitor-tick wall) is recorded per population in "
        << "BENCH_fanout.json under delta_speedups.\",\n";
    out << "  \"rss_note\": \"peak_rss_mb is the process-global "
        << "high-water mark (ru_maxrss) and is monotone across sweeps — "
        << "identical values for consecutive points mean an earlier/larger "
        << "sweep set the peak. rss_delta_mb is per-sweep current-RSS "
        << "growth (/proc/self/statm) measured from a baseline taken after "
        << "a malloc_trim(0) settle, so allocator pages retained from "
        << "earlier sweeps no longer mask a sweep's own growth.\"\n}\n";
    std::cout << "\nwrote " << json_path << "\n";
  }

  // Full instrumentation snapshot of the largest system-sweep run.
  if (!system_points.empty() && oddci::bench::metrics_enabled(argc, argv)) {
    oddci::bench::write_metrics("bench_kernel_scaling",
                                system_points.back().metrics);
  }

  if (profile_overhead && overhead_gate > 0.0 &&
      overhead.overhead_pct > overhead_gate) {
    std::cerr << "profiler overhead " << overhead.overhead_pct
              << "% exceeds the gate (" << overhead_gate << "%)\n";
    return 1;
  }
  return 0;
}
