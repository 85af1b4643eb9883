#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/rng.hpp"

namespace oddci_bench {

using namespace oddci;

namespace {

/// Share of each full-size population, instance and task count a benchmark
/// run simulates, and the smoke test's. README.md explains the choice: a
/// run lasts about 25 s, and each bound in BENCHMARK.json must hold across
/// runs with different seeds, which takes many inputs per run.
constexpr double kBenchScale = 0.1;
constexpr double kQuickScale = 0.01;

std::size_t scaled(std::size_t full, double scale) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(static_cast<double>(full) * scale)));
}

workload::Job uniform_job(const std::string& name, double image_mb,
                          std::size_t tasks, double task_seconds) {
  return workload::make_uniform_job(
      name, util::Bits::from_megabytes(image_mb), tasks,
      util::Bits::from_bytes(512), util::Bits::from_bytes(512), task_seconds);
}

// Paper section 5.2: beta = 1 Mbps, delta = 150 kbps, a 10 MB image on the
// reference STB over one channel. One wakeup, then Backend dispatch, the
// direct network and the PNA task loop dominate; broadcast and
// return-channel work is light.
Workload paper_job(double scale) {
  Workload w;
  w.config.receivers = scaled(300'000, scale);
  w.config.aggregators = 16;
  w.instance_size = scaled(20'000, scale);
  w.job = uniform_job("paper_job", 10, scaled(400'000, scale), 30.0);
  w.horizon = sim::SimTime::from_hours(24);
  w.stop_on_done = true;
  w.inputs = 12;
  return w;
}

// 99% of the population idles and heartbeats: the kernel, PNA heartbeats,
// aggregators, Controller ingest and per-receiver memory dominate while the
// Backend is almost idle.
Workload idle_population(double scale) {
  Workload w;
  w.config.receivers = scaled(1'000'000, scale);
  w.config.channels = 8;
  w.config.aggregators = 16;
  w.instance_size = scaled(10'000, scale);
  w.job = uniform_job("idle_population", 2, scaled(500, scale), 10.0);
  w.horizon = sim::SimTime::from_seconds(300);
  w.inputs = 8;
  return w;
}

// The same population on four shards with the O(changes) return channel:
// delta frames through a relay tier and paced heartbeats, so window
// barriers, mailboxes and delta ingest carry the load.
Workload sharded_delta(double scale) {
  Workload w = idle_population(scale);
  w.config.shards = 4;
  w.config.aggregators = 64;
  w.config.heartbeat.mode = core::HeartbeatMode::kDelta;
  w.config.heartbeat.tree_fanin = 8;
  w.config.heartbeat.paced = true;
  w.job = uniform_job("sharded_delta", 2, scaled(500, scale), 10.0);
  w.horizon = sim::SimTime::from_seconds(600);
  w.inputs = 4;
  return w;
}

// The fault matrix and adversaries of examples/scenarios/byzantine_10pct.cfg:
// Backend re-dispatch, verifier votes and fault recovery dominate.
Workload byzantine_quorum(double scale) {
  Workload w;
  w.config.receivers = scaled(200'000, scale);
  w.config.channels = 4;
  w.config.aggregators = 16;
  fault::FaultOptions& f = w.config.fault;
  f.enabled = true;
  f.message_loss = 0.01;
  f.message_duplication = 0.01;
  f.latency_spike_probability = 0.005;
  f.pna_crashes_per_hour = 20;
  f.pna_hangs_per_hour = 10;
  f.byzantine_forger_fraction = 0.10;
  f.byzantine_freerider_fraction = 0.05;
  f.byzantine_collusion_size = 3;
  core::VerifyOptions& v = w.config.verify;
  v.enabled = true;
  v.redundancy = 2;
  v.spot_check_rate = 0.02;
  v.min_observations = 6;
  v.ewma_alpha = 0.3;
  v.parole_failure_limit = 2;
  w.instance_size = scaled(4'000, scale);
  w.job = uniform_job("byzantine_quorum", 2, scaled(40'000, scale), 10.0);
  w.horizon = sim::SimTime::from_hours(24);
  w.stop_on_done = true;
  w.inputs = 16;
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "paper_job", "idle_population_1m", "sharded_delta_1m",
      "byzantine_quorum"};
  return names;
}

std::uint64_t input_seed(const std::string& name, std::uint64_t seed,
                         std::size_t index) {
  return util::stream_seed(seed,
                           "oddci_bench." + name + "." + std::to_string(index));
}

Workload make_workload(const std::string& name, std::uint64_t seed, bool quick) {
  const double scale = quick ? kQuickScale : kBenchScale;
  Workload w;
  if (name == "paper_job") {
    w = paper_job(scale);
  } else if (name == "idle_population_1m") {
    w = idle_population(scale);
  } else if (name == "sharded_delta_1m") {
    w = sharded_delta(scale);
  } else if (name == "byzantine_quorum") {
    w = byzantine_quorum(scale);
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  if (quick) w.inputs = 1;
  w.name = name;
  w.config.seed = seed;
  w.config.control.overshoot_margin = 1.3;
  w.config.validate();
  return w;
}

}  // namespace oddci_bench
