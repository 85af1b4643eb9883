#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "workload/job.hpp"

/// The benchmark's four workloads. Each is a full-size shape (README.md
/// gives the sizes) scaled down by one benchmark-wide factor; the seed is
/// the only other input, and the simulator sees nothing but the generated
/// SystemConfig and Job.
namespace oddci_bench {

struct Workload {
  std::string name;
  oddci::core::SystemConfig config;
  oddci::workload::Job job;
  std::size_t instance_size = 0;
  /// Simulated time the run phase covers after the instance request: a
  /// fixed horizon, or a deadline when `stop_on_done` ends the run at job
  /// completion.
  oddci::sim::SimTime horizon;
  bool stop_on_done = false;
  /// Number of seeded inputs every run simulates; the simulated outcomes
  /// are their mean. A run simulates further inputs while time remains,
  /// which add only to the host measurements.
  std::size_t inputs = 1;
};

/// Workload names in run order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Seed of input `index` of a run started with `seed`.
[[nodiscard]] std::uint64_t input_seed(const std::string& name,
                                       std::uint64_t seed, std::size_t index);

/// Build workload `name` at the benchmark's size (or, with `quick`, the
/// smoke test's), simulating with `seed`. Throws std::invalid_argument for
/// an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed, bool quick);

}  // namespace oddci_bench
