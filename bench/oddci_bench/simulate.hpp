#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "workloads.hpp"

/// One simulation of one workload, driven phase by phase through
/// OddciSystem's public API: construct, deploy + warmup, request + run,
/// snapshot.
namespace oddci_bench {

struct Sample {
  /// Simulated outcomes: counters, W, M, event counts. A fixed workload,
  /// seed and scale must reproduce them exactly, traced or not.
  std::map<std::string, double> sim;
  /// Host-side measurements: wall seconds and resident-set bytes.
  std::map<std::string, double> wall;
  /// Failed correctness checks, one line each.
  std::vector<std::string> failures;
};

/// Run `w` once. With `traced` the kernel profiler is on and every 1 s of
/// simulated time is timed as a slice; a non-empty `trace_dir` then also
/// receives `<name>.bench_trace.json` (Chrome trace_event spans of each
/// phase call and slice) and `<name>.profile.json` (oddci.profile.v1).
[[nodiscard]] Sample simulate(const Workload& w, bool traced,
                              const std::string& trace_dir);

[[nodiscard]] std::string to_json(const Sample& sample);
/// Throws std::runtime_error on malformed input.
[[nodiscard]] Sample sample_from_json(std::string_view text);

}  // namespace oddci_bench
