#pragma once

#include <string>
#include <utility>
#include <vector>

/// Layer probes: each times one public call of a layer in batches and
/// reports the median batch in nanoseconds per call. Each probe runs in
/// well under a second.
namespace oddci_bench {

/// {metric name, ns per call} for sim.timer_event_ns,
/// wire.heartbeat_roundtrip_ns and broadcast.verify_ns.
[[nodiscard]] std::vector<std::pair<std::string, double>> run_probes();

}  // namespace oddci_bench
