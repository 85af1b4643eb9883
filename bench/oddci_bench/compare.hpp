#pragma once

/// `oddci_bench compare [--bench BENCHMARK.json] A.json... -- B.json...`
///
/// Reads two sets of `run --out` result files (A = baseline, B = change)
/// and prints, per workload and metric, each set's median and quartiles
/// and a verdict:
/// - host measurements (wall times, memory) compare the two sets' medians
///   against the end-to-end bound in BENCHMARK.json (per-layer ones against
///   kLayerHostBound): `ok`, `regressed` (B's median worse than A's by more
///   than the bound) or `unresolved` (a set's quartile spread is wider than
///   the bound and B does not beat A on every run);
/// - simulated outcomes (W, M, dispatches, failures, counters) are exact
///   for a seed, so each seed in both sets is compared with itself against
///   kSameSeedBound, and the notes count the seeds whose value changed at
///   all; `unresolved` when the sets share no seed.
/// Per-layer rows also name the layer and what it should move. Returns 1
/// when any pairing regressed.
namespace oddci_bench {

int compare_main(int argc, char** argv);

}  // namespace oddci_bench
