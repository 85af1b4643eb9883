// Byzantine matrix determinism and defense acceptance: a population with
// 10% result forgers, 5% free-riders, and one 3-member colluding group,
// on top of the PR 5 crash/omission fault matrix, must (a) replay byte
// for byte per (seed, shard count) — identical metrics JSON and Chrome
// trace — and (b) finish the job with zero wrong results at bounded
// redundancy overhead. A verify-off run must carry none of the subsystem's
// metric cells (the "disabled costs nothing" contract; the pre-PR
// trajectory itself is pinned by the unchanged Replay fingerprints).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/system.hpp"
#include "obs/export.hpp"
#include "obs/trace_export.hpp"
#include "workload/job.hpp"

namespace oddci::core {
namespace {

struct Export {
  std::string metrics_json;
  std::string chrome_trace;
  bool completed = false;
  std::uint64_t unique_results = 0;
  std::uint64_t tasks_failed = 0;
  std::uint64_t wrong_results = 0;
  std::uint64_t tasks_verified = 0;
  std::uint64_t dispatched = 0;
  std::uint64_t spot_dispatched = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t implausible_returns = 0;
  std::uint64_t assignments = 0;
  bool health_ok = false;
  std::int64_t final_now_us = 0;

  bool operator==(const Export&) const = default;
};

SystemConfig byzantine_scenario(std::size_t shards) {
  SystemConfig config;
  config.receivers = 100'000;
  config.channels = 4;
  config.aggregators = 16;
  config.seed = 20260809;
  config.control.overshoot_margin = 1.3;
  config.obs.trace = true;
  config.obs.trace_capacity = 1 << 18;
  config.shards = shards;
  // The PR 5 crash/omission matrix underneath the adversaries.
  config.fault.enabled = true;
  config.fault.message_loss = 0.01;
  config.fault.message_duplication = 0.01;
  config.fault.latency_spike_probability = 0.005;
  config.fault.pna_crashes_per_hour = 20.0;
  config.fault.pna_hangs_per_hour = 10.0;
  // The adversarial population.
  config.fault.byzantine_forger_fraction = 0.10;
  config.fault.byzantine_freerider_fraction = 0.05;
  config.fault.byzantine_collusion_size = 3;
  // The defense.
  config.verify.enabled = true;
  config.verify.redundancy = 2;
  config.verify.spot_check_rate = 0.02;
  config.verify.min_observations = 6;
  // Aggressive ledger: adversaries in this population always produce
  // wrong outcomes and honest nodes never do, so two strikes quarantine
  // (0.5 -> 0.35 -> 0.245) and failed parole probes are cut off early.
  config.verify.ewma_alpha = 0.3;
  config.verify.parole_failure_limit = 2;
  return config;
}

// Same faults, no adversaries, no defense: what the dispatch bill looks
// like when every PNA is honest. The overhead bound is measured against
// this run's assignments (the honest baseline itself pays for timeouts
// and crash re-dispatches under the matrix).
SystemConfig honest_scenario(std::size_t shards) {
  SystemConfig config = byzantine_scenario(shards);
  config.fault.byzantine_forger_fraction = 0.0;
  config.fault.byzantine_freerider_fraction = 0.0;
  config.fault.byzantine_collusion_size = 0;
  config.verify = VerifyOptions{};
  return config;
}

Export run_scenario(const SystemConfig& config) {
  OddciSystem system(config);
  const auto job = workload::make_uniform_job(
      "byzantine-matrix", util::Bits::from_megabytes(2), 400,
      util::Bits::from_bytes(512), util::Bits::from_bytes(512), 10.0);
  const auto result = system.run_job(job, 100);

  Export e;
  e.metrics_json = obs::to_json(result.metrics);
  e.chrome_trace =
      obs::to_chrome_trace(obs::merge_events(system.flight_recorders()));
  e.completed = result.completed;
  e.unique_results = result.job.results_received -
                     result.job.duplicate_results - result.job.late_results;
  e.tasks_failed = result.job.tasks_failed;
  if (const Verifier* verifier = system.verifier()) {
    const auto s = verifier->stats();
    e.wrong_results = s.wrong_results;
    e.tasks_verified = s.tasks_verified;
    e.dispatched = s.dispatched;
    e.spot_dispatched = s.spot_dispatched;
    e.quarantines = s.quarantines;
    e.implausible_returns = s.implausible_returns;
  }
  e.assignments = result.job.assignments;
  e.health_ok = result.health.ok();
  e.final_now_us = system.kernel().now().micros();
  return e;
}

class ByzantineReplay : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ByzantineReplay, MatrixReplaysByteIdenticallyAndDefenseHolds) {
  const std::size_t shards = GetParam();
  const Export first = run_scenario(byzantine_scenario(shards));
  const Export second = run_scenario(byzantine_scenario(shards));

  // (a) Determinism: the whole verified trajectory per (seed, K).
  EXPECT_EQ(first.final_now_us, second.final_now_us);
  EXPECT_EQ(first.metrics_json, second.metrics_json);
  EXPECT_EQ(first.chrome_trace, second.chrome_trace);
  EXPECT_EQ(first, second);

  // (b) Defense: the job finishes, no forged result survives a quorum,
  // and the full verification bill (replicas + spot checks) stays within
  // 2.5x what the honest population pays for the same job under the same
  // fault matrix.
  EXPECT_TRUE(first.completed);
  EXPECT_EQ(first.tasks_failed, 0u);
  EXPECT_EQ(first.wrong_results, 0u);
  ASSERT_GE(first.tasks_verified, 400u);
  const Export honest = run_scenario(honest_scenario(shards));
  EXPECT_TRUE(honest.completed);
  ASSERT_GT(honest.assignments, 0u);
  const double overhead =
      static_cast<double>(first.dispatched + first.spot_dispatched) /
      static_cast<double>(honest.assignments);
  EXPECT_LE(overhead, 2.5) << "dispatched=" << first.dispatched
                           << " spot=" << first.spot_dispatched
                           << " honest_baseline=" << honest.assignments;
  // The reputation ledger actually caught adversaries, and the
  // plausibility floor flagged the free-riders' instant returns.
  EXPECT_GT(first.quarantines, 0u);
  EXPECT_GT(first.implausible_returns, 0u);
  // Conservation + byzantine-detection audits pass.
  EXPECT_TRUE(first.health_ok);
  // The exports embed the verify.* cells, so the byte-compare above pins
  // their exact values; spot-check that they are present at all.
  EXPECT_NE(first.metrics_json.find("verify.dispatches"), std::string::npos);
  EXPECT_NE(first.metrics_json.find("reputation.quarantines"),
            std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ByzantineReplay,
                         ::testing::Values(std::size_t{1}, std::size_t{4}),
                         [](const auto& param_info) {
                           return "K" + std::to_string(param_info.param);
                         });

// Disabled costs nothing: a verify-off, adversary-off run registers none
// of the subsystem's metric cells, so its snapshot is byte-identical to a
// tree without the subsystem (the exact pre-PR trajectory is pinned by
// Replay.SeededHundredThousandReceiverRunIsBitIdentical, unchanged).
TEST(ByzantineReplay, VerifyOffSnapshotHasNoVerifyCells) {
  SystemConfig config;
  config.receivers = 5'000;
  config.channels = 2;
  config.aggregators = 4;
  config.seed = 20260809;
  config.fault.enabled = true;
  config.fault.message_loss = 0.01;
  OddciSystem system(config);
  EXPECT_EQ(system.verifier(), nullptr);
  EXPECT_EQ(system.byzantine_table(), nullptr);

  const auto job = workload::make_uniform_job(
      "verify-off", util::Bits::from_megabytes(2), 50,
      util::Bits::from_bytes(512), util::Bits::from_bytes(512), 10.0);
  const auto result = system.run_job(job, 25);
  EXPECT_TRUE(result.completed);

  const std::string json = obs::to_json(result.metrics);
  EXPECT_EQ(json.find("verify."), std::string::npos);
  EXPECT_EQ(json.find("reputation."), std::string::npos);
  EXPECT_EQ(json.find("pna.results_forged"), std::string::npos);
  EXPECT_EQ(json.find("pna.results_freeridden"), std::string::npos);
  EXPECT_EQ(json.find("backend.task_revotes"), std::string::npos);
}

// Adversaries without the defense: profiles alone (verify off) must not
// fail the run's conservation audit — forged digests ride the existing
// result path and the naive Backend simply cannot see them. (This is the
// "attack exists" baseline E16 plots against.)
TEST(ByzantineReplay, AdversariesWithoutVerificationStillConserve) {
  SystemConfig config;
  config.receivers = 5'000;
  config.channels = 2;
  config.aggregators = 4;
  config.seed = 20260809;
  config.fault.enabled = true;
  config.fault.byzantine_forger_fraction = 0.10;
  config.fault.byzantine_freerider_fraction = 0.05;
  config.fault.byzantine_collusion_size = 3;
  OddciSystem system(config);
  EXPECT_EQ(system.verifier(), nullptr);
  ASSERT_NE(system.byzantine_table(), nullptr);
  EXPECT_GT(system.byzantine_table()->adversaries(), 0u);

  const auto job = workload::make_uniform_job(
      "undefended", util::Bits::from_megabytes(2), 50,
      util::Bits::from_bytes(512), util::Bits::from_bytes(512), 10.0);
  const auto result = system.run_job(job, 25);
  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(result.health.ok());

  // The adversary counters exist (the profile table is active) and the
  // forgers actually forged.
  const std::string json = obs::to_json(result.metrics);
  EXPECT_NE(json.find("pna.results_forged"), std::string::npos);
  // But no verify/reputation machinery was built.
  EXPECT_EQ(json.find("verify."), std::string::npos);
}

}  // namespace
}  // namespace oddci::core
