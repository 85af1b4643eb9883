// Kernel profiler accounting and the conservation-invariant health
// auditor: window math (barrier charge, utilization, imbalance), the
// oddci.profile.v1 round trip, histogram quantiles in the metrics export,
// and the auditor's severity grading on cooked ledgers.

#include <gtest/gtest.h>

#include <string>

#include "obs/export.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"

namespace oddci::obs {
namespace {

TEST(KernelProfiler, ChargesWindowRemainderToBarrierStall) {
  KernelProfiler profiler(2);
  // Shard 0 burned 80 ns of the 100 ns window, shard 1 burned 20 ns.
  profiler.add_execute(0, 80);
  profiler.add_execute(1, 20);
  profiler.on_window(100);

  EXPECT_EQ(profiler.windows(), 1u);
  EXPECT_EQ(profiler.execute_nanos(0), 80u);
  EXPECT_EQ(profiler.execute_nanos(1), 20u);
  EXPECT_EQ(profiler.barrier_nanos(0), 20u);
  EXPECT_EQ(profiler.barrier_nanos(1), 80u);
  // busy_sum / (k * span) = 100 / 200.
  EXPECT_DOUBLE_EQ(profiler.utilization_mean(), 0.5);
  // busy_max / mean = 80 / 50.
  EXPECT_DOUBLE_EQ(profiler.imbalance_mean(), 1.6);
  EXPECT_DOUBLE_EQ(profiler.imbalance_max(), 1.6);
}

TEST(KernelProfiler, WindowDeltasAreIncrementalAcrossWindows) {
  KernelProfiler profiler(2);
  profiler.add_execute(0, 50);
  profiler.add_execute(1, 50);
  profiler.on_window(50);
  // Perfectly balanced first window: no stall, imbalance 1.
  EXPECT_EQ(profiler.barrier_nanos(0), 0u);
  EXPECT_DOUBLE_EQ(profiler.imbalance_max(), 1.0);

  // Second window only shard 0 works; the delta (not the running total)
  // must be charged.
  profiler.add_execute(0, 40);
  profiler.on_window(40);
  EXPECT_EQ(profiler.barrier_nanos(0), 0u);
  EXPECT_EQ(profiler.barrier_nanos(1), 40u);
  EXPECT_DOUBLE_EQ(profiler.imbalance_max(), 2.0);
  // Utilization: mean of 1.0 and 40/80.
  EXPECT_DOUBLE_EQ(profiler.utilization_mean(), 0.75);
}

TEST(KernelProfiler, AnExecuteOverrunNeverUnderflowsTheBarrierCharge) {
  KernelProfiler profiler(1);
  // The coordinator's span is measured around the worker wait, so a shard
  // can report more execute time than the span; the stall must clamp at 0.
  profiler.add_execute(0, 120);
  profiler.on_window(100);
  EXPECT_EQ(profiler.barrier_nanos(0), 0u);
}

TEST(KernelProfiler, DrainAndGlobalAccumulate) {
  KernelProfiler profiler(4);
  profiler.add_drain(100, 7);
  profiler.add_drain(50, 11);
  profiler.add_global(30, 2);
  EXPECT_EQ(profiler.drain_nanos(), 150u);
  EXPECT_EQ(profiler.drain_calls(), 2u);
  EXPECT_EQ(profiler.mail_items(), 18u);
  EXPECT_EQ(profiler.mail_items_max(), 11u);
  EXPECT_EQ(profiler.global_nanos(), 30u);
  EXPECT_EQ(profiler.global_tasks(), 2u);
}

TEST(ProfileSnapshot, JsonRoundTripIsExact) {
  KernelProfiler profiler(2);
  profiler.begin_run();
  profiler.add_execute(0, 1'000);
  profiler.add_execute(1, 3'000);
  profiler.on_window(4'000);
  profiler.add_drain(500, 3);
  profiler.add_global(200, 1);
  profiler.end_run(1'000'000);

  ProfileSnapshot snapshot = take_profile(profiler);
  snapshot.cross_posts = 42;
  snapshot.clamped_posts = 7;
  snapshot.per_shard[0].events_executed = 123;
  snapshot.per_shard[0].events_scheduled = 130;
  snapshot.per_shard[0].events_cancelled = 2;
  snapshot.per_shard[0].events_pending = 5;
  snapshot.per_shard[0].event_chunks = 1;
  snapshot.per_shard[1].event_chunks = 25;

  const std::string json = to_profile_json(snapshot);
  EXPECT_NE(json.find(kProfileSchema), std::string::npos);
  const ProfileSnapshot parsed = profile_from_json(json);
  EXPECT_EQ(parsed, snapshot);
  // Re-export of the parse is the fixed point.
  EXPECT_EQ(to_profile_json(parsed), json);
}

TEST(ProfileSnapshot, ProfilesWithoutSlabChunksStillLoad) {
  // Profiles written before the per-shard slab chunk count read it as
  // zero.
  ProfileSnapshot snapshot;
  snapshot.per_shard.resize(1);
  snapshot.per_shard[0].events_executed = 9;
  std::string json = to_profile_json(snapshot);
  const std::string chunks = R"(,"event_chunks":0)";
  const std::size_t at = json.find(chunks);
  ASSERT_NE(at, std::string::npos);
  json.erase(at, chunks.size());
  EXPECT_EQ(profile_from_json(json), snapshot);
}

TEST(ProfileSnapshot, ProfilesWithRetiredFieldsStillLoad) {
  // Profiles written while the kernel had a timer slab carry that slab's
  // chunk count beside the event slab's; the reader skips a per-shard
  // field it does not know.
  ProfileSnapshot snapshot;
  snapshot.per_shard.resize(1);
  snapshot.per_shard[0].event_chunks = 3;
  std::string json = to_profile_json(snapshot);
  const std::string chunks = R"(,"event_chunks":3)";
  const std::size_t at = json.find(chunks);
  ASSERT_NE(at, std::string::npos);
  json.insert(at + chunks.size(), R"(,"retired_chunks":25)");
  EXPECT_EQ(profile_from_json(json), snapshot);
}

TEST(ProfileSnapshot, ForeignSchemaIsRejected) {
  EXPECT_THROW(profile_from_json(R"({"schema":"oddci.metrics.v1"})"),
               std::runtime_error);
}

TEST(HistogramQuantile, MatchesTheLiveHistogram) {
  LogHistogram hist(1e-3);
  for (int i = 1; i <= 1000; ++i) hist.record(static_cast<double>(i) / 100.0);

  HistogramSample sample;
  sample.min_value = hist.min_value();
  sample.count = hist.count();
  sample.sum = hist.sum();
  sample.min = hist.min();
  sample.max = hist.max();
  for (std::size_t i = 0; i < LogHistogram::kBucketCount; ++i) {
    sample.buckets.push_back(hist.bucket(i));
  }
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(histogram_quantile(sample, q), hist.quantile(q))
        << "q=" << q;
  }
  EXPECT_EQ(histogram_quantile(HistogramSample{}, 0.5), 0.0);
}

TEST(MetricsExport, HistogramsCarryQuantiles) {
  MetricsRegistry registry;
  LogHistogram hist(1e-3);
  for (int i = 1; i <= 100; ++i) hist.record(static_cast<double>(i));
  registry.link_histogram("test.latency", hist);
  const MetricsSnapshot snap = registry.snapshot(1.0);
  const std::string json = to_json(snap);
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p90\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
  // Quantiles are derived, not state: the parse-and-re-export fixed point
  // must hold with them present.
  EXPECT_EQ(to_json(snapshot_from_json(json)), json);
}

// --- health auditor ---------------------------------------------------------

HealthLedger clean_ledger() {
  HealthLedger ledger;
  ledger.messages_sent = 1'000;
  ledger.messages_lost = 50;
  ledger.messages_duplicated = 10;
  ledger.arrivals_scheduled = 960;  // sent - lost + duplicated
  ledger.messages_delivered = 950;
  ledger.messages_dropped = 5;  // 5 still in flight
  ledger.heartbeats_emitted = 400;
  ledger.heartbeats_lost = 20;
  ledger.heartbeats_duplicated = 4;
  ledger.heartbeats_received = 380;
  ledger.heartbeats_dropped = 2;  // 2 in flight
  ledger.shards.push_back({200, 150, 10, 40});
  ledger.pool_acquired = 400;
  return ledger;
}

TEST(HealthAuditor, CleanLedgerPassesAllChecks) {
  const HealthReport mid = HealthAuditor::evaluate(clean_ledger(), 10.0,
                                                   /*at_end=*/false);
  EXPECT_TRUE(mid.ok());
  EXPECT_EQ(mid.worst(), HealthSeverity::kOk);

  // At run end, in-flight remainders demote to Info — still ok().
  const HealthReport end = HealthAuditor::evaluate(clean_ledger(), 10.0,
                                                   /*at_end=*/true);
  EXPECT_TRUE(end.ok());
  EXPECT_EQ(end.worst(), HealthSeverity::kInfo);
}

TEST(HealthAuditor, LossUndercountIsCritical) {
  HealthLedger ledger = clean_ledger();
  // The injector "forgot" 10 losses: scheduled arrivals no longer match
  // sent - lost + duplicated.
  ledger.messages_lost -= 10;
  const HealthReport report =
      HealthAuditor::evaluate(ledger, 10.0, /*at_end=*/true);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.worst(), HealthSeverity::kCritical);
}

TEST(HealthAuditor, NegativeResidualsAreCritical) {
  // More deliveries+drops than scheduled arrivals: double delivery.
  HealthLedger over = clean_ledger();
  over.messages_delivered = 970;
  EXPECT_EQ(HealthAuditor::evaluate(over, 1.0, true).worst(),
            HealthSeverity::kCritical);

  // More heartbeats heard than survived the wire.
  HealthLedger hb = clean_ledger();
  hb.heartbeats_received = 999;
  EXPECT_EQ(HealthAuditor::evaluate(hb, 1.0, true).worst(),
            HealthSeverity::kCritical);
}

TEST(HealthAuditor, ShardEventImbalanceIsCritical) {
  HealthLedger ledger = clean_ledger();
  ledger.shards.push_back({100, 90, 5, 4});  // 99 != 100
  const HealthReport report = HealthAuditor::evaluate(ledger, 1.0, false);
  EXPECT_EQ(report.worst(), HealthSeverity::kCritical);
}

TEST(HealthAuditor, PoolImbalanceOnlyCountsWhenActive) {
  HealthLedger ledger = clean_ledger();
  ledger.pool_acquired = 399;
  EXPECT_EQ(HealthAuditor::evaluate(ledger, 1.0, false).worst(),
            HealthSeverity::kCritical);
}

TEST(HealthAuditor, SamplingRecordsTheFirstViolation) {
  HealthLedger ledger = clean_ledger();
  bool tampered = false;
  HealthAuditor auditor([&] {
    HealthLedger l = ledger;
    if (tampered) l.messages_lost -= 10;
    return l;
  });
  auditor.sample(10.0);
  tampered = true;
  auditor.sample(20.0);
  auditor.sample(30.0);
  const HealthReport report = auditor.finalize(40.0);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.samples, 3u);
  EXPECT_DOUBLE_EQ(report.first_violation_seconds, 20.0);
  EXPECT_NE(report.to_text().find("critical"), std::string::npos);
}

}  // namespace
}  // namespace oddci::obs
