#include "obs/health.hpp"

#include <utility>

namespace oddci::obs {
namespace {

std::string u64(std::uint64_t v) { return std::to_string(v); }

void add_finding(HealthReport& report, HealthSeverity severity,
                 std::string check, std::string detail) {
  report.findings.push_back(
      HealthFinding{severity, std::move(check), std::move(detail)});
}

/// messages sent = delivered + dropped + lost + in-flight, checked in two
/// halves: the injector side (sent - lost + duplicated == scheduled,
/// exact) and the delivery side (scheduled - delivered - dropped ==
/// in-flight >= 0).
void check_messages(const HealthLedger& l, bool at_end, HealthReport& out) {
  // Uplink queue drops are shed before the interposer and before any
  // arrival is scheduled, so they leave the balance on the "removed before
  // arrival" side next to the injected losses.
  const std::uint64_t removed = l.messages_lost + l.uplink_queue_dropped;
  const std::uint64_t expected_scheduled =
      l.messages_sent - removed + l.messages_duplicated;
  if (removed > l.messages_sent ||
      l.arrivals_scheduled != expected_scheduled) {
    add_finding(out, HealthSeverity::kCritical, "net.message_conservation",
                "arrivals_scheduled=" + u64(l.arrivals_scheduled) +
                    " != sent-lost-uplink_qdrop+duplicated=" +
                    u64(l.messages_sent) + "-" + u64(l.messages_lost) + "-" +
                    u64(l.uplink_queue_dropped) + "+" +
                    u64(l.messages_duplicated));
    return;
  }
  const std::uint64_t accounted = l.messages_delivered + l.messages_dropped +
                                  l.downlink_queue_dropped;
  if (accounted > l.arrivals_scheduled) {
    add_finding(out, HealthSeverity::kCritical, "net.message_conservation",
                "delivered+dropped+downlink_qdrop=" +
                    u64(l.messages_delivered) + "+" +
                    u64(l.messages_dropped) + "+" +
                    u64(l.downlink_queue_dropped) +
                    " exceeds arrivals_scheduled=" +
                    u64(l.arrivals_scheduled));
    return;
  }
  const std::uint64_t in_flight = l.arrivals_scheduled - accounted;
  if (in_flight > 0 && at_end) {
    add_finding(out, HealthSeverity::kInfo, "net.message_conservation",
                u64(in_flight) + " copies still in flight at run end "
                "(serializing past the deadline)");
    return;
  }
  add_finding(out, HealthSeverity::kOk, "net.message_conservation",
              "sent=" + u64(l.messages_sent) + " lost=" +
                  u64(l.messages_lost) + " delivered=" +
                  u64(l.messages_delivered) + " dropped=" +
                  u64(l.messages_dropped) + " in_flight=" + u64(in_flight));
}

/// heartbeats emitted = aggregated + lost + dropped + in-flight, over the
/// heartbeat-tagged slice of the wire counters.
void check_heartbeats(const HealthLedger& l, bool at_end, HealthReport& out) {
  const std::uint64_t removed =
      l.heartbeats_lost + l.heartbeats_uplink_queue_dropped;
  if (removed > l.heartbeats_emitted) {
    add_finding(out, HealthSeverity::kCritical, "hb.conservation",
                "heartbeats_lost+uplink_qdrop=" + u64(l.heartbeats_lost) +
                    "+" + u64(l.heartbeats_uplink_queue_dropped) +
                    " exceeds emitted=" + u64(l.heartbeats_emitted));
    return;
  }
  const std::uint64_t on_wire =
      l.heartbeats_emitted - removed + l.heartbeats_duplicated;
  const std::uint64_t accounted = l.heartbeats_received +
                                  l.heartbeats_dropped +
                                  l.heartbeats_downlink_queue_dropped;
  if (accounted > on_wire) {
    add_finding(out, HealthSeverity::kCritical, "hb.conservation",
                "received+dropped+downlink_qdrop=" +
                    u64(l.heartbeats_received) + "+" +
                    u64(l.heartbeats_dropped) + "+" +
                    u64(l.heartbeats_downlink_queue_dropped) +
                    " exceeds emitted-lost-uplink_qdrop+duplicated=" +
                    u64(on_wire));
    return;
  }
  const std::uint64_t in_flight = on_wire - accounted;
  if (in_flight > 0 && at_end) {
    add_finding(out, HealthSeverity::kInfo, "hb.conservation",
                u64(in_flight) + " heartbeats in flight at run end");
    return;
  }
  add_finding(out, HealthSeverity::kOk, "hb.conservation",
              "emitted=" + u64(l.heartbeats_emitted) + " received=" +
                  u64(l.heartbeats_received) + " lost=" +
                  u64(l.heartbeats_lost) + " dropped=" +
                  u64(l.heartbeats_dropped) + " in_flight=" + u64(in_flight));
}

/// Per shard: events scheduled = executed + cancelled + pending, exactly.
void check_shards(const HealthLedger& l, HealthReport& out) {
  bool clean = true;
  for (std::size_t i = 0; i < l.shards.size(); ++i) {
    const HealthLedger::ShardEvents& s = l.shards[i];
    const std::uint64_t accounted = s.executed + s.cancelled + s.pending;
    if (accounted != s.scheduled) {
      clean = false;
      add_finding(out, HealthSeverity::kCritical, "sim.event_conservation",
                  "shard " + u64(i) + ": executed+cancelled+pending=" +
                      u64(accounted) + " != scheduled=" + u64(s.scheduled));
    }
  }
  if (clean) {
    add_finding(out, HealthSeverity::kOk, "sim.event_conservation",
                u64(l.shards.size()) + " shard(s) balance exactly");
  }
}

/// Pool acquire balance: every emitted beat acquires exactly one pooled
/// message; reused+allocated must match.
void check_pool(const HealthLedger& l, HealthReport& out) {
  if (l.pool_acquired != l.heartbeats_emitted) {
    add_finding(out, HealthSeverity::kCritical, "pool.acquire_balance",
                "pool acquired=" + u64(l.pool_acquired) +
                    " != heartbeats emitted=" + u64(l.heartbeats_emitted));
    return;
  }
  add_finding(out, HealthSeverity::kOk, "pool.acquire_balance",
              "acquired=" + u64(l.pool_acquired) + " matches emissions");
}

/// Delta-mode membership reconstruction: the incrementally maintained
/// member total must equal the recomputed per-instance view exactly, and
/// no resync checksum may ever have failed — either breach means delta
/// application silently diverged from the aggregators' ledgers. Emits
/// nothing at all in naive mode (no phantom check in the report).
void check_delta_membership(const HealthLedger& l, HealthReport& out) {
  if (!l.delta_active) return;
  if (l.delta_checksum_failures > 0) {
    add_finding(out, HealthSeverity::kCritical, "delta.membership",
                u64(l.delta_checksum_failures) +
                    " resync checksum failure(s): aggregator ledger and "
                    "controller view disagree");
    return;
  }
  if (l.delta_members_incremental != l.delta_members_view) {
    add_finding(out, HealthSeverity::kCritical, "delta.membership",
                "incremental member total=" +
                    u64(l.delta_members_incremental) +
                    " != recomputed membership view=" +
                    u64(l.delta_members_view));
    return;
  }
  add_finding(out, HealthSeverity::kOk, "delta.membership",
              "members=" + u64(l.delta_members_view) +
                  " reconstructed exactly from deltas and resyncs");
}

/// Verified-execution result conservation: every dispatched replica is
/// verified, outvoted, written off, or still outstanding — exactly; spot
/// checks balance on their own identity. Silent in non-verify runs.
void check_verify_conservation(const HealthLedger& l, bool at_end,
                               HealthReport& out) {
  if (!l.verify_active) return;
  const std::uint64_t accounted =
      l.verify_verified + l.verify_outvoted + l.verify_discarded +
      l.verify_outstanding;
  if (accounted != l.verify_dispatched) {
    add_finding(out, HealthSeverity::kCritical, "verify.result_conservation",
                "verified+outvoted+discarded+outstanding=" +
                    u64(l.verify_verified) + "+" + u64(l.verify_outvoted) +
                    "+" + u64(l.verify_discarded) + "+" +
                    u64(l.verify_outstanding) +
                    " != dispatched=" + u64(l.verify_dispatched));
    return;
  }
  const std::uint64_t spot_accounted =
      l.spot_passed + l.spot_failed + l.spot_flushed + l.spot_outstanding;
  if (spot_accounted != l.spot_dispatched) {
    add_finding(out, HealthSeverity::kCritical, "verify.result_conservation",
                "spot passed+failed+flushed+outstanding=" +
                    u64(l.spot_passed) + "+" + u64(l.spot_failed) + "+" +
                    u64(l.spot_flushed) + "+" + u64(l.spot_outstanding) +
                    " != spot dispatched=" + u64(l.spot_dispatched));
    return;
  }
  if (at_end && l.verify_outstanding + l.spot_outstanding > 0) {
    add_finding(out, HealthSeverity::kInfo, "verify.result_conservation",
                u64(l.verify_outstanding) + " replica(s) and " +
                    u64(l.spot_outstanding) +
                    " spot check(s) unresolved at run end");
    return;
  }
  add_finding(out, HealthSeverity::kOk, "verify.result_conservation",
              "dispatched=" + u64(l.verify_dispatched) + " verified=" +
                  u64(l.verify_verified) + " outvoted=" +
                  u64(l.verify_outvoted) + " discarded=" +
                  u64(l.verify_discarded) + " outstanding=" +
                  u64(l.verify_outstanding));
}

/// Byzantine detection audit: with seeded adversaries and verification
/// both on, any adversary that accumulated enough reputation observations
/// yet finished the run above the quarantine threshold escaped the
/// defense. Only meaningful at run end. Silent without seeded adversaries.
void check_byzantine_detection(const HealthLedger& l, bool at_end,
                               HealthReport& out) {
  if (!l.byz_active) return;
  if (at_end && l.byz_undetected > 0) {
    add_finding(out, HealthSeverity::kWarning, "byzantine.detection",
                u64(l.byz_undetected) + " of " + u64(l.byz_adversaries) +
                    " seeded adversaries observed repeatedly yet still "
                    "above the quarantine threshold");
    return;
  }
  add_finding(out, HealthSeverity::kOk, "byzantine.detection",
              u64(l.byz_adversaries) +
                  " seeded adversaries, none unquarantined after repeated "
                  "observation");
}

}  // namespace

std::string_view to_string(HealthSeverity severity) {
  switch (severity) {
    case HealthSeverity::kOk:
      return "ok";
    case HealthSeverity::kInfo:
      return "info";
    case HealthSeverity::kWarning:
      return "warning";
    case HealthSeverity::kCritical:
      return "critical";
  }
  return "unknown";
}

HealthSeverity HealthReport::worst() const {
  HealthSeverity worst = HealthSeverity::kOk;
  for (const HealthFinding& f : findings) {
    if (f.severity > worst) worst = f.severity;
  }
  return worst;
}

std::string HealthReport::to_text() const {
  std::string out = "health: " + std::string(to_string(worst())) + " (" +
                    std::to_string(findings.size()) + " checks, " +
                    std::to_string(samples) + " periodic samples)\n";
  for (const HealthFinding& f : findings) {
    out += "  [" + std::string(to_string(f.severity)) + "] " + f.check +
           ": " + f.detail + "\n";
  }
  if (first_violation_seconds >= 0.0) {
    out += "  first violation at t=" +
           std::to_string(first_violation_seconds) + "s\n";
  }
  return out;
}

HealthAuditor::HealthAuditor(LedgerFn ledger_fn)
    : ledger_fn_(std::move(ledger_fn)) {}

HealthReport HealthAuditor::evaluate(const HealthLedger& ledger,
                                     double now_seconds, bool at_end) {
  HealthReport report;
  report.taken_at_seconds = now_seconds;
  check_messages(ledger, at_end, report);
  check_heartbeats(ledger, at_end, report);
  check_shards(ledger, report);
  check_pool(ledger, report);
  check_delta_membership(ledger, report);
  check_verify_conservation(ledger, at_end, report);
  check_byzantine_detection(ledger, at_end, report);
  return report;
}

void HealthAuditor::sample(double now_seconds) {
  ++samples_;
  if (first_violation_seconds_ >= 0.0) return;
  const HealthReport report =
      evaluate(ledger_fn_(), now_seconds, /*at_end=*/false);
  if (!report.ok()) first_violation_seconds_ = now_seconds;
}

HealthReport HealthAuditor::finalize(double now_seconds) {
  HealthReport report =
      evaluate(ledger_fn_(), now_seconds, /*at_end=*/true);
  report.samples = samples_;
  report.first_violation_seconds =
      first_violation_seconds_ >= 0.0 ? first_violation_seconds_
      : !report.ok()                  ? now_seconds
                                      : -1.0;
  return report;
}

}  // namespace oddci::obs
