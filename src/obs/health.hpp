#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

/// Conservation-invariant health auditor.
///
/// Every message the system puts on the wire, every heartbeat a PNA emits
/// and every event a shard schedules must be accounted for somewhere —
/// delivered, dropped, lost to an injected fault, or still in flight. The
/// auditor evaluates those balances over a `HealthLedger` (a plain-data
/// bundle of counters the owning system collects at a safe point) and
/// grades each check:
///
///  * kCritical — an invariant is arithmetically violated (more arrivals
///    than sends, a shard's executed+cancelled+pending != scheduled, a
///    pool that handed out a different number of messages than the
///    heartbeat path requested). These indicate double counting or silent
///    loss and fail the run.
///  * kWarning  — reserved for soft breaches (none today; severity space
///    kept so downstream exit-code policy is stable).
///  * kInfo     — expected imbalances, e.g. copies still serializing when
///    a deadline-stopped run ends (positive in-flight residual).
///  * kOk       — the balance holds exactly.
///
/// The ledger is collected only at coordinator-safe points (sampler global
/// ticks with all shards parked, or after run_until returns), so the
/// counters are mutually coherent. Evaluation reads no wall clock and
/// schedules nothing: with a fixed seed the report itself is deterministic.
namespace oddci::obs {

enum class HealthSeverity : int {
  kOk = 0,
  kInfo = 1,
  kWarning = 2,
  kCritical = 3,
};

[[nodiscard]] std::string_view to_string(HealthSeverity severity);

/// Counter bundle for one audit. All fields are totals since run start.
struct HealthLedger {
  // Wire-level message accounting (net::Network + fault::FaultInjector).
  std::uint64_t messages_sent = 0;        ///< Network::send accepted
  std::uint64_t messages_lost = 0;        ///< injector loss + partition drops
  std::uint64_t messages_duplicated = 0;  ///< extra copies injected
  std::uint64_t arrivals_scheduled = 0;   ///< copies scheduled toward a dst
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;     ///< detached-endpoint drops

  // Bounded-queue tail drops (return-channel model only; all zero when no
  // LinkSpec sets a queue bound). Uplink drops are shed before an arrival
  // is scheduled; downlink drops are shed at edge arrival.
  std::uint64_t uplink_queue_dropped = 0;
  std::uint64_t downlink_queue_dropped = 0;

  // Heartbeat stream (heartbeat-tagged subset of the wire accounting).
  std::uint64_t heartbeats_emitted = 0;     ///< PNA sends
  std::uint64_t heartbeats_received = 0;    ///< controller + aggregators
  std::uint64_t heartbeats_lost = 0;        ///< tagged injector losses
  std::uint64_t heartbeats_duplicated = 0;  ///< tagged injected duplicates
  std::uint64_t heartbeats_dropped = 0;     ///< tagged detached drops
  std::uint64_t heartbeats_uplink_queue_dropped = 0;    ///< tagged tail drops
  std::uint64_t heartbeats_downlink_queue_dropped = 0;  ///< tagged tail drops

  // Delta-mode membership reconstruction (kDelta heartbeat encoding only).
  // The incremental count is the Controller's O(1) mirror maintained by
  // delta application; the view count recomputes Σ members from the actual
  // instance sets. Divergence means a delta/resync was mis-applied.
  bool delta_active = false;
  std::uint64_t delta_checksum_failures = 0;
  std::uint64_t delta_members_incremental = 0;
  std::uint64_t delta_members_view = 0;

  // Per-shard kernel event accounting.
  struct ShardEvents {
    std::uint64_t scheduled = 0;
    std::uint64_t executed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t pending = 0;
    bool operator==(const ShardEvents&) const = default;
  };
  std::vector<ShardEvents> shards;

  // Heartbeat message-pool balance: one acquire per emitted heartbeat.
  std::uint64_t pool_acquired = 0;  ///< reused + allocated

  // Verified-execution result conservation (verify mode only). Every
  // dispatched replica must be accounted for: verified by a quorum,
  // outvoted by one, written off (timeout/abort/crash/dropped round), or
  // still outstanding (live or awaiting a quorum). Spot checks balance
  // separately.
  bool verify_active = false;
  std::uint64_t verify_dispatched = 0;
  std::uint64_t verify_verified = 0;
  std::uint64_t verify_outvoted = 0;
  std::uint64_t verify_discarded = 0;
  std::uint64_t verify_outstanding = 0;
  std::uint64_t spot_dispatched = 0;
  std::uint64_t spot_passed = 0;
  std::uint64_t spot_failed = 0;
  std::uint64_t spot_flushed = 0;
  std::uint64_t spot_outstanding = 0;

  // Byzantine detection audit (seeded adversaries + verification on).
  // `byz_undetected` counts known-seeded adversaries that finished the run
  // with enough reputation observations to have been caught yet still
  // stand above the quarantine threshold.
  bool byz_active = false;
  std::uint64_t byz_adversaries = 0;
  std::uint64_t byz_undetected = 0;

  bool operator==(const HealthLedger&) const = default;
};

struct HealthFinding {
  HealthSeverity severity = HealthSeverity::kOk;
  std::string check;   ///< stable id, e.g. "net.message_conservation"
  std::string detail;  ///< human-readable balance with the numbers

  bool operator==(const HealthFinding&) const = default;
};

struct HealthReport {
  double taken_at_seconds = 0.0;
  std::uint64_t samples = 0;  ///< periodic audits folded into this report
  /// Sim time of the first sample that graded >= kWarning; -1 if none.
  double first_violation_seconds = -1.0;
  std::vector<HealthFinding> findings;

  [[nodiscard]] HealthSeverity worst() const;
  [[nodiscard]] bool ok() const {
    return worst() < HealthSeverity::kWarning;
  }
  /// Multi-line human-readable rendering (one finding per line).
  [[nodiscard]] std::string to_text() const;
};

/// Stateful wrapper: sample periodically, finalize once at run end. The
/// ledger function is called at every audit and must be safe to call at
/// coordinator-parked points.
class HealthAuditor {
 public:
  using LedgerFn = std::function<HealthLedger()>;

  explicit HealthAuditor(LedgerFn ledger_fn);

  /// Evaluate one ledger. `at_end` relaxes in-flight checks appropriate
  /// only mid-run (a positive residual mid-run is kOk; at run end it is
  /// surfaced as kInfo).
  [[nodiscard]] static HealthReport evaluate(const HealthLedger& ledger,
                                             double now_seconds, bool at_end);

  /// Periodic audit: record the first violation time, keep no findings.
  void sample(double now_seconds);

  /// Final audit: full report with the sample history folded in.
  [[nodiscard]] HealthReport finalize(double now_seconds);

  [[nodiscard]] std::uint64_t samples() const { return samples_; }

 private:
  LedgerFn ledger_fn_;
  std::uint64_t samples_ = 0;
  double first_violation_seconds_ = -1.0;
};

}  // namespace oddci::obs
