#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/messages.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "sim/simulation.hpp"

/// Heartbeat aggregation tier.
///
/// The paper notes that millions of PNAs heartbeating a single Controller
/// would "consume too much of the Controller's processing and networking
/// resources" and defers the mechanism to future research (Section 3.2,
/// footnote 3). This is that mechanism: regional aggregators receive raw
/// heartbeats from a shard of the PNA population (each agent picks
/// aggregators[pna_id % k] from the control message) and forward one
/// consolidated report per window, covering every PNA heard from in that
/// window — so the Controller's liveness view stays fresh while its message
/// rate drops from N/interval to k/window and its byte rate loses the
/// per-message header overhead.
namespace oddci::core {

struct AggregatorOptions {
  /// How often the consolidated report is sent upstream.
  sim::SimTime report_interval = sim::SimTime::from_seconds(10);
  /// Report encoding. kDelta keeps a persistent membership ledger and
  /// ships only changes (plus periodic resyncs) instead of every member
  /// heard in the window.
  HeartbeatMode mode = HeartbeatMode::kNaive;
  /// Delta mode: every Nth frame is a full checksummed resync, bounding
  /// how long a lost delta can leave the Controller's view stale.
  std::uint32_t resync_every = 30;
  /// Delta mode: a ledger member silent past this horizon is expired with
  /// an explicit kExpire delta (the aggregator takes over the staleness
  /// pruning the Controller did in naive mode). Zero disables expiry.
  sim::SimTime expiry = sim::SimTime::zero();
  /// Delta mode: stable identity carried in every frame's origin field, so
  /// the Controller can attribute deltas even when they arrive batched
  /// through a relay tier.
  std::uint32_t origin = 0;
  /// Deterministic offset of this aggregator's flush boundary within the
  /// report interval (paced mode de-synchronizes the tier's upstream
  /// bursts). Zero = legacy aligned windows.
  sim::SimTime flush_phase = sim::SimTime::zero();
};

class HeartbeatAggregator final : public net::Endpoint {
 public:
  HeartbeatAggregator(sim::Simulation& simulation, net::Network& network,
                      net::NodeId controller, const net::LinkSpec& link,
                      AggregatorOptions options = {});
  ~HeartbeatAggregator() override;

  HeartbeatAggregator(const HeartbeatAggregator&) = delete;
  HeartbeatAggregator& operator=(const HeartbeatAggregator&) = delete;

  [[nodiscard]] net::NodeId node_id() const { return node_id_; }

  /// Declare the shard this aggregator serves: PNAs whose
  /// `pna_id % stride == phase` (the selection rule agents apply to the
  /// control message's aggregator list; the default, stride 1, serves
  /// every id). PNA ids are node ids, which the network hands out
  /// contiguously, so each id maps to the slot `pna_id / stride` of a flat
  /// table bounded by the population: ids stay below `id_bound`, and the
  /// mode's table is sized for that once (0 = unknown; the table grows as
  /// ids are heard). Agents of a failed-over slot re-home to the
  /// Controller, never to another aggregator, so a heartbeat from outside
  /// the shard is a routing bug: on_message throws std::logic_error.
  void set_shard(std::uint64_t stride, std::uint64_t phase,
                 std::uint64_t id_bound = 0);

  /// Re-point the upstream hop (defaults to the Controller passed at
  /// construction); the relay tier points leaf aggregators at their relay.
  void set_upstream(net::NodeId upstream) { controller_ = upstream; }

  struct Stats {
    std::uint64_t heartbeats_received = 0;
    std::uint64_t reports_sent = 0;
    std::uint64_t entries_forwarded = 0;
    std::uint64_t resyncs_sent = 0;    ///< delta mode: full-state frames
    std::uint64_t expiries_sent = 0;   ///< delta mode: kExpire entries
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Delta mode: current ledger membership (known, unexpired reporters).
  [[nodiscard]] std::uint64_t ledger_members() const {
    return ledger_members_;
  }

  /// Expose this aggregator's counters and window size under
  /// "<prefix>.*" in `registry` (use a distinct prefix per aggregator,
  /// e.g. "aggregator.0"). Snapshot-time probes.
  void link_metrics(obs::MetricsRegistry& registry,
                    const std::string& prefix) const;

  /// Attach a flight recorder: each consolidated report is emitted as an
  /// aggregate.flush event, and entries keep the trace context of the
  /// heartbeat they consolidate. nullptr detaches.
  void set_flight_recorder(obs::FlightRecorder* recorder) {
    recorder_ = recorder;
  }

  /// Fault injection: drop off the network and lose the in-flight
  /// consolidation window (heartbeats absorbed but not yet reported).
  void crash();
  /// Fault injection: come back up with an empty window; the next report
  /// goes out a full interval from now.
  void restart();

  /// Downstream messages (heartbeat replies from the Controller addressed
  /// to the aggregator) are not expected: the Controller replies directly
  /// to PNAs. Heartbeats are absorbed; everything else is ignored.
  void on_message(net::NodeId from, const net::MessagePtr& message) override;

 private:
  void flush();
  void flush_delta();
  void ledger_note(std::uint32_t slot, const HeartbeatMessage& hb);
  void clear_ledger();

  sim::Simulation& simulation_;
  net::Network& network_;
  net::NodeId controller_;
  AggregatorOptions options_;
  net::NodeId node_id_ = net::kInvalidNode;

  /// Window cell, 32 bytes: the latest state heard in the window.
  /// Membership in the *current* window is an epoch stamp (in the padding
  /// after `state`), so flush never clears the vector — it bumps `epoch_`
  /// and the whole window is logically empty again.
  struct DenseRecord {
    PnaState state = PnaState::kIdle;
    std::uint32_t epoch = 0;
    InstanceId instance = kNoInstance;
    obs::TraceContext trace;  ///< context of the consolidated heartbeat
  };
  static_assert(sizeof(DenseRecord) == 32, "window cell is half a line");

  [[nodiscard]] std::size_t window_size() const { return touched_.size(); }
  /// Start a new window: every cell falls outside it.
  void next_window();

  std::uint64_t shard_stride_ = 1;
  std::uint64_t shard_phase_ = 0;
  std::uint32_t epoch_ = 1;
  /// Latest state per slot; `touched_` lists this window's live slots in
  /// arrival order (deterministic flush order without a scan).
  std::vector<DenseRecord> dense_;
  std::vector<std::uint32_t> touched_;

  /// Delta-mode ledger: persistent latest-known state per reporter (the
  /// naive window structures above stay untouched in delta mode).
  struct LedgerRecord {
    PnaState state = PnaState::kIdle;
    bool known = false;
    bool dirty = false;  ///< has an unreported change this window
    InstanceId instance = kNoInstance;
    obs::TraceContext trace;
    sim::SimTime last_seen;
  };
  static_assert(sizeof(LedgerRecord) <= 40, "ledger record is five words");
  std::vector<LedgerRecord> ledger_;           ///< slot -> record
  std::vector<std::uint32_t> ledger_order_;    ///< known slots, first-seen order
  std::vector<std::uint32_t> ledger_dirty_;    ///< dirty slots, arrival order
  std::uint32_t delta_epoch_ = 0;   ///< wrapping serial of the last frame
  std::uint32_t next_resync_ = 0;   ///< frames until resync; 0 = next is one
  std::uint64_t ledger_members_ = 0;

  sim::PeriodicTask reporter_;
  bool crashed_ = false;
  /// Restarted but no heartbeat heard yet: keep sending empty
  /// announcement reports (any one of them un-fails us at the Controller;
  /// individual reports may be lost on a faulty wire).
  bool announcing_ = false;
  Stats stats_;
  obs::FlightRecorder* recorder_ = nullptr;
};

/// Optional intermediate aggregation tier (delta mode): a relay collects
/// the delta frames of `tree_fanin` leaf aggregators and forwards them to
/// the Controller as one batch per window, so Controller ingress message
/// rate scales with relays, not leaves, and per-frame transport headers
/// are amortized away. Frames are forwarded verbatim in arrival order, so
/// per-origin epoch ordering is preserved end to end.
class AggregatorRelay final : public net::Endpoint {
 public:
  AggregatorRelay(sim::Simulation& simulation, net::Network& network,
                  net::NodeId controller, const net::LinkSpec& link,
                  sim::SimTime report_interval,
                  sim::SimTime flush_phase = sim::SimTime::zero());
  ~AggregatorRelay() override;

  AggregatorRelay(const AggregatorRelay&) = delete;
  AggregatorRelay& operator=(const AggregatorRelay&) = delete;

  [[nodiscard]] net::NodeId node_id() const { return node_id_; }

  struct Stats {
    std::uint64_t frames_received = 0;
    std::uint64_t batches_sent = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  void link_metrics(obs::MetricsRegistry& registry,
                    const std::string& prefix) const;

  void on_message(net::NodeId from, const net::MessagePtr& message) override;

 private:
  void flush();

  sim::Simulation& simulation_;
  net::Network& network_;
  net::NodeId controller_;
  net::NodeId node_id_ = net::kInvalidNode;
  std::vector<std::shared_ptr<const DeltaReportMessage>> pending_;
  sim::PeriodicTask reporter_;
  Stats stats_;
};

}  // namespace oddci::core
