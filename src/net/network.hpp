#pragma once

#include <cstdint>
#include <vector>

#include "net/message.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "sim/sharded.hpp"
#include "sim/simulation.hpp"
#include "util/quantity.hpp"

/// Direct-channel substrate.
///
/// The paper's system model gives every set-top box an individual
/// full-duplex point-to-point channel of capacity delta linking it to both
/// the Controller and the Backend. We model each endpoint with an access
/// link: a FIFO uplink and a FIFO downlink, each with its own capacity and a
/// fixed propagation latency. A message sent from A to B is serialized on
/// A's uplink, propagates, then is serialized on B's downlink — so a
/// capacity-limited Controller can actually be congested by heartbeats
/// (exercised by bench_ablation_heartbeat).
///
/// Sharded kernel: every node belongs to one kernel shard (assigned at
/// registration). A node's uplink state is touched only by `send()` calls
/// made from its own shard's thread, and its downlink state only by the
/// arrival events that run on its shard, so link state needs no locking.
/// A send whose destination lives on another shard crosses through the
/// kernel's mailbox and lands at the next window boundary; traffic counters
/// are kept in per-shard cache-line-padded cells and merged at snapshot.
namespace oddci::net {

struct LinkSpec {
  util::BitRate uplink;    ///< endpoint -> network capacity
  util::BitRate downlink;  ///< network -> endpoint capacity
  sim::SimTime latency;    ///< one-way propagation delay
  /// Maximum queueing backlog tolerated per direction before deterministic
  /// tail drop, expressed as serialization time already committed (i.e.
  /// seconds of traffic queued ahead). Zero = unbounded (the legacy
  /// model, where a wakeup storm just stretches the busy window forever).
  sim::SimTime uplink_queue = sim::SimTime::zero();
  sim::SimTime downlink_queue = sim::SimTime::zero();
};

/// Point-in-time view of the network counters (see Network::stats()).
struct NetworkStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;  ///< destination unregistered/offline
  std::int64_t bits_sent = 0;
  /// Copies actually scheduled toward a destination (a send that survives
  /// the interposer contributes one copy, or two when duplicated). The
  /// health auditor balances this against sent/lost/duplicated and against
  /// delivered/dropped.
  std::uint64_t arrivals_scheduled = 0;
  /// Detached-endpoint drops of tracked-tag messages (see set_tracked_tag).
  std::uint64_t tracked_dropped = 0;
  /// Tail drops at a bounded sender uplink queue (never scheduled) and at a
  /// bounded receiver downlink queue (scheduled but shed on edge arrival).
  /// Zero unless some LinkSpec sets a queue bound.
  std::uint64_t uplink_queue_dropped = 0;
  std::uint64_t downlink_queue_dropped = 0;
  /// The tracked-tag slices of the queue drops (heartbeat conservation).
  std::uint64_t tracked_uplink_queue_dropped = 0;
  std::uint64_t tracked_downlink_queue_dropped = 0;
};

/// Hook interposed on every Network::send (fault injection). The verdict is
/// rendered before the uplink is consumed: a dropped message still costs the
/// sender its serialization time (it was transmitted; the loss is
/// downstream), a duplicated one arrives twice, and extra latency stretches
/// the propagation leg only.
class SendInterposer {
 public:
  struct Action {
    bool drop = false;
    bool duplicate = false;
    sim::SimTime extra_latency;
  };

  virtual ~SendInterposer() = default;
  /// `src_shard` is the kernel shard whose thread is making the send (0 in
  /// the classic single-shard kernel); interposers that draw randomness
  /// must key their stream on it to stay race-free and deterministic.
  virtual Action on_send(NodeId from, NodeId to, const Message& message,
                         std::size_t src_shard) = 0;
};

class Network {
 public:
  explicit Network(sim::Simulation& simulation) : simulation_(simulation) {
    cells_.resize(1);
    recorders_.resize(1, nullptr);
  }

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Attach the sharded kernel: node registrations gain shard homes (see
  /// set_register_shard) and cross-shard deliveries route through its
  /// mailboxes. Must be called before any endpoint registers, metrics
  /// link, or traffic flows; per-shard counter cells and recorder slots
  /// are (re)sized here.
  void set_sharded(sim::ShardedSimulation* sharded);

  /// Shard assigned to endpoints registered from now on (sticky; default
  /// 0). Construction is single-threaded, so a plain member suffices.
  void set_register_shard(std::uint32_t shard);

  [[nodiscard]] std::uint32_t shard_of(NodeId id) const {
    return nodes_[id].shard;
  }

  /// Pre-size the endpoint table. Building a million-receiver population
  /// registers endpoints one by one; without a hint the per-node state is
  /// copied O(log n) times as the vector regrows.
  void reserve_endpoints(std::size_t capacity) { nodes_.reserve(capacity); }

  /// Register an endpoint. The pointer must outlive the Network or be
  /// detached with `unregister_endpoint`. Endpoints with equal specs share
  /// one entry of the network's spec table.
  NodeId register_endpoint(Endpoint* endpoint, const LinkSpec& spec);

  /// Detach an endpoint; in-flight messages to it are dropped on arrival.
  void unregister_endpoint(NodeId id);

  /// Re-attach a previously registered node (e.g. a set-top box switched
  /// back on). The endpoint pointer may differ from the original.
  void reattach_endpoint(NodeId id, Endpoint* endpoint);

  [[nodiscard]] bool attached(NodeId id) const;

  /// Send `message` from `from` to `to`. Serialization + propagation
  /// delays apply; delivery is an event with EventPriority::kDelivery.
  /// Under the sharded kernel this must be called from the thread running
  /// `from`'s shard (or between windows).
  void send(NodeId from, NodeId to, MessagePtr message);

  /// Snapshot of the traffic counters (merged over shards), by value.
  [[nodiscard]] NetworkStats stats() const;

  /// Expose the traffic counters under "net.*" in `registry`. The network
  /// must outlive any snapshot() call on the registry.
  void link_metrics(obs::MetricsRegistry& registry) const;

  /// Expose the bounded-queue drop counters under "net.*". Registered
  /// separately so configurations without queue bounds keep their metric
  /// set (and exports) byte-identical.
  void link_queue_metrics(obs::MetricsRegistry& registry) const;

  /// Attach shard `shard`'s flight recorder (each shard has its own ring,
  /// so emission stays lock-free): deliveries to detached endpoints
  /// (powered off receivers) and queue tail drops on that shard are
  /// emitted as trace events. nullptr detaches.
  void set_shard_recorder(std::size_t shard, obs::FlightRecorder* recorder);

  /// Interpose `interposer` on every send (fault injection). nullptr
  /// detaches; with no interposer the send path is byte-identical to a
  /// build without the hook.
  void set_interposer(SendInterposer* interposer) { interposer_ = interposer; }

  /// Count detached-endpoint drops of messages with this tag separately
  /// (NetworkStats::tracked_dropped). The system sets the heartbeat tag so
  /// the health auditor can balance the heartbeat stream; -1 disables. The
  /// tag value crosses the layer as a plain int — net stays ignorant of
  /// core's message taxonomy.
  void set_tracked_tag(int tag) { tracked_tag_ = tag; }

  [[nodiscard]] std::size_t endpoint_count() const { return nodes_.size(); }

  /// Time at which `node`'s uplink frees up (diagnostics/backpressure).
  [[nodiscard]] sim::SimTime uplink_free_at(NodeId node) const;

  /// Current queueing backlog on `node`'s links, in seconds of committed
  /// serialization time (0 when the link is idle). Snapshot gauges for the
  /// return-channel health view; call between windows.
  [[nodiscard]] double uplink_backlog_seconds(NodeId node) const;
  [[nodiscard]] double downlink_backlog_seconds(NodeId node) const;

 private:
  /// 32 bytes per endpoint: the link spec is an index into `specs_`
  /// (a population shares a handful of distinct specs), and the home shard
  /// rides in the same line, so a send or an arrival loads one node per
  /// endpoint.
  struct Node {
    Endpoint* endpoint = nullptr;  // nullptr while detached
    sim::SimTime uplink_busy_until;
    sim::SimTime downlink_busy_until;
    std::uint32_t spec = 0;
    std::uint32_t shard = 0;
  };
  static_assert(sizeof(Node) <= 32, "Network::Node is per-receiver state");

  /// Per-shard traffic counters, cache-line padded: sent/bits belong to the
  /// sending shard, delivered/dropped to the receiving one.
  struct alignas(64) ShardCells {
    obs::Counter messages_sent;
    obs::Counter messages_delivered;
    obs::Counter messages_dropped;
    obs::Counter bits_sent;
    obs::Counter arrivals_scheduled;  ///< incremented on the sending shard
    obs::Counter tracked_dropped;     ///< incremented on the receiving shard
    obs::Counter uplink_queue_dropped;          ///< sending shard
    obs::Counter downlink_queue_dropped;        ///< receiving shard
    obs::Counter tracked_uplink_queue_dropped;  ///< sending shard
    obs::Counter tracked_downlink_queue_dropped;  ///< receiving shard
  };

  Node& node_at(NodeId id);
  [[nodiscard]] const Node& node_at(NodeId id) const;
  [[nodiscard]] const LinkSpec& spec_of(const Node& node) const {
    return specs_[node.spec];
  }
  /// Index of `spec` in `specs_`, appending it if no equal spec exists.
  std::uint32_t intern_spec(const LinkSpec& spec);

  [[nodiscard]] sim::Simulation& sim_of(std::uint32_t shard) const {
    return sharded_ != nullptr ? sharded_->shard(shard) : simulation_;
  }

  /// Schedule the edge-arrival event: downlink serialization then delivery.
  void schedule_arrival(sim::SimTime at, NodeId from, NodeId to,
                        std::uint32_t src_shard, std::uint32_t dst_shard,
                        MessagePtr message);
  /// Edge arrival, running on the destination shard.
  void arrive(NodeId from, NodeId to, std::uint32_t dst_shard,
              MessagePtr message);

  sim::Simulation& simulation_;
  sim::ShardedSimulation* sharded_ = nullptr;
  std::vector<Node> nodes_;
  /// Distinct link specs, in first-registration order.
  std::vector<LinkSpec> specs_;
  std::uint32_t register_shard_ = 0;
  std::vector<ShardCells> cells_;
  std::vector<obs::FlightRecorder*> recorders_;
  SendInterposer* interposer_ = nullptr;
  int tracked_tag_ = -1;
};

}  // namespace oddci::net
