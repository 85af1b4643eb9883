#include "net/network.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace oddci::net {

void Network::set_sharded(sim::ShardedSimulation* sharded) {
  if (!nodes_.empty()) {
    throw std::logic_error("Network: set_sharded before registering nodes");
  }
  sharded_ = sharded;
  const std::size_t k = sharded != nullptr ? sharded->shard_count() : 1;
  cells_.clear();
  cells_.resize(k);
  recorders_.assign(k, nullptr);
}

void Network::set_register_shard(std::uint32_t shard) {
  if (shard >= cells_.size()) {
    throw std::out_of_range("Network: register shard out of range");
  }
  register_shard_ = shard;
}

NodeId Network::register_endpoint(Endpoint* endpoint, const LinkSpec& spec) {
  if (endpoint == nullptr) {
    throw std::invalid_argument("Network: null endpoint");
  }
  if (spec.uplink.bps() <= 0.0 || spec.downlink.bps() <= 0.0) {
    throw std::invalid_argument("Network: link capacities must be > 0");
  }
  if (spec.latency < sim::SimTime::zero()) {
    throw std::invalid_argument("Network: negative latency");
  }
  const auto id = static_cast<NodeId>(nodes_.size());
  sim::Simulation& home = sim_of(register_shard_);
  nodes_.push_back(Node{endpoint, home.now(), home.now(), intern_spec(spec),
                        register_shard_});
  return id;
}

std::uint32_t Network::intern_spec(const LinkSpec& spec) {
  const auto same = [&spec](const LinkSpec& s) {
    return s.uplink.bps() == spec.uplink.bps() &&
           s.downlink.bps() == spec.downlink.bps() &&
           s.latency == spec.latency && s.uplink_queue == spec.uplink_queue &&
           s.downlink_queue == spec.downlink_queue;
  };
  // Registrations come in runs of one spec (the population, then the
  // tier), so the last entry is checked first.
  for (std::size_t i = specs_.size(); i-- > 0;) {
    if (same(specs_[i])) return static_cast<std::uint32_t>(i);
  }
  specs_.push_back(spec);
  return static_cast<std::uint32_t>(specs_.size() - 1);
}

Network::Node& Network::node_at(NodeId id) {
  if (id >= nodes_.size()) {
    throw std::out_of_range("Network: unknown node id");
  }
  return nodes_[id];
}

const Network::Node& Network::node_at(NodeId id) const {
  if (id >= nodes_.size()) {
    throw std::out_of_range("Network: unknown node id");
  }
  return nodes_[id];
}

void Network::unregister_endpoint(NodeId id) { node_at(id).endpoint = nullptr; }

void Network::reattach_endpoint(NodeId id, Endpoint* endpoint) {
  if (endpoint == nullptr) {
    throw std::invalid_argument("Network: null endpoint on reattach");
  }
  node_at(id).endpoint = endpoint;
}

bool Network::attached(NodeId id) const {
  return node_at(id).endpoint != nullptr;
}

sim::SimTime Network::uplink_free_at(NodeId id) const {
  return node_at(id).uplink_busy_until;
}

double Network::uplink_backlog_seconds(NodeId id) const {
  const Node& node = node_at(id);
  const sim::SimTime now = sim_of(node.shard).now();
  const sim::SimTime backlog = node.uplink_busy_until - now;
  return backlog > sim::SimTime::zero() ? backlog.seconds() : 0.0;
}

double Network::downlink_backlog_seconds(NodeId id) const {
  const Node& node = node_at(id);
  const sim::SimTime now = sim_of(node.shard).now();
  const sim::SimTime backlog = node.downlink_busy_until - now;
  return backlog > sim::SimTime::zero() ? backlog.seconds() : 0.0;
}

NetworkStats Network::stats() const {
  NetworkStats s;
  for (const ShardCells& c : cells_) {
    s.messages_sent += c.messages_sent.value();
    s.messages_delivered += c.messages_delivered.value();
    s.messages_dropped += c.messages_dropped.value();
    s.bits_sent += static_cast<std::int64_t>(c.bits_sent.value());
    s.arrivals_scheduled += c.arrivals_scheduled.value();
    s.tracked_dropped += c.tracked_dropped.value();
    s.uplink_queue_dropped += c.uplink_queue_dropped.value();
    s.downlink_queue_dropped += c.downlink_queue_dropped.value();
    s.tracked_uplink_queue_dropped += c.tracked_uplink_queue_dropped.value();
    s.tracked_downlink_queue_dropped +=
        c.tracked_downlink_queue_dropped.value();
  }
  return s;
}

void Network::link_metrics(obs::MetricsRegistry& registry) const {
  registry.link_counter_fn("net.messages_sent", [this] {
    std::uint64_t total = 0;
    for (const ShardCells& c : cells_) total += c.messages_sent.value();
    return total;
  });
  registry.link_counter_fn("net.messages_delivered", [this] {
    std::uint64_t total = 0;
    for (const ShardCells& c : cells_) total += c.messages_delivered.value();
    return total;
  });
  registry.link_counter_fn("net.messages_dropped", [this] {
    std::uint64_t total = 0;
    for (const ShardCells& c : cells_) total += c.messages_dropped.value();
    return total;
  });
  registry.link_counter_fn("net.bits_sent", [this] {
    std::uint64_t total = 0;
    for (const ShardCells& c : cells_) total += c.bits_sent.value();
    return total;
  });
}

void Network::link_queue_metrics(obs::MetricsRegistry& registry) const {
  registry.link_counter_fn("net.uplink_queue_dropped", [this] {
    std::uint64_t total = 0;
    for (const ShardCells& c : cells_) total += c.uplink_queue_dropped.value();
    return total;
  });
  registry.link_counter_fn("net.downlink_queue_dropped", [this] {
    std::uint64_t total = 0;
    for (const ShardCells& c : cells_) {
      total += c.downlink_queue_dropped.value();
    }
    return total;
  });
}

void Network::set_shard_recorder(std::size_t shard,
                                 obs::FlightRecorder* recorder) {
  if (shard >= recorders_.size()) {
    throw std::out_of_range("Network: recorder shard out of range");
  }
  recorders_[shard] = recorder;
}

void Network::send(NodeId from, NodeId to, MessagePtr message) {
  if (!message) {
    throw std::invalid_argument("Network: null message");
  }
  Node& src = node_at(from);
  const std::uint32_t dst_shard = node_at(to).shard;

  const std::uint32_t src_shard = src.shard;
  sim::Simulation& ssim = sim_of(src_shard);

  ShardCells& cells = cells_[src_shard];
  ++cells.messages_sent;

  // Bounded uplink queue: if the committed backlog already exceeds the
  // cap, the message is tail-dropped before entering the queue — it never
  // consumes serialization time or bits, and the interposer never sees it
  // (the loss happens at the sender, upstream of the wire). Deterministic:
  // no randomness, purely a function of the busy window.
  const LinkSpec& src_spec = spec_of(src);
  if (src_spec.uplink_queue > sim::SimTime::zero() &&
      src.uplink_busy_until - ssim.now() > src_spec.uplink_queue) {
    ++cells.uplink_queue_dropped;
    if (tracked_tag_ >= 0 && message->tag() == tracked_tag_) {
      ++cells.tracked_uplink_queue_dropped;
    }
    obs::FlightRecorder* recorder = recorders_[src_shard];
    if (recorder != nullptr) {
      recorder->emit(ssim.now(), obs::TraceEventKind::kQueueDropped,
                     obs::TraceComponent::kNetwork, {}, from,
                     static_cast<std::uint64_t>(message->tag()));
    }
    return;
  }

  SendInterposer::Action action;
  if (interposer_ != nullptr) {
    action = interposer_->on_send(from, to, *message, src_shard);
  }

  cells.bits_sent += static_cast<std::uint64_t>(message->wire_size().count());

  // Serialize on the sender's uplink (FIFO). This happens even for a
  // dropped message: the sender transmitted it; the loss is downstream.
  const double tx_up =
      util::transmission_seconds(message->wire_size(), src_spec.uplink);
  const sim::SimTime start = std::max(ssim.now(), src.uplink_busy_until);
  const sim::SimTime departed = start + sim::SimTime::from_seconds(tx_up);
  src.uplink_busy_until = departed;

  if (action.drop) return;

  const sim::SimTime arrival_at_edge =
      departed + src_spec.latency + action.extra_latency;
  if (action.duplicate) {
    schedule_arrival(arrival_at_edge, from, to, src_shard, dst_shard,
                     message);
  }
  schedule_arrival(arrival_at_edge, from, to, src_shard, dst_shard,
                   std::move(message));
}

void Network::schedule_arrival(sim::SimTime at, NodeId from, NodeId to,
                               std::uint32_t src_shard,
                               std::uint32_t dst_shard, MessagePtr message) {
  ++cells_[src_shard].arrivals_scheduled;
  if (sharded_ != nullptr && dst_shard != src_shard) {
    // Cross-shard hop: through the kernel mailbox, landing at the first
    // window boundary >= the edge-arrival time.
    sharded_->post(
        src_shard, dst_shard, at,
        [this, from, to, dst_shard, message = std::move(message)]() mutable {
          arrive(from, to, dst_shard, std::move(message));
        });
    return;
  }
  sim_of(dst_shard).schedule_at(
      at,
      [this, from, to, dst_shard, message = std::move(message)]() mutable {
        arrive(from, to, dst_shard, std::move(message));
      },
      sim::EventPriority::kDelivery);
}

void Network::arrive(NodeId from, NodeId to, std::uint32_t dst_shard,
                     MessagePtr message) {
  // The receiver's downlink serialization is decided at edge-arrival time,
  // because its busy window depends on messages that arrive before ours.
  // Runs on (and only on) the destination's shard.
  sim::Simulation& dsim = sim_of(dst_shard);
  Node& dst = nodes_[to];
  // Bounded downlink queue: shed at edge arrival when the receiver's
  // committed backlog exceeds the cap (the message crossed the wire but
  // the access queue is full — classic tail drop).
  const LinkSpec& dst_spec = spec_of(dst);
  if (dst_spec.downlink_queue > sim::SimTime::zero() &&
      dst.downlink_busy_until - dsim.now() > dst_spec.downlink_queue) {
    ++cells_[dst_shard].downlink_queue_dropped;
    if (tracked_tag_ >= 0 && message->tag() == tracked_tag_) {
      ++cells_[dst_shard].tracked_downlink_queue_dropped;
    }
    obs::FlightRecorder* recorder = recorders_[dst_shard];
    if (recorder != nullptr) {
      recorder->emit(dsim.now(), obs::TraceEventKind::kQueueDropped,
                     obs::TraceComponent::kNetwork, {}, to,
                     static_cast<std::uint64_t>(message->tag()));
    }
    return;
  }
  const double tx_down =
      util::transmission_seconds(message->wire_size(), dst_spec.downlink);
  const sim::SimTime begin = std::max(dsim.now(), dst.downlink_busy_until);
  const sim::SimTime done = begin + sim::SimTime::from_seconds(tx_down);
  dst.downlink_busy_until = done;
  dsim.schedule_at(
      done,
      [this, from, to, dst_shard, message = std::move(message)] {
        Node& d = nodes_[to];
        if (d.endpoint == nullptr) {
          ++cells_[dst_shard].messages_dropped;
          if (tracked_tag_ >= 0 && message->tag() == tracked_tag_) {
            ++cells_[dst_shard].tracked_dropped;
          }
          obs::FlightRecorder* recorder = recorders_[dst_shard];
          if (recorder != nullptr) {
            recorder->emit(sim_of(dst_shard).now(),
                           obs::TraceEventKind::kMessageDropped,
                           obs::TraceComponent::kNetwork, {}, to,
                           static_cast<std::uint64_t>(message->tag()));
          }
          return;
        }
        ++cells_[dst_shard].messages_delivered;
        d.endpoint->on_message(from, message);
      },
      sim::EventPriority::kDelivery);
}

}  // namespace oddci::net
