#include "core/aggregator.hpp"

#include <stdexcept>
#include <string>

namespace oddci::core {

HeartbeatAggregator::HeartbeatAggregator(sim::Simulation& simulation,
                                         net::Network& network,
                                         net::NodeId controller,
                                         const net::LinkSpec& link,
                                         AggregatorOptions options)
    : simulation_(simulation),
      network_(network),
      controller_(controller),
      options_(options) {
  if (options_.report_interval <= sim::SimTime::zero()) {
    throw std::invalid_argument(
        "HeartbeatAggregator: report interval must be > 0");
  }
  if (options_.mode == HeartbeatMode::kDelta && options_.resync_every == 0) {
    throw std::invalid_argument(
        "HeartbeatAggregator: resync_every must be >= 1");
  }
  if (options_.flush_phase < sim::SimTime::zero() ||
      options_.flush_phase >= options_.report_interval) {
    throw std::invalid_argument(
        "HeartbeatAggregator: flush phase must be in [0, report interval)");
  }
  node_id_ = network_.register_endpoint(this, link);
  reporter_ = sim::PeriodicTask(
      simulation_,
      simulation_.now() + options_.report_interval + options_.flush_phase,
      options_.report_interval, [this] { flush(); });
}

HeartbeatAggregator::~HeartbeatAggregator() { reporter_.cancel(); }

void HeartbeatAggregator::set_shard(std::uint64_t stride,
                                    std::uint64_t phase,
                                    std::uint64_t id_bound) {
  if (stride == 0 || phase >= stride) {
    throw std::invalid_argument("HeartbeatAggregator: bad shard");
  }
  shard_stride_ = stride;
  shard_phase_ = phase;
  // Slots of the ids below the bound: one exact allocation instead of a
  // doubling vector.
  const std::uint64_t slots = id_bound > phase
                                  ? (id_bound - 1 - phase) / stride + 1
                                  : 0;
  if (options_.mode == HeartbeatMode::kDelta) {
    ledger_.reserve(slots);
  } else {
    dense_.reserve(slots);
  }
}

void HeartbeatAggregator::next_window() {
  if (++epoch_ == 0) {
    // Wrapped (after 2^32 windows): restamp so no cell aliases the new
    // window.
    for (DenseRecord& cell : dense_) cell.epoch = 0;
    epoch_ = 1;
  }
}

void HeartbeatAggregator::on_message(net::NodeId /*from*/,
                                     const net::MessagePtr& message) {
  if (message->tag() == kTagDeltaReport &&
      options_.mode == HeartbeatMode::kDelta) {
    // Controller resync request (an empty downstream kResync frame): make
    // the next flush a full frame, so a desynced Controller recovers in
    // about one window instead of waiting out the resync_every cadence.
    next_resync_ = 0;
    return;
  }
  if (message->tag() != kTagHeartbeat) return;
  const auto& hb = static_cast<const HeartbeatMessage&>(*message);
  const std::uint64_t id = hb.pna_id();
  if (id % shard_stride_ != shard_phase_) {
    throw std::logic_error("HeartbeatAggregator: heartbeat from PNA " +
                           std::to_string(id) + " outside the shard");
  }
  ++stats_.heartbeats_received;
  const auto slot = static_cast<std::uint32_t>(id / shard_stride_);
  if (options_.mode == HeartbeatMode::kDelta) {
    ledger_note(slot, hb);
    return;
  }
  if (slot >= dense_.size()) dense_.resize(slot + 1);
  DenseRecord& cell = dense_[slot];
  if (cell.epoch != epoch_) {
    cell.epoch = epoch_;
    touched_.push_back(slot);
  }
  cell.state = hb.state();
  cell.instance = hb.instance();
  cell.trace = hb.trace();
}

void HeartbeatAggregator::ledger_note(std::uint32_t slot,
                                      const HeartbeatMessage& hb) {
  announcing_ = false;
  if (slot >= ledger_.size()) ledger_.resize(slot + 1);
  LedgerRecord& rec = ledger_[slot];
  const bool changed = !rec.known || rec.state != hb.state() ||
                       rec.instance != hb.instance();
  if (!rec.known) {
    rec.known = true;
    ++ledger_members_;
    ledger_order_.push_back(slot);
  }
  if (changed && !rec.dirty) {
    rec.dirty = true;
    ledger_dirty_.push_back(slot);
  }
  rec.state = hb.state();
  rec.instance = hb.instance();
  rec.trace = hb.trace();
  rec.last_seen = simulation_.now();
}

void HeartbeatAggregator::flush() {
  if (options_.mode == HeartbeatMode::kDelta) {
    flush_delta();
    return;
  }
  if (touched_.empty()) {
    if (!announcing_) return;
    // Still cut off from our shard after a restart: repeat the recovery
    // announcement until the Controller restores our routing slot (a lost
    // announcement must not leave us failed over forever).
    ++stats_.reports_sent;
    network_.send(
        node_id_, controller_,
        std::make_shared<AggregateReportMessage>(
            std::vector<AggregateReportMessage::Entry>{}));
    return;
  }
  announcing_ = false;
  std::vector<AggregateReportMessage::Entry> entries;
  entries.reserve(window_size());
  // Slots flush in arrival order (deterministic).
  for (const std::uint32_t slot : touched_) {
    const DenseRecord& rec = dense_[slot];
    entries.push_back({slot * shard_stride_ + shard_phase_, rec.state,
                       rec.instance, rec.trace});
  }
  touched_.clear();
  next_window();
  if (recorder_ != nullptr) {
    recorder_->emit(simulation_.now(), obs::TraceEventKind::kAggregateFlush,
                    obs::TraceComponent::kAggregator, {}, node_id_,
                    entries.size());
  }
  stats_.entries_forwarded += entries.size();
  ++stats_.reports_sent;
  network_.send(node_id_, controller_,
                std::make_shared<AggregateReportMessage>(std::move(entries)));
}

void HeartbeatAggregator::flush_delta() {
  const auto now = simulation_.now();
  std::vector<DeltaReportMessage::Entry> entries;

  // Expire members silent past the horizon, compacting the first-seen
  // order list in place. This walk is O(ledger) per window — the same
  // asymptotic work the aggregator already does absorbing its shard's
  // heartbeats — and it is what lets the *upstream* path be O(changes).
  if (options_.expiry > sim::SimTime::zero()) {
    std::size_t keep = 0;
    for (const std::uint32_t slot : ledger_order_) {
      LedgerRecord& rec = ledger_[slot];
      if (!rec.known) continue;  // vacated earlier
      if (now - rec.last_seen > options_.expiry) {
        entries.push_back({slot * shard_stride_ + shard_phase_,
                           DeltaReportMessage::Op::kExpire, rec.state,
                           rec.instance, {}});
        rec.known = false;
        rec.dirty = false;
        --ledger_members_;
        continue;
      }
      ledger_order_[keep++] = slot;
    }
    ledger_order_.resize(keep);
    stats_.expiries_sent += entries.size();
  }

  const bool resync = next_resync_ == 0;
  std::uint64_t checksum = 0;
  if (resync) {
    next_resync_ = options_.resync_every - 1;
    // A resync replaces the Controller's whole slice, so explicit expiry
    // entries are redundant — the frame is exactly the live ledger.
    entries.clear();
    entries.reserve(ledger_members_);
    for (const std::uint32_t slot : ledger_order_) {
      LedgerRecord& rec = ledger_[slot];
      if (!rec.known) continue;
      rec.dirty = false;
      entries.push_back({slot * shard_stride_ + shard_phase_,
                         DeltaReportMessage::Op::kUpdate, rec.state,
                         rec.instance, rec.trace});
      checksum ^= delta_member_mix(entries.back().pna_id, rec.state,
                                   rec.instance);
    }
    ledger_dirty_.clear();
    ++stats_.resyncs_sent;
  } else {
    --next_resync_;
    for (const std::uint32_t slot : ledger_dirty_) {
      LedgerRecord& rec = ledger_[slot];
      if (!rec.dirty) continue;  // expired above
      rec.dirty = false;
      entries.push_back({slot * shard_stride_ + shard_phase_,
                         DeltaReportMessage::Op::kUpdate, rec.state,
                         rec.instance, rec.trace});
    }
    ledger_dirty_.clear();
    // Nothing ever reported and nothing to say: stay silent, like the
    // naive tier before its first window (the Controller's failover clock
    // only arms after an aggregator's first report).
    if (entries.empty() && delta_epoch_ == 0 && !announcing_) {
      ++next_resync_;  // the skipped frame doesn't advance the cadence
      return;
    }
    // An empty delta still goes out: it advances the epoch and doubles as
    // the liveness keepalive that stops the Controller failing us over.
  }

  ++delta_epoch_;
  if (recorder_ != nullptr) {
    recorder_->emit(simulation_.now(), obs::TraceEventKind::kAggregateFlush,
                    obs::TraceComponent::kAggregator, {}, node_id_,
                    entries.size());
  }
  stats_.entries_forwarded += entries.size();
  ++stats_.reports_sent;
  network_.send(node_id_, controller_,
                std::make_shared<DeltaReportMessage>(
                    options_.origin, delta_epoch_,
                    resync ? DeltaReportMessage::Kind::kResync
                           : DeltaReportMessage::Kind::kDelta,
                    checksum, std::move(entries)));
}

void HeartbeatAggregator::clear_ledger() {
  for (const std::uint32_t slot : ledger_order_) {
    ledger_[slot] = LedgerRecord{};
  }
  ledger_order_.clear();
  ledger_dirty_.clear();
  ledger_members_ = 0;
}

void HeartbeatAggregator::crash() {
  if (crashed_) return;
  crashed_ = true;
  network_.unregister_endpoint(node_id_);
  reporter_.cancel();
  // The unreported window dies with the process; the PNAs it covered will
  // be re-heard on their next heartbeat. The delta ledger dies too — a
  // restarted process has no memory of who it covered, which is exactly
  // why its first frame back is a (possibly empty) resync.
  touched_.clear();
  next_window();
  clear_ledger();
}

void HeartbeatAggregator::restart() {
  if (!crashed_) return;
  crashed_ = false;
  network_.reattach_endpoint(node_id_, this);
  reporter_ = sim::PeriodicTask(
      simulation_,
      simulation_.now() + options_.report_interval + options_.flush_phase,
      options_.report_interval, [this] { flush(); });
  // Announce recovery with an empty report: if the Controller failed this
  // aggregator over while it was down, its shard is heartbeating the
  // Controller directly and would never repopulate the window here — the
  // announcement is what restores the routing slot.
  announcing_ = true;
  if (options_.mode == HeartbeatMode::kDelta) {
    // The announcement is a resync (the ledger was lost in the crash, so
    // it is empty): the Controller must rebuild this origin's slice from
    // scratch, never trust post-restart deltas against pre-crash state.
    next_resync_ = 0;
    flush_delta();
    return;
  }
  ++stats_.reports_sent;
  network_.send(
      node_id_, controller_,
      std::make_shared<AggregateReportMessage>(
          std::vector<AggregateReportMessage::Entry>{}));
}

void HeartbeatAggregator::link_metrics(obs::MetricsRegistry& registry,
                                       const std::string& prefix) const {
  registry.link_probe(prefix + ".heartbeats_received", [this] {
    return static_cast<double>(stats_.heartbeats_received);
  });
  registry.link_probe(prefix + ".reports_sent", [this] {
    return static_cast<double>(stats_.reports_sent);
  });
  registry.link_probe(prefix + ".entries_forwarded", [this] {
    return static_cast<double>(stats_.entries_forwarded);
  });
  registry.link_probe(prefix + ".window_size", [this] {
    return static_cast<double>(window_size());
  });
  if (options_.mode == HeartbeatMode::kDelta) {
    registry.link_probe(prefix + ".resyncs_sent", [this] {
      return static_cast<double>(stats_.resyncs_sent);
    });
    registry.link_probe(prefix + ".expiries_sent", [this] {
      return static_cast<double>(stats_.expiries_sent);
    });
    registry.link_probe(prefix + ".ledger_members", [this] {
      return static_cast<double>(ledger_members_);
    });
  }
}

AggregatorRelay::AggregatorRelay(sim::Simulation& simulation,
                                 net::Network& network, net::NodeId controller,
                                 const net::LinkSpec& link,
                                 sim::SimTime report_interval,
                                 sim::SimTime flush_phase)
    : simulation_(simulation), network_(network), controller_(controller) {
  if (report_interval <= sim::SimTime::zero()) {
    throw std::invalid_argument("AggregatorRelay: report interval must be > 0");
  }
  if (flush_phase < sim::SimTime::zero() || flush_phase >= report_interval) {
    throw std::invalid_argument(
        "AggregatorRelay: flush phase must be in [0, report interval)");
  }
  node_id_ = network_.register_endpoint(this, link);
  reporter_ = sim::PeriodicTask(simulation_,
                                simulation_.now() + report_interval +
                                    flush_phase,
                                report_interval, [this] { flush(); });
}

AggregatorRelay::~AggregatorRelay() { reporter_.cancel(); }

void AggregatorRelay::on_message(net::NodeId /*from*/,
                                 const net::MessagePtr& message) {
  if (message->tag() != kTagDeltaReport) return;
  ++stats_.frames_received;
  pending_.push_back(
      std::static_pointer_cast<const DeltaReportMessage>(message));
}

void AggregatorRelay::flush() {
  if (pending_.empty()) return;
  ++stats_.batches_sent;
  network_.send(node_id_, controller_,
                std::make_shared<DeltaBatchMessage>(std::move(pending_)));
  pending_.clear();
}

void AggregatorRelay::link_metrics(obs::MetricsRegistry& registry,
                                   const std::string& prefix) const {
  registry.link_probe(prefix + ".frames_received", [this] {
    return static_cast<double>(stats_.frames_received);
  });
  registry.link_probe(prefix + ".batches_sent", [this] {
    return static_cast<double>(stats_.batches_sent);
  });
}

}  // namespace oddci::core
