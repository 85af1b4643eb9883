#include "dtv/receiver.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace oddci::dtv {

sim::Simulation& XletContext::simulation() { return receiver_->simulation(); }

const broadcast::CarouselSnapshot* XletContext::current_carousel() const {
  return receiver_->current_carousel();
}

namespace {

/// Identifies a module name inside a CarouselRead without keeping a copy of
/// the string (64-bit FNV-1a mixed by SplitMix64).
std::uint64_t name_hash(const std::string& name) {
  return util::stream_seed(0, name);
}

}  // namespace

Receiver::Receiver(sim::Simulation& simulation, net::Network& network,
                   const DeviceProfile& profile, net::LinkSpec link)
    : simulation_(simulation),
      network_(network),
      profile_(&profile),
      apps_(*this),
      cpu_free_at_(simulation.now()) {
  node_id_ = network_.register_endpoint(this, link);
}

Receiver::~Receiver() {
  // Teardown is single-threaded (the kernel has stopped).
  if (channel_ != nullptr) {
    channel_->untune(listener_id(), shard_);
  }
  if (node_id_ != net::kInvalidNode && network_.attached(node_id_)) {
    network_.unregister_endpoint(node_id_);
  }
}

const broadcast::CarouselSnapshot* Receiver::current_carousel() const {
  // Power-off and untune drop the capsule.
  return capsule_ != nullptr ? &capsule_->snapshot : nullptr;
}

void Receiver::set_power_mode(PowerMode mode) {
  if (mode == power_) return;
  const PowerMode previous = power_;
  power_ = mode;
  if (recorder_ != nullptr) {
    recorder_->emit(simulation_.now(), obs::TraceEventKind::kPowerChange,
                    obs::TraceComponent::kReceiver, {}, node_id_,
                    static_cast<std::uint64_t>(mode));
  }

  if (mode == PowerMode::kOff) {
    ++session_;
    apps_.destroy_all();
    for (const sim::EventId event : running_) simulation_.cancel(event);
    running_.clear();
    cpu_free_at_ = simulation_.now();
    handler_ = nullptr;
    capsule_.reset();
    if (channel_ != nullptr) {
      channel_->untune(listener_id(), shard_);
    }
    network_.unregister_endpoint(node_id_);
    return;
  }

  if (previous == PowerMode::kOff) {
    // Coming back: re-attach the return channel and re-acquire signalling.
    network_.reattach_endpoint(node_id_, this);
    cpu_free_at_ = simulation_.now();
    if (channel_ != nullptr) {
      channel_->tune(listener_id(), this, shard_);
    }
  }
  // Standby <-> in-use transitions only change the slowdown of *future*
  // dispatches; jobs already running keep their speed (documented).
}

void Receiver::tune(broadcast::BroadcastMedium& channel) {
  if (channel_ == &channel) return;
  if (channel_ != nullptr) {
    untune();
  }
  channel_ = &channel;
  if (recorder_ != nullptr) {
    recorder_->emit(simulation_.now(), obs::TraceEventKind::kTuned,
                    obs::TraceComponent::kReceiver, {}, node_id_, 1);
  }
  if (powered()) {
    ++session_;  // invalidate carousel reads from the previous channel
    channel_->tune(listener_id(), this, shard_);
  }
}

void Receiver::untune() {
  if (channel_ == nullptr) return;
  if (recorder_ != nullptr) {
    recorder_->emit(simulation_.now(), obs::TraceEventKind::kTuned,
                    obs::TraceComponent::kReceiver, {}, node_id_, 0);
  }
  ++session_;
  apps_.destroy_all();  // a channel change kills broadcast applications
  if (powered()) {
    channel_->untune(listener_id(), shard_);
  }
  channel_ = nullptr;
  capsule_.reset();
}

double Receiver::scaled_seconds(double reference_seconds) const {
  if (!powered()) {
    throw std::logic_error("Receiver: cannot execute while powered off");
  }
  return reference_seconds * profile_->slowdown(power_);
}

Receiver::ExecToken Receiver::execute(double reference_seconds,
                                      std::function<void()> on_done) {
  if (reference_seconds < 0.0) {
    throw std::invalid_argument("Receiver: negative execution time");
  }
  if (!on_done) {
    throw std::invalid_argument("Receiver: empty completion callback");
  }
  const double local = scaled_seconds(reference_seconds);
  const sim::SimTime begin = std::max(simulation_.now(), cpu_free_at_);
  const sim::SimTime done = begin + sim::SimTime::from_seconds(local);
  cpu_free_at_ = done;

  // Completions fire in submission order (non-decreasing times, ties by
  // scheduling sequence), so the finishing job is always the front.
  const sim::EventId event =
      simulation_.schedule_at(done, [this, cb = std::move(on_done)] {
        running_.erase(running_.begin());
        cb();
      });
  running_.push_back(event);
  return event;
}

bool Receiver::cancel_execution(ExecToken token) {
  auto it = std::find(running_.begin(), running_.end(), token);
  if (it == running_.end()) return false;
  simulation_.cancel(token);
  running_.erase(it);
  // Note: the FIFO reservation is not reclaimed; a real STB would also not
  // compact its schedule instantaneously.
  return true;
}

std::optional<std::pair<sim::SimTime, Receiver::CarouselRead>>
Receiver::begin_carousel_read(const std::string& name, bool xlet_guarded) {
  const broadcast::CarouselSnapshot* on_air = current_carousel();
  if (on_air == nullptr) return std::nullopt;
  // Acquisition is computed from the acquired capsule alone, with a draw
  // keyed by this receiver's id and read ordinal: the same at every K.
  const std::optional<sim::SimTime> ready = capsule_->ready_at(
      name, simulation_.now(), capsule_->read_draw(listener_id(), ++reads_));
  if (!ready) return std::nullopt;
  const broadcast::CarouselFile* file = on_air->find(name);
  CarouselRead read;
  read.content_id = file->content_id;
  read.name_hash = name_hash(name);
  read.version = file->version;
  read.session = session_;
  read.xlet_generation = apps_.context().generation();
  read.xlet_guarded = xlet_guarded;
  return std::make_pair(*ready, read);
}

const broadcast::CarouselFile* Receiver::finish_carousel_read(
    const CarouselRead& read) const {
  // Invalidated by power-off/channel change. A new carousel generation does
  // NOT abort the read as long as the module itself is unchanged (same
  // name/version/content): real DSM-CC receivers keep assembling a module
  // across unrelated carousel updates and only restart on a module-version
  // bump. The check runs against whatever signalling this receiver has
  // acquired by now.
  const broadcast::CarouselSnapshot* on_air = current_carousel();
  if (session_ != read.session || on_air == nullptr) return nullptr;
  for (const broadcast::CarouselFile& file : on_air->files) {
    if (file.content_id == read.content_id && file.version == read.version &&
        name_hash(file.name) == read.name_hash) {
      return &file;
    }
  }
  return nullptr;
}

void Receiver::send(net::NodeId to, net::MessagePtr message) {
  if (!powered()) return;
  network_.send(node_id_, to, std::move(message));
}

void Receiver::on_signalling_capsule(
    const std::shared_ptr<const broadcast::SignallingCapsule>& capsule) {
  if (!powered() || channel_ == nullptr) return;
  capsule_ = capsule;
  autostart_from_ait(capsule->ait);
  // DESTROY/KILL codes are processed immediately.
  apps_.process_ait(capsule->ait);
  // Already-running trigger applications observe the fresh carousel.
  apps_.notify_carousel(capsule->snapshot);
}

void Receiver::autostart_from_ait(const broadcast::Ait& ait) {
  for (const auto& entry : ait.entries()) {
    if (entry.control_code != broadcast::AppControlCode::kAutostart ||
        apps_.running(entry.application_id)) {
      continue;
    }
    if (entry.base_file.empty()) {
      apps_.launch(entry.application_id, entry.application_name);
      continue;
    }
    // The trigger application's code base must first be read from the
    // carousel (this is what spreads PNA launch times across receivers).
    const std::uint32_t factory =
        apps_.registry() != nullptr
            ? apps_.registry()->find(entry.application_name)
            : XletRegistry::kNotFound;
    read_carousel_file(
        entry.base_file,
        [this, id = entry.application_id, factory](
            bool ok, const broadcast::CarouselFile&) {
          if (ok && !apps_.running(id)) apps_.launch(id, factory);
        });
  }
}

void Receiver::on_message(net::NodeId from, const net::MessagePtr& message) {
  if (!powered()) return;
  if (handler_ != nullptr) handler_->on_direct_message(from, message);
}

}  // namespace oddci::dtv
