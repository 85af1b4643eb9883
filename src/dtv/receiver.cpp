#include "dtv/receiver.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

namespace oddci::dtv {

sim::Simulation& XletContext::simulation() { return receiver_->simulation(); }

const broadcast::CarouselSnapshot* XletContext::current_carousel() const {
  return receiver_->current_carousel();
}

void XletContext::read_carousel_file(const std::string& name,
                                     CarouselAware& reader,
                                     std::uint16_t token) {
  const std::uint8_t slot =
      receiver_->application_manager().slot_of(reader);
  if (!receiver_->read_carousel_file(
          name, static_cast<std::uint8_t>(slot + 1), token)) {
    reader.on_carousel_read(token, false, kNoCarouselFile);
  }
}

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
    // Untuning drops the reads in flight (tune epoch).
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
    channel_->tune(listener_id(), this, shard_);
  }
}

void Receiver::untune() {
  if (channel_ == nullptr) return;
  if (recorder_ != nullptr) {
    recorder_->emit(simulation_.now(), obs::TraceEventKind::kTuned,
                    obs::TraceComponent::kReceiver, {}, node_id_, 0);
  }
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

bool Receiver::read_carousel_file(const std::string& name,
                                  std::uint8_t client, std::uint16_t token) {
  if (capsule_ == nullptr) return false;
  // Acquisition is computed from the acquired capsule alone, with a draw
  // keyed by this receiver's id and read ordinal: the same at every K.
  const std::optional<sim::SimTime> ready = capsule_->ready_at(
      name, simulation_.now(), capsule_->read_draw(listener_id(), ++reads_));
  if (!ready) return false;
  broadcast::ModuleRead read;
  read.at = *ready;
  read.id = listener_id();
  read.ordinal = reads_;
  read.version = capsule_->snapshot.find(name)->version;
  read.module = broadcast::module_key(name);
  read.generation = apps_.context().generation();
  read.client = client;
  read.token = token;
  channel_->read(shard_, read);
  return true;
}

const broadcast::CarouselFile* Receiver::module_on_air(
    const broadcast::ModuleRead& read) const {
  // A new carousel generation does NOT abort the read as long as the module
  // itself (name and version) is unchanged: real DSM-CC receivers keep
  // assembling a module across unrelated carousel updates and only restart
  // on a module-version bump. The check runs against whatever signalling
  // this receiver has acquired by now.
  for (const broadcast::CarouselFile& file : capsule_->snapshot.files) {
    if (file.version == read.version &&
        broadcast::module_key(file.name) == read.module) {
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

void Receiver::on_read_done(const broadcast::ModuleRead& read) {
  // The audience delivers only while this receiver stays tuned under the
  // read's tune epoch: a power-off, untune or re-tune dropped it.
  const broadcast::CarouselFile* file = module_on_air(read);
  if (read.client != kAutostart) {
    // An Xlet's read is dropped once the hosted Xlets' generation moved.
    if (read.generation == apps_.context().generation()) {
      apps_.complete_read(static_cast<std::uint8_t>(read.client - 1),
                          read.token, file);
    }
    return;
  }
  if (file == nullptr) return;
  // The code base is in: launch the AUTOSTART entries waiting for it.
  for (const auto& entry : capsule_->ait.entries()) {
    if (entry.control_code == broadcast::AppControlCode::kAutostart &&
        !entry.base_file.empty() && !apps_.running(entry.application_id) &&
        broadcast::module_key(entry.base_file) == read.module) {
      apps_.launch(entry.application_id, entry.application_name);
    }
  }
}

void Receiver::autostart_from_ait(const broadcast::Ait& ait) {
  for (const auto& entry : ait.entries()) {
    // An entry without a code base launches in process_ait.
    if (entry.control_code != broadcast::AppControlCode::kAutostart ||
        entry.base_file.empty() || apps_.running(entry.application_id)) {
      continue;
    }
    // The trigger application's code base must first be read from the
    // carousel (this is what spreads PNA launch times across receivers).
    read_carousel_file(entry.base_file, kAutostart, 0);
  }
}

void Receiver::on_message(net::NodeId from, const net::MessagePtr& message) {
  if (!powered()) return;
  if (handler_ != nullptr) handler_->on_direct_message(from, message);
}

}  // namespace oddci::dtv
