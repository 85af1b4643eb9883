#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "broadcast/channel.hpp"
#include "dtv/application_manager.hpp"
#include "dtv/device_profile.hpp"
#include "net/message.hpp"
#include "net/network.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

/// A DTV receiver (set-top box): tuner + middleware + interactive-apps
/// processor + return channel.
///
/// The receiver is the host environment for the PNA Xlet. It:
///  * tunes a broadcast medium (DTV channel, multicast group) and forwards
///    acquired AITs to its
///    ApplicationManager (AUTOSTART apps launch after their code base has
///    been read from the carousel);
///  * models the dedicated interactive-application processor as a FIFO
///    resource whose speed depends on the device profile and power mode;
///  * owns the direct (return) channel endpoint used by Xlets to talk to
///    the Controller and Backend.
namespace oddci::dtv {

class Receiver final : public broadcast::BroadcastListener,
                       public net::Endpoint {
 public:
  /// `profile` is shared, not copied: it must outlive the receiver (the
  /// named DeviceProfile constants, or one population-wide instance).
  Receiver(sim::Simulation& simulation, net::Network& network,
           const DeviceProfile& profile, net::LinkSpec link);
  Receiver(sim::Simulation&, net::Network&, DeviceProfile&&,
           net::LinkSpec) = delete;
  ~Receiver() override;

  Receiver(const Receiver&) = delete;
  Receiver& operator=(const Receiver&) = delete;

  // --- identity / capabilities -------------------------------------------
  [[nodiscard]] const DeviceProfile& profile() const { return *profile_; }
  [[nodiscard]] net::NodeId node_id() const { return node_id_; }
  [[nodiscard]] sim::Simulation& simulation() { return simulation_; }
  [[nodiscard]] ApplicationManager& application_manager() { return apps_; }

  /// Attach a flight recorder: power-mode changes and tuner changes are
  /// emitted as receiver-track events (the physical causes behind member
  /// churn). nullptr detaches.
  void set_recorder(obs::FlightRecorder* recorder) { recorder_ = recorder; }

  // --- sharded kernel -------------------------------------------------------
  /// Place this receiver on kernel shard `shard`, before it tunes: it
  /// tunes its media there. The receiver's `simulation` reference must
  /// already be that shard's kernel.
  void set_shard(std::uint32_t shard) { shard_ = shard; }

  [[nodiscard]] std::uint32_t shard() const { return shard_; }
  /// This receiver's id on every medium it tunes, for life: its node id
  /// plus one, so a power cycle re-tunes under the same id at every K.
  [[nodiscard]] broadcast::ListenerId listener_id() const {
    return static_cast<broadcast::ListenerId>(node_id_) + 1;
  }

  /// The carousel view this receiver acts on: the snapshot of the last
  /// signalling capsule it acquired (null while powered off, untuned or
  /// before the first acquisition).
  [[nodiscard]] const broadcast::CarouselSnapshot* current_carousel() const;

  // --- power --------------------------------------------------------------
  [[nodiscard]] PowerMode power_mode() const { return power_; }
  /// Switching off destroys all Xlets, cancels executions and detaches the
  /// return channel. Switching on re-attaches; if a channel was tuned it is
  /// re-acquired (signalling will be re-delivered by the carousel).
  void set_power_mode(PowerMode mode);
  [[nodiscard]] bool powered() const { return power_ != PowerMode::kOff; }

  // --- tuner ----------------------------------------------------------------
  /// Tune to `channel` (replacing any previous channel; running broadcast
  /// apps are destroyed, as a real channel change does).
  void tune(broadcast::BroadcastMedium& channel);
  void untune();
  [[nodiscard]] broadcast::BroadcastMedium* tuned_channel() {
    return channel_;
  }

  // --- interactive-apps processor ------------------------------------------
  /// The completion event's id; never 0 (sim::kInvalidEvent).
  using ExecToken = sim::EventId;
  /// Run a job that takes `reference_seconds` on the reference PC. The
  /// actual duration is scaled by the profile slowdown for the *current*
  /// power mode and serialized FIFO after previously submitted jobs.
  /// Returns a token usable with `cancel_execution`.
  ExecToken execute(double reference_seconds, std::function<void()> on_done);
  bool cancel_execution(ExecToken token);
  /// Local duration a job of `reference_seconds` takes right now.
  [[nodiscard]] double scaled_seconds(double reference_seconds) const;

  // --- carousel access -------------------------------------------------------
  /// Acquire `name` from the tuned carousel: `on_done(ok, file)` runs once
  /// it is received in full; `ok` is false if it is not on air, its module
  /// changed meanwhile, or the receiver was untuned/powered off. `file` is
  /// valid during the call. A callable of <= 16 B keeps the event inline.
  /// An `xlet_guarded` read (XletContext) is dropped, not run, once the
  /// hosted Xlets' generation moves.
  template <typename F>
  void read_carousel_file(const std::string& name, F&& on_done,
                          bool xlet_guarded = false);

  // --- return channel --------------------------------------------------------
  /// Direct-channel messages go to `handler` until cleared.
  void set_message_handler(MessageHandler* handler) { handler_ = handler; }
  void clear_message_handler() { handler_ = nullptr; }
  /// Send on the return channel; silently dropped if powered off.
  void send(net::NodeId to, net::MessagePtr message);

  // --- BroadcastListener ------------------------------------------------------
  void on_signalling_capsule(
      const std::shared_ptr<const broadcast::SignallingCapsule>& capsule)
      override;

  // --- net::Endpoint ----------------------------------------------------------
  void on_message(net::NodeId from, const net::MessagePtr& message) override;

 private:
  /// The module a carousel read in flight is assembling (32 B, not a
  /// CarouselFile copy), re-checked against what is on air at completion.
  struct CarouselRead {
    std::uint64_t content_id = 0;
    std::uint64_t name_hash = 0;
    std::uint32_t version = 0;
    std::uint32_t session = 0;
    std::uint32_t xlet_generation = 0;
    bool xlet_guarded = false;
  };

  /// Completion time and module, or nullopt when the read fails at once.
  std::optional<std::pair<sim::SimTime, CarouselRead>> begin_carousel_read(
      const std::string& name, bool xlet_guarded);
  /// The module now on air if `read` is still valid, else nullptr.
  [[nodiscard]] const broadcast::CarouselFile* finish_carousel_read(
      const CarouselRead& read) const;

  void autostart_from_ait(const broadcast::Ait& ait);

  sim::Simulation& simulation_;
  net::Network& network_;
  const DeviceProfile* profile_;
  broadcast::BroadcastMedium* channel_ = nullptr;

  ApplicationManager apps_;
  MessageHandler* handler_ = nullptr;

  sim::SimTime cpu_free_at_;
  /// Completion events of the queued executions, in completion order.
  std::vector<sim::EventId> running_;
  obs::FlightRecorder* recorder_ = nullptr;

  /// Latest signalling capsule: the receiver's own frozen view of what is
  /// on air, used for carousel reads and version checks.
  std::shared_ptr<const broadcast::SignallingCapsule> capsule_;

  net::NodeId node_id_ = net::kInvalidNode;
  std::uint32_t shard_ = 0;
  /// Carousel reads begun so far: the ordinal that keys each read's draw.
  std::uint32_t reads_ = 0;
  /// Bumped whenever in-flight async work must be invalidated (power off,
  /// channel change).
  std::uint32_t session_ = 0;
  PowerMode power_ = PowerMode::kStandby;
};

/// The failure value carousel-read callbacks receive.
inline const broadcast::CarouselFile kNoCarouselFile{};

template <typename F>
void Receiver::read_carousel_file(const std::string& name, F&& on_done,
                                  bool xlet_guarded) {
  auto read = begin_carousel_read(name, xlet_guarded);
  if (!read) {
    on_done(false, kNoCarouselFile);
    return;
  }
  simulation_.schedule_at(
      read->first, [this, r = read->second,
                    cb = std::forward<F>(on_done)]() mutable {
        if (r.xlet_guarded &&
            r.xlet_generation != apps_.context().generation()) {
          return;
        }
        const broadcast::CarouselFile* file = finish_carousel_read(r);
        cb(file != nullptr, file != nullptr ? *file : kNoCarouselFile);
      });
}

template <typename F>
void XletContext::read_carousel_file(const std::string& name, F&& on_done) {
  receiver_->read_carousel_file(name, std::forward<F>(on_done),
                                /*xlet_guarded=*/true);
}

}  // namespace oddci::dtv
