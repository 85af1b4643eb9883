#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "broadcast/channel.hpp"
#include "dtv/application_manager.hpp"
#include "dtv/device_profile.hpp"
#include "net/message.hpp"
#include "net/network.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/simulation.hpp"

/// A DTV receiver (set-top box): tuner + middleware + interactive-apps
/// processor + return channel.
///
/// The receiver is the host environment for the PNA Xlet. It:
///  * tunes a broadcast medium (DTV channel, multicast group), forwards
///    acquired AITs to its ApplicationManager and launches AUTOSTART apps
///    once their code base has been read from the carousel; its reads wait
///    in the medium's per-shard read queue (broadcast::Audience);
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
  void on_read_done(const broadcast::ModuleRead& read) override;

  // --- net::Endpoint ----------------------------------------------------------
  void on_message(net::NodeId from, const net::MessagePtr& message) override;

 private:
  friend class XletContext;

  /// A read's client: the receiver's own autostart, or 1 + the application
  /// slot of the Xlet that asked.
  static constexpr std::uint8_t kAutostart = 0;

  /// Queue a read of `name` from the acquired capsule on the tuned medium's
  /// read queue; false, with nothing queued, when nothing is acquired or
  /// `name` is not on air.
  bool read_carousel_file(const std::string& name, std::uint8_t client,
                          std::uint16_t token);
  /// The module `read` assembles if it is still on air in the acquired
  /// capsule, else nullptr.
  [[nodiscard]] const broadcast::CarouselFile* module_on_air(
      const broadcast::ModuleRead& read) const;

  /// Read the code base of every AUTOSTART entry that has one and is not
  /// running; on_read_done launches it.
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
  PowerMode power_ = PowerMode::kStandby;
};

}  // namespace oddci::dtv
