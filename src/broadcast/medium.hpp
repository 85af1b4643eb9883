#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "broadcast/ait.hpp"
#include "broadcast/audience.hpp"
#include "broadcast/carousel.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"

/// Abstraction over broadcast delivery technologies.
///
/// Section 3.3 of the paper lists several one-to-many substrates an OddCI
/// can be built on: digital TV in its various modalities, multicast over
/// broadband, mobile networks, IPTV. The OddCI components only need the
/// operations below; `BroadcastChannel` (DSM-CC carousel over a DTV
/// transport stream) and `MulticastChannel` (block-coded IP multicast
/// sessions) are the two provided implementations. Both freeze a
/// `SignallingCapsule` at every commit, holding the technology's
/// acquisition rule, and reach their listeners through one `Audience`
/// (audience.hpp).
namespace oddci::broadcast {

class BroadcastMedium {
 public:
  virtual ~BroadcastMedium() = default;

  BroadcastMedium(const BroadcastMedium&) = delete;
  BroadcastMedium& operator=(const BroadcastMedium&) = delete;

  // --- signalling -----------------------------------------------------------
  /// The application-information table announced on this medium.
  virtual Ait& ait() = 0;

  // --- content staging -------------------------------------------------------
  /// Stage (or replace, bumping the version of) a file for transmission.
  virtual void put_file(const std::string& name, util::Bits size,
                        std::uint64_t content_id) = 0;
  virtual bool remove_file(const std::string& name) = 0;
  /// Atomically start transmitting the staged contents; notifies tuned
  /// listeners. Returns the new generation number.
  virtual std::uint64_t commit() = 0;

  /// Snapshot of what is currently on air.
  [[nodiscard]] virtual const CarouselSnapshot& current() const = 0;
  /// The capsule the last commit froze (null before the first commit):
  /// what listeners acquire, acquisition rule included. Control shard.
  [[nodiscard]] const auto& on_air() const { return on_air_; }

  // --- receivers --------------------------------------------------------------
  /// Attach `listener` under its stable `id` on kernel shard `shard` (0
  /// without a sharded kernel), from that shard's thread. If signalling is
  /// on air there, the listener acquires it after its phase delay.
  void tune(ListenerId id, BroadcastListener* listener, std::uint32_t shard) {
    audience_.tune(id, listener, shard);
  }
  /// Detach, from `shard`'s thread; a pending acquisition is dropped.
  void untune(ListenerId id, std::uint32_t shard) {
    audience_.untune(id, shard);
  }
  /// Queue a module read for tuned listener `read.id` on `shard`, from
  /// that shard's thread; see Audience::read.
  void read(std::uint32_t shard, const ModuleRead& read) {
    audience_.read(shard, read);
  }
  /// Read between windows.
  [[nodiscard]] std::size_t tuned_count() const {
    return audience_.tuned_count();
  }
  /// Module reads queued and not yet due; read between windows.
  [[nodiscard]] std::size_t reads_pending() const {
    return audience_.reads_pending();
  }
  /// Per-listener announcements so far (one per tuned listener per commit,
  /// plus one per tune while on air); read between windows.
  [[nodiscard]] std::uint64_t announcements() const {
    return audience_.announcements();
  }
  /// When, after a commit of `generation`, listener `id` on its
  /// `ordinal`-th tune acquires the signalling.
  [[nodiscard]] sim::SimTime announcement_phase(std::uint64_t generation,
                                                ListenerId id,
                                                std::uint32_t ordinal) const {
    return audience_.phase(generation, id, ordinal);
  }
  /// Attach the sharded kernel: each shard's listeners are announced on
  /// their own shard. Call before any tune or commit.
  void set_sharded(sim::ShardedSimulation& sharded) {
    audience_.set_sharded(sharded);
  }

  /// Upper-bound estimate of how long a willing receiver needs to acquire
  /// everything currently on air — the Controller waits this long before
  /// concluding a wakeup was ignored rather than still in flight.
  [[nodiscard]] virtual double acquisition_horizon_seconds() const = 0;

  // --- observability ----------------------------------------------------------
  /// Attach shared broadcast counters (commits, staged/removed files).
  /// nullptr detaches. The cells must outlive the medium; all media of one
  /// system may share one block, since they all run on the control shard.
  void set_counters(obs::BroadcastCounters* counters) { counters_ = counters; }

  /// Attach a flight recorder: every commit() is emitted as an
  /// infrastructure-level carousel.commit event (the broadcast plane is
  /// one-to-many, so cycle events are not tied to a single trace).
  /// nullptr detaches.
  void set_recorder(obs::FlightRecorder* recorder) { recorder_ = recorder; }

 protected:
  /// Listeners hear each commit `repetition * U(key)` after it; `seed`
  /// keys that phase and the readers' draws.
  BroadcastMedium(sim::Simulation& simulation, std::uint64_t seed,
                  sim::SimTime repetition)
      : audience_(simulation, seed, repetition),
        read_seed_(util::stream_seed(seed, "broadcast.read")) {}

  /// Freeze `capsule` (its snapshot is the new generation) as what is on
  /// air and announce it to every tuned listener.
  void publish(SignallingCapsule capsule) {
    capsule.read_seed = read_seed_;
    on_air_ = std::make_shared<const SignallingCapsule>(std::move(capsule));
    audience_.commit(on_air_);
  }

  Audience audience_;
  obs::BroadcastCounters* counters_ = nullptr;
  obs::FlightRecorder* recorder_ = nullptr;

 private:
  std::uint64_t read_seed_;
  std::shared_ptr<const SignallingCapsule> on_air_;
};

}  // namespace oddci::broadcast
