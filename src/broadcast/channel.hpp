#pragma once

#include <cstdint>

#include "broadcast/ait.hpp"
#include "broadcast/carousel.hpp"
#include "broadcast/medium.hpp"
#include "broadcast/transport_stream.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

/// One broadcast (TV) channel: a transport stream carrying A/V elementary
/// streams, PSI/SI signalling (including the AIT) and a DSM-CC object
/// carousel on the unused capacity.
///
/// Receivers `tune()` in and are notified whenever new signalling starts to
/// be transmitted. Acquisition is not instantaneous: tables repeat with a
/// configurable period, so each receiver observes a change after its own
/// phase delay in [0, repetition_period) — this models the real spread in
/// trigger-application launch times across a population of set-top boxes.
namespace oddci::broadcast {

class BroadcastChannel final : public BroadcastMedium {
 public:
  BroadcastChannel(sim::Simulation& simulation, TransportStream transport,
                   std::uint64_t seed,
                   sim::SimTime table_repetition =
                       sim::SimTime::from_millis(500));

  [[nodiscard]] const TransportStream& transport() const { return transport_; }
  [[nodiscard]] util::BitRate carousel_rate() const {
    return transport_.unused();
  }

  /// Staging interface: mutate the AIT and carousel contents, then commit.
  Ait& ait() override { return ait_; }
  ObjectCarousel& carousel() { return carousel_; }
  [[nodiscard]] const ObjectCarousel& carousel() const { return carousel_; }

  void put_file(const std::string& name, util::Bits size,
                std::uint64_t content_id) override {
    carousel_.put_file(name, size, content_id);
    if (counters_ != nullptr) ++counters_->files_staged;
  }
  bool remove_file(const std::string& name) override {
    const bool removed = carousel_.remove_file(name);
    if (removed && counters_ != nullptr) ++counters_->files_removed;
    return removed;
  }
  [[nodiscard]] const CarouselSnapshot& current() const override {
    return carousel_.current();
  }

  /// Atomically start transmitting the staged carousel and current AIT.
  /// Every tuned listener acquires the capsule frozen here (signalling,
  /// snapshot and section-loss model) after its own phase delay. Returns
  /// the new carousel generation.
  std::uint64_t commit() override;

  /// Mean acquisition is 1.5 cycles; by two full cycles a clean-channel
  /// receiver has certainly seen every module once.
  [[nodiscard]] double acquisition_horizon_seconds() const override {
    if (!carousel_.has_committed()) return 0.0;
    return 2.0 * carousel_.current().cycle_seconds();
  }

  /// Broadcast reception is not loss-free: model an i.i.d. per-section
  /// loss probability (DSM-CC sections are ~4 KB). Receivers accumulate
  /// sections across cycles, so a lost section costs one extra carousel
  /// cycle for that section; a file completes when its last section lands
  /// (SignallingCapsule::ready_at). Takes effect at the next commit.
  /// Default 0 (clean channel).
  void set_section_loss(
      double per_section_loss,
      util::Bits section_size = util::Bits::from_kilobytes(4));
  [[nodiscard]] double section_loss() const { return section_loss_; }

  [[nodiscard]] std::uint64_t commits() const { return commit_count_; }

 private:
  sim::Simulation& simulation_;
  TransportStream transport_;
  Ait ait_;
  ObjectCarousel carousel_;
  double section_loss_ = 0.0;
  util::Bits section_size_ = util::Bits::from_kilobytes(4);
  /// Draws each generation's cycle rotation, on the control shard.
  util::Random rng_;
  std::uint64_t commit_count_ = 0;
};

}  // namespace oddci::broadcast
