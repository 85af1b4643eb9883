#pragma once

#include <map>
#include <optional>
#include <string>

#include "broadcast/medium.hpp"
#include "sim/simulation.hpp"

/// IP-multicast content delivery (the OddCI-IPTV variant of Section 3.3).
///
/// Files are delivered as block-coded multicast sessions in the style of
/// FLUTE/ALC with fountain-like FEC: each staged file loops continuously on
/// its own session, the total capacity split equally across active
/// sessions. Two modelling differences from the DSM-CC carousel matter:
///
///  * **No phase wait.** A receiver can start collecting coded blocks at
///    any point of the loop and decodes after receiving size*(1+fec)
///    worth of them — acquisition is size/rate, not the carousel's
///    0.5-cycle wait + full read (so wakeup ~ I/beta instead of 1.5 I/beta).
///  * **Graceful loss.** A lost block is just another block to collect:
///    loss p inflates acquisition by 1/(1-p) instead of costing whole
///    extra carousel cycles.
///
/// Signalling (the AIT analogue) is a session announcement repeated every
/// `announce_repetition`, giving each tuned receiver its own phase before
/// it reacts to a commit — the same Audience as the DTV tables. Each commit
/// freezes a capsule carrying every session's acquisition seconds, so
/// receivers on any shard compute reads from it.
namespace oddci::broadcast {

struct MulticastOptions {
  /// FEC/coding overhead: extra fraction of the file size that must be
  /// received before decoding succeeds.
  double fec_overhead = 0.05;
  /// i.i.d. block loss probability.
  double block_loss = 0.0;
  /// IGMP join + first-block latency.
  sim::SimTime join_latency = sim::SimTime::from_millis(150);
  /// Repetition period of the session announcements.
  sim::SimTime announce_repetition = sim::SimTime::from_millis(500);

  void validate() const;
};

class MulticastChannel final : public BroadcastMedium {
 public:
  /// `capacity` is the total multicast bandwidth available to OddCI
  /// content (the beta analogue), split equally across staged files.
  MulticastChannel(sim::Simulation& simulation, util::BitRate capacity,
                   std::uint64_t seed, MulticastOptions options = {});

  [[nodiscard]] util::BitRate capacity() const { return capacity_; }

  // --- BroadcastMedium --------------------------------------------------------
  Ait& ait() override { return ait_; }
  void put_file(const std::string& name, util::Bits size,
                std::uint64_t content_id) override;
  bool remove_file(const std::string& name) override;
  std::uint64_t commit() override;
  [[nodiscard]] const CarouselSnapshot& current() const override {
    return active_;
  }
  [[nodiscard]] double acquisition_horizon_seconds() const override;

  /// Deterministic expected acquisition time for a file (no jitter term).
  [[nodiscard]] std::optional<double> acquisition_seconds(
      const std::string& name) const;

 private:
  [[nodiscard]] double session_rate_bps(const CarouselFile& file) const;

  sim::Simulation& simulation_;
  util::BitRate capacity_;
  MulticastOptions options_;

  Ait ait_;
  std::map<std::string, CarouselFile> staged_;
  CarouselSnapshot active_;
  std::uint64_t next_generation_ = 1;
};

}  // namespace oddci::broadcast
