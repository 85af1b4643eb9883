#include "broadcast/channel.hpp"

#include <stdexcept>

namespace oddci::broadcast {

BroadcastChannel::BroadcastChannel(sim::Simulation& simulation,
                                   TransportStream transport,
                                   std::uint64_t seed,
                                   sim::SimTime table_repetition)
    : BroadcastMedium(simulation, seed, table_repetition),
      simulation_(simulation),
      transport_(std::move(transport)),
      carousel_(transport_.unused()),
      rng_(seed) {}

std::uint64_t BroadcastChannel::commit() {
  carousel_.set_rate(transport_.unused());
  // Continuous-multiplex semantics: the new generation picks up at a
  // random rotation of its cycle (the stream never "restarts"), which is
  // what gives acquisition its half-cycle average wait.
  const std::int64_t phase =
      static_cast<std::int64_t>(rng_.engine().next() >> 1);
  const std::uint64_t generation =
      carousel_.commit(simulation_.now(), phase);
  ++commit_count_;
  if (counters_ != nullptr) ++counters_->commits;
  if (recorder_ != nullptr) {
    recorder_->emit(simulation_.now(),
                    obs::TraceEventKind::kCarouselCommit,
                    obs::TraceComponent::kCarousel, {}, generation,
                    carousel_.current().files.size());
  }
  publish({.ait = ait_,
           .snapshot = carousel_.current(),
           .section_loss = section_loss_,
           .section_size = section_size_});
  return generation;
}

void BroadcastChannel::set_section_loss(double per_section_loss,
                                        util::Bits section_size) {
  if (per_section_loss < 0.0 || per_section_loss >= 1.0) {
    throw std::invalid_argument(
        "BroadcastChannel: section loss must be in [0, 1)");
  }
  if (section_size.count() <= 0) {
    throw std::invalid_argument(
        "BroadcastChannel: section size must be positive");
  }
  section_loss_ = per_section_loss;
  section_size_ = section_size;
}

}  // namespace oddci::broadcast
