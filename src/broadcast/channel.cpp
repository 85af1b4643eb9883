#include "broadcast/channel.hpp"

#include <algorithm>
#include <cmath>
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
  std::shared_ptr<const SignallingCapsule> capsule;
  if (audience_.shard_count() > 1) {
    // Freeze this generation's signalling once; every shard's listeners
    // share the same immutable capsule.
    capsule = std::make_shared<const SignallingCapsule>(SignallingCapsule{
        ait_, carousel_.current(), section_loss_, section_size_});
  }
  audience_.commit(generation, std::move(capsule));
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

double section_loss_extra_cycles(const CarouselFile& file, double p,
                                 util::Bits section_size, double u) {
  const auto sections = static_cast<double>(
      (file.size.count() + section_size.count() - 1) / section_size.count());
  const double root = std::pow(u, 1.0 / sections);
  double passes = 1.0;
  if (root < 1.0) {
    passes = std::ceil(std::log1p(-root) / std::log(p));
    passes = std::max(passes, 1.0);
  }
  return passes - 1.0;
}

std::optional<sim::SimTime> BroadcastChannel::file_ready_at(
    const std::string& name, sim::SimTime listen_from) {
  auto base = carousel_.read_completion_time(name, listen_from);
  if (!base || section_loss_ <= 0.0) return base;

  const CarouselFile* file = carousel_.current().find(name);
  const double u = rng_.uniform();
  const double extra_cycles =
      section_loss_extra_cycles(*file, section_loss_, section_size_, u);
  return *base + sim::SimTime::from_seconds(
                     extra_cycles * carousel_.current().cycle_seconds());
}

}  // namespace oddci::broadcast
