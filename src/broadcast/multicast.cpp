#include "broadcast/multicast.hpp"

#include <algorithm>
#include <stdexcept>

namespace oddci::broadcast {

void MulticastOptions::validate() const {
  if (fec_overhead < 0.0) {
    throw std::invalid_argument("MulticastOptions: negative FEC overhead");
  }
  if (block_loss < 0.0 || block_loss >= 1.0) {
    throw std::invalid_argument(
        "MulticastOptions: block loss must be in [0, 1)");
  }
  if (join_latency < sim::SimTime::zero()) {
    throw std::invalid_argument("MulticastOptions: negative join latency");
  }
  if (announce_repetition <= sim::SimTime::zero()) {
    throw std::invalid_argument(
        "MulticastOptions: announce repetition must be positive");
  }
}

MulticastChannel::MulticastChannel(sim::Simulation& simulation,
                                   util::BitRate capacity,
                                   std::uint64_t seed,
                                   MulticastOptions options)
    : BroadcastMedium(simulation, seed, options.announce_repetition),
      simulation_(simulation),
      capacity_(capacity),
      options_(options) {
  if (capacity.bps() <= 0.0) {
    throw std::invalid_argument("MulticastChannel: capacity must be > 0");
  }
  options_.validate();
}

void MulticastChannel::put_file(const std::string& name, util::Bits size,
                                std::uint64_t content_id) {
  if (name.empty()) {
    throw std::invalid_argument("MulticastChannel: empty file name");
  }
  if (size.count() <= 0) {
    throw std::invalid_argument("MulticastChannel: file size must be > 0");
  }
  auto it = staged_.find(name);
  if (it != staged_.end()) {
    it->second.size = size;
    it->second.content_id = content_id;
    ++it->second.version;
  } else {
    staged_.emplace(name, CarouselFile{name, size, 1, content_id});
  }
  if (counters_ != nullptr) ++counters_->files_staged;
}

bool MulticastChannel::remove_file(const std::string& name) {
  const bool removed = staged_.erase(name) > 0;
  if (removed && counters_ != nullptr) ++counters_->files_removed;
  return removed;
}

std::uint64_t MulticastChannel::commit() {
  active_.generation = next_generation_++;
  active_.epoch = simulation_.now();
  active_.rate = capacity_;
  active_.phase_bits = 0;  // block coding: phase is meaningless
  active_.files.clear();
  active_.files.reserve(staged_.size());
  for (const auto& [name, file] : staged_) {
    active_.files.push_back(file);
  }
  if (counters_ != nullptr) ++counters_->commits;
  if (recorder_ != nullptr) {
    recorder_->emit(simulation_.now(),
                    obs::TraceEventKind::kCarouselCommit,
                    obs::TraceComponent::kCarousel, {}, active_.generation,
                    active_.files.size());
  }
  std::vector<double> seconds;
  for (const CarouselFile& file : active_.files) {
    seconds.push_back(*acquisition_seconds(file.name));
  }
  publish({.ait = ait_, .snapshot = active_, .session_seconds = std::move(seconds)});
  return active_.generation;
}

double MulticastChannel::session_rate_bps(const CarouselFile& file) const {
  // Sessions are sized proportionally to their content, with a small floor
  // so tiny signalling files still repeat at a useful rate (the usual
  // FLUTE deployment pattern). Shares are normalized so the multiplex is
  // never oversubscribed.
  constexpr double kMinShare = 0.02;
  const double total =
      static_cast<double>(active_.total_size().count());
  double share_sum = 0.0;
  double my_share = kMinShare;
  for (const auto& f : active_.files) {
    const double share =
        std::max(kMinShare, static_cast<double>(f.size.count()) / total);
    share_sum += share;
    if (f.name == file.name) my_share = share;
  }
  if (share_sum <= 0.0) return capacity_.bps();
  return capacity_.bps() * my_share / share_sum;
}

std::optional<double> MulticastChannel::acquisition_seconds(
    const std::string& name) const {
  const CarouselFile* file = active_.find(name);
  if (file == nullptr) return std::nullopt;
  const double effective_rate =
      session_rate_bps(*file) * (1.0 - options_.block_loss);
  const double bits =
      static_cast<double>(file->size.count()) * (1.0 + options_.fec_overhead);
  return options_.join_latency.seconds() + bits / effective_rate;
}

double MulticastChannel::acquisition_horizon_seconds() const {
  double horizon = 0.0;
  for (const auto& file : active_.files) {
    horizon = std::max(horizon, acquisition_seconds(file.name).value_or(0.0));
  }
  return 2.0 * horizon;
}

}  // namespace oddci::broadcast
