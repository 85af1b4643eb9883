#include "obs/sampler.hpp"

#include <stdexcept>

namespace oddci::obs {

void Sampler::Options::validate() const {
  if (interval <= sim::SimTime::zero()) {
    throw std::invalid_argument("Sampler: interval must be > 0");
  }
  if (max_points == 0) {
    throw std::invalid_argument("Sampler: max_points must be > 0");
  }
}

Sampler::Sampler(sim::ShardedSimulation& sharded, MetricsRegistry& registry)
    : Sampler(sharded, registry, Options{}) {}

Sampler::Sampler(sim::ShardedSimulation& sharded, MetricsRegistry& registry,
                 Options options)
    : sharded_(sharded), registry_(registry), options_(options) {
  options_.validate();
}

Sampler::~Sampler() { stop(); }

void Sampler::add_gauge_series(std::string_view name,
                               std::function<double()> probe) {
  if (running_) {
    throw std::logic_error("Sampler: register probes before start()");
  }
  TimeSeries& series = registry_.series(name, options_.max_points);
  gauges_.push_back(GaugeProbe{&series, std::move(probe)});
}

void Sampler::add_rate_series(std::string_view name,
                              std::function<std::uint64_t()> fn) {
  if (running_) {
    throw std::logic_error("Sampler: register probes before start()");
  }
  TimeSeries& series = registry_.series(name, options_.max_points);
  const std::uint64_t initial = fn();
  rates_.push_back(RateProbe{&series, std::move(fn), initial});
}

void Sampler::start() {
  if (running_) return;
  running_ = true;
  // The requested times stay on the interval grid; each tick fires at the
  // first window boundary >= its slot, which is deterministic for a fixed
  // K (a lone shard has a boundary at every instant).
  next_tick_at_ = sharded_.now() + options_.interval;
  schedule_tick();
}

void Sampler::schedule_tick() {
  sharded_.post_global(0, next_tick_at_, [this, generation = generation_] {
    if (generation != generation_) return;  // stopped since
    tick();
    next_tick_at_ = next_tick_at_ + options_.interval;
    schedule_tick();
  });
}

void Sampler::stop() {
  if (!running_) return;
  running_ = false;
  ++generation_;
}

void Sampler::tick() {
  ++ticks_;
  const double now = sharded_.now().seconds();
  for (auto& probe : gauges_) {
    probe.series->record(now, probe.fn());
  }
  const double dt = options_.interval.seconds();
  for (auto& probe : rates_) {
    const std::uint64_t value = probe.fn();
    probe.series->record(
        now, static_cast<double>(value - probe.last) / dt);
    probe.last = value;
  }
  if (on_tick_) on_tick_();
}

}  // namespace oddci::obs
