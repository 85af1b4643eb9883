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

Sampler::Sampler(sim::Simulation& simulation, MetricsRegistry& registry)
    : Sampler(simulation, registry, Options{}) {}

Sampler::Sampler(sim::Simulation& simulation, MetricsRegistry& registry,
                 Options options)
    : simulation_(simulation), registry_(registry), options_(options) {
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
  if (sharded_ != nullptr && sharded_->shard_count() > 1) {
    // Tick on the coordinator at window boundaries so probes may read
    // cross-shard state with every worker parked. The requested times
    // stay on the interval grid; each actually fires at the first
    // boundary >= its slot, which is deterministic for a fixed K.
    next_tick_at_ = simulation_.now() + options_.interval;
    schedule_global_tick();
    return;
  }
  task_ = sim::PeriodicTask(simulation_,
                            simulation_.now() + options_.interval,
                            options_.interval, [this] { tick(); });
}

void Sampler::schedule_global_tick() {
  sharded_->post_global(0, next_tick_at_, [this] {
    if (!running_) return;
    tick();
    next_tick_at_ = next_tick_at_ + options_.interval;
    schedule_global_tick();
  });
}

void Sampler::stop() {
  if (!running_) return;
  task_.cancel();
  running_ = false;
}

void Sampler::tick() {
  ++ticks_;
  const double now = simulation_.now().seconds();
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
