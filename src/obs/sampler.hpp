#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/sharded.hpp"

/// Sim-time sampler: a chain of global tasks on the sharded kernel that
/// reads a set of probes every `interval` of simulated time and appends
/// the values to named `TimeSeries` in the registry. Each tick runs with
/// every shard parked (at the start of its instant on a lone shard), so
/// probes may read state spanning shards. Probes are registered once,
/// before start(); each tick is a plain loop over preallocated closures —
/// no allocation, no RNG, so two runs of the same seeded scenario produce
/// bit-identical series.
namespace oddci::obs {

class Sampler {
 public:
  struct Options {
    sim::SimTime interval = sim::SimTime::from_seconds(10);
    std::size_t max_points = 1 << 16;

    void validate() const;
  };

  /// The sampler must outlive the kernel's run loop.
  Sampler(sim::ShardedSimulation& sharded, MetricsRegistry& registry);
  Sampler(sim::ShardedSimulation& sharded, MetricsRegistry& registry,
          Options options);
  ~Sampler();

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Record probe() at every tick (levels: pool sizes, queue depths).
  void add_gauge_series(std::string_view name, std::function<double()> probe);

  /// Record the per-second rate of the monotone count `fn` reads over the
  /// last interval (counter deltas: heartbeat rate, delivery rate). A
  /// reader, not a cell, so per-shard cells can be merged under one name.
  void add_rate_series(std::string_view name,
                       std::function<std::uint64_t()> fn);

  /// Side hook invoked after the probes at every tick — the system hangs
  /// periodic health audits here, reusing the sampler's tick points (all
  /// shards parked). The hook must not schedule events or mutate sim
  /// state. Call before start(); null disables.
  void set_on_tick(std::function<void()> hook) { on_tick_ = std::move(hook); }

  /// First tick is due one interval from now; each fires at the first
  /// window boundary at or after its slot on the interval grid.
  void start();
  void stop();
  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }
  [[nodiscard]] sim::SimTime interval() const { return options_.interval; }

 private:
  void tick();

  struct GaugeProbe {
    TimeSeries* series;
    std::function<double()> fn;
  };
  struct RateProbe {
    TimeSeries* series;
    std::function<std::uint64_t()> fn;
    std::uint64_t last = 0;
  };

  void schedule_tick();

  sim::ShardedSimulation& sharded_;
  MetricsRegistry& registry_;
  Options options_;
  std::vector<GaugeProbe> gauges_;
  std::vector<RateProbe> rates_;
  std::function<void()> on_tick_;
  sim::SimTime next_tick_at_;
  bool running_ = false;
  /// Bumped by stop(): a tick still queued from before a stop() finds a
  /// stale generation and ends its chain, so a restart never doubles up.
  std::uint64_t generation_ = 0;
  std::uint64_t ticks_ = 0;
};

}  // namespace oddci::obs
