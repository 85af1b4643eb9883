#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

/// Observability: named counters, gauges, log-bucketed latency histograms
/// and sim-time-stamped series, collected through a `MetricsRegistry`.
///
/// Design contract (the overhead budget of the simulation hot path):
///
///  * metric cells are plain `std::uint64_t` / `double` slots owned either
///    by the instrumented component itself or by the registry; updating one
///    is a single arithmetic instruction plus (for histograms) a cheap
///    bucket-index computation — no allocation, no locking, no map lookup;
///  * names are resolved exactly once, at registration/link time, never on
///    the update path;
///  * `snapshot()` walks the registered metrics and copies their current
///    values into a plain-data `MetricsSnapshot` that owns all its storage,
///    so a snapshot outlives the system that produced it.
///
/// Components expose their metrics by value (`obs::Counter` members) so
/// they stay fully functional when constructed standalone (unit tests);
/// the registry links those cells by pointer and the linked component must
/// outlive any `snapshot()` call.
namespace oddci::obs {

/// Monotonic event counter. A plain uint64 cell with a named home in the
/// registry; incrementing is as cheap as `++member`.
class Counter {
 public:
  constexpr Counter() = default;

  void inc(std::uint64_t n = 1) noexcept { value_ += n; }
  Counter& operator++() noexcept {
    ++value_;
    return *this;
  }
  Counter& operator+=(std::uint64_t n) noexcept {
    value_ += n;
    return *this;
  }

  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }
  void reset() noexcept { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-value gauge (instantaneous level, e.g. queue depth).
class Gauge {
 public:
  constexpr Gauge() = default;

  void set(double v) noexcept { value_ = v; }
  void add(double d) noexcept { value_ += d; }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

/// Log2-bucketed histogram for non-negative samples (latencies in
/// seconds). Bucket 0 absorbs everything below `min_value`; bucket i
/// (1 <= i < kBucketCount-1) covers [min_value * 2^(i-1), min_value * 2^i);
/// the last bucket is the overflow. With the default 1 microsecond floor
/// the top regular bucket starts beyond a simulated year, so overflow is
/// effectively unreachable for latency data.
class LogHistogram {
 public:
  static constexpr std::size_t kBucketCount = 48;

  explicit LogHistogram(double min_value = 1e-6);

  void record(double x) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }
  [[nodiscard]] double min() const noexcept { return count_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return count_ > 0 ? max_ : 0.0; }
  [[nodiscard]] double min_value() const noexcept { return min_value_; }

  [[nodiscard]] std::uint64_t bucket(std::size_t i) const {
    return counts_.at(i);
  }
  /// Lower/upper edge of bucket i (bucket 0 starts at 0; the last bucket
  /// has an infinite upper edge).
  [[nodiscard]] double bucket_lo(std::size_t i) const;
  [[nodiscard]] double bucket_hi(std::size_t i) const;

  /// Quantile estimate (q in [0,1]) by linear interpolation inside the
  /// bucket holding the target rank. Exact min/max at q = 0 / 1.
  [[nodiscard]] double quantile(double q) const;

  /// Bucket index for sample `x` (exposed for the bucketing tests).
  [[nodiscard]] static std::size_t bucket_index(double x,
                                                double min_value) noexcept;

  void reset() noexcept;

 private:
  double min_value_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::vector<std::uint64_t> counts_;
};

/// Append-only (time, value) series with a point cap: once full, further
/// points are counted as dropped instead of growing without bound on very
/// long simulations.
class TimeSeries {
 public:
  explicit TimeSeries(std::size_t max_points = 1 << 16);

  void record(double t_seconds, double value);

  [[nodiscard]] std::size_t size() const { return times_.size(); }
  [[nodiscard]] bool empty() const { return times_.empty(); }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] const std::vector<double>& times() const { return times_; }
  [[nodiscard]] const std::vector<double>& values() const { return values_; }

 private:
  std::size_t max_points_;
  std::uint64_t dropped_ = 0;
  std::vector<double> times_;
  std::vector<double> values_;
};

// --- snapshot ---------------------------------------------------------------

struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
  bool operator==(const CounterSample&) const = default;
};

struct GaugeSample {
  std::string name;
  double value = 0.0;
  bool operator==(const GaugeSample&) const = default;
};

struct HistogramSample {
  std::string name;
  double min_value = 0.0;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  /// Full bucket array (LogHistogram::kBucketCount entries).
  std::vector<std::uint64_t> buckets;
  bool operator==(const HistogramSample&) const = default;
};

/// Quantile estimate over an exported `HistogramSample`, mirroring
/// LogHistogram::quantile exactly: same power-of-two bucket geometry,
/// linear interpolation within the bucket, exact min/max at q <= 0 / >= 1.
/// 0.0 on an empty histogram.
[[nodiscard]] double histogram_quantile(const HistogramSample& sample,
                                        double q);

struct SeriesSample {
  std::string name;
  std::uint64_t dropped = 0;
  std::vector<double> times;
  std::vector<double> values;
  bool operator==(const SeriesSample&) const = default;
};

struct SpanSample {
  std::string name;
  std::uint64_t key = 0;
  double start_seconds = 0.0;
  double end_seconds = 0.0;
  bool operator==(const SpanSample&) const = default;
};

/// Plain-data copy of everything the registry knows, ordered by name so
/// exports are deterministic. Owns all its storage.
struct MetricsSnapshot {
  double taken_at_seconds = 0.0;
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
  std::vector<SeriesSample> series;
  std::vector<SpanSample> spans;

  [[nodiscard]] const CounterSample* find_counter(std::string_view name) const;
  [[nodiscard]] const GaugeSample* find_gauge(std::string_view name) const;
  [[nodiscard]] const HistogramSample* find_histogram(
      std::string_view name) const;
  [[nodiscard]] const SeriesSample* find_series(std::string_view name) const;

  /// Counter value by name, `fallback` if absent.
  [[nodiscard]] std::uint64_t counter_value(std::string_view name,
                                            std::uint64_t fallback = 0) const;

  bool operator==(const MetricsSnapshot&) const = default;
};

// --- registry ---------------------------------------------------------------

/// Name -> metric directory. Metrics are either *owned* (created via
/// counter()/gauge()/histogram()/series(); stable addresses for the life
/// of the registry) or *linked* (cells owned by a component that must
/// outlive snapshot() calls). Probes are lazy gauges evaluated at snapshot
/// time — for values that are cheap to compute but wasteful to maintain.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  LogHistogram& histogram(std::string_view name, double min_value = 1e-6);
  TimeSeries& series(std::string_view name, std::size_t max_points = 1 << 16);

  void link_counter(std::string_view name, const Counter& cell);
  void link_histogram(std::string_view name, const LogHistogram& hist);
  /// Evaluated at snapshot time; exported as a gauge.
  void link_probe(std::string_view name, std::function<double()> probe);

  /// Counter whose value is computed at snapshot time — used by the
  /// sharded kernel to merge per-shard cells under one name without
  /// putting an atomic on the update path. Shadows any direct link.
  void link_counter_fn(std::string_view name,
                       std::function<std::uint64_t()> fn);
  /// Histogram exported as the element-wise sum of several per-shard
  /// histograms (identical min_value expected). Shadows any direct link.
  void link_histogram_set(std::string_view name,
                          std::vector<const LogHistogram*> set);

  [[nodiscard]] bool has(std::string_view name) const;

  /// Record a completed trace span (bounded retention; see max_spans()).
  void record_span(std::string_view name, std::uint64_t key,
                   double start_seconds, double end_seconds);
  void set_max_spans(std::size_t n) { max_spans_ = n; }
  [[nodiscard]] std::size_t max_spans() const { return max_spans_; }
  [[nodiscard]] std::uint64_t spans_dropped() const { return spans_dropped_; }

  [[nodiscard]] MetricsSnapshot snapshot(double now_seconds) const;

 private:
  // Owned storage: deques so addresses stay stable as metrics register.
  std::deque<Counter> owned_counters_;
  std::deque<Gauge> owned_gauges_;
  std::deque<LogHistogram> owned_histograms_;
  std::deque<TimeSeries> owned_series_;

  // Name directories (ordered => deterministic snapshots/exports).
  std::map<std::string, const Counter*, std::less<>> counters_;
  std::map<std::string, Gauge*, std::less<>> gauges_;
  std::map<std::string, const LogHistogram*, std::less<>> histograms_;
  std::map<std::string, TimeSeries*, std::less<>> series_;
  std::map<std::string, std::function<double()>, std::less<>> probes_;
  std::map<std::string, std::function<std::uint64_t()>, std::less<>>
      counter_fns_;
  std::map<std::string, std::vector<const LogHistogram*>, std::less<>>
      histogram_sets_;

  std::vector<SpanSample> spans_;
  std::size_t max_spans_ = 4096;
  std::uint64_t spans_dropped_ = 0;
};

// --- shared instrument blocks ----------------------------------------------

/// Aggregate counters for a PNA population: every agent on one kernel
/// shard increments the same cells through a shared pointer in its
/// environment (agents keep no per-agent copy); the system registers each
/// cell merged over its shards.
struct PnaCounters {
  Counter control_messages_seen;
  Counter signature_failures;
  Counter wakeups_dropped_busy;
  Counter wakeups_rejected_requirements;
  Counter wakeups_dropped_probability;
  Counter joins;
  Counter resets;
  Counter tasks_completed;
  Counter heartbeats_sent;
  /// Beats deferred to a pacing-window slot (paced heartbeat mode only;
  /// registered only then, so unpaced snapshots carry no phantom cell).
  Counter heartbeats_paced;
  /// Results uploaded with a deliberately wrong digest (forgers and
  /// colluders) and tasks returned without computing (free-riders).
  /// Byzantine profiles only; registered only then, so honest-population
  /// snapshots carry no phantom cells.
  Counter results_forged;
  Counter results_freeridden;
};

/// Shared counters for all broadcast media of one system (carousel and
/// multicast channels alike), written on the control shard only. The
/// per-listener announcements are counted on each listener's shard
/// instead (BroadcastMedium::announcements()).
struct BroadcastCounters {
  Counter commits;
  Counter files_staged;
  Counter files_removed;

  void link(MetricsRegistry& registry) const;
};

}  // namespace oddci::obs
