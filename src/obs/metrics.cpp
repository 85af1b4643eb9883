#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace oddci::obs {

// --- LogHistogram -----------------------------------------------------------

LogHistogram::LogHistogram(double min_value) : min_value_(min_value) {
  if (!(min_value > 0.0)) {
    throw std::invalid_argument("LogHistogram: min_value must be > 0");
  }
  counts_.assign(kBucketCount, 0);
}

std::size_t LogHistogram::bucket_index(double x, double min_value) noexcept {
  if (!(x >= min_value)) return 0;  // sub-floor, zero, negative and NaN
  // frexp leaves the exponent unspecified for infinities; they belong in
  // the overflow bucket with every other oversized sample.
  if (std::isinf(x)) return kBucketCount - 1;
  int exp = 0;
  // x/min in [1, inf): frexp yields f in [0.5, 1) with f * 2^exp, so
  // exp >= 1 and bucket i covers ratios in [2^(i-1), 2^i).
  (void)std::frexp(x / min_value, &exp);
  const auto idx = static_cast<std::size_t>(exp);
  return std::min(idx, kBucketCount - 1);
}

void LogHistogram::record(double x) noexcept {
  ++counts_[bucket_index(x, min_value_)];
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
}

double LogHistogram::bucket_lo(std::size_t i) const {
  if (i >= kBucketCount) throw std::out_of_range("LogHistogram: bucket index");
  if (i == 0) return 0.0;
  return min_value_ * std::ldexp(1.0, static_cast<int>(i) - 1);
}

double LogHistogram::bucket_hi(std::size_t i) const {
  if (i >= kBucketCount) throw std::out_of_range("LogHistogram: bucket index");
  if (i == kBucketCount - 1) {
    return std::numeric_limits<double>::infinity();
  }
  return min_value_ * std::ldexp(1.0, static_cast<int>(i));
}

double LogHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  if (q <= 0.0) return min_;
  if (q >= 1.0) return max_;
  const double rank = q * static_cast<double>(count_);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    if (counts_[i] == 0) continue;
    const auto next = seen + counts_[i];
    if (rank <= static_cast<double>(next)) {
      const double lo = std::max(bucket_lo(i), min_);
      const double hi = std::min(
          i + 1 == kBucketCount ? max_ : bucket_hi(i), max_);
      const double within =
          (rank - static_cast<double>(seen)) /
          static_cast<double>(counts_[i]);
      return lo + (std::max(hi, lo) - lo) * within;
    }
    seen = next;
  }
  return max_;
}

void LogHistogram::reset() noexcept {
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
}

// --- TimeSeries -------------------------------------------------------------

TimeSeries::TimeSeries(std::size_t max_points) : max_points_(max_points) {}

void TimeSeries::record(double t_seconds, double value) {
  if (times_.size() >= max_points_) {
    ++dropped_;
    return;
  }
  times_.push_back(t_seconds);
  values_.push_back(value);
}

// --- MetricsSnapshot --------------------------------------------------------

double histogram_quantile(const HistogramSample& sample, double q) {
  if (sample.count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  if (q <= 0.0) return sample.min;
  if (q >= 1.0) return sample.max;
  const std::size_t n = sample.buckets.size();
  const double rank = q * static_cast<double>(sample.count);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (sample.buckets[i] == 0) continue;
    const std::uint64_t next = seen + sample.buckets[i];
    if (rank <= static_cast<double>(next)) {
      const double bucket_lo =
          i == 0 ? 0.0
                 : sample.min_value * std::ldexp(1.0, static_cast<int>(i) - 1);
      const double bucket_hi =
          i + 1 >= n ? sample.max
                     : sample.min_value * std::ldexp(1.0, static_cast<int>(i));
      const double lo = std::max(bucket_lo, sample.min);
      const double hi = std::min(bucket_hi, sample.max);
      const double within = (rank - static_cast<double>(seen)) /
                            static_cast<double>(sample.buckets[i]);
      return lo + (std::max(hi, lo) - lo) * within;
    }
    seen = next;
  }
  return sample.max;
}

namespace {

template <typename Sample>
const Sample* find_by_name(const std::vector<Sample>& samples,
                           std::string_view name) {
  for (const auto& s : samples) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

}  // namespace

const CounterSample* MetricsSnapshot::find_counter(
    std::string_view name) const {
  return find_by_name(counters, name);
}

const GaugeSample* MetricsSnapshot::find_gauge(std::string_view name) const {
  return find_by_name(gauges, name);
}

const HistogramSample* MetricsSnapshot::find_histogram(
    std::string_view name) const {
  return find_by_name(histograms, name);
}

const SeriesSample* MetricsSnapshot::find_series(std::string_view name) const {
  return find_by_name(series, name);
}

std::uint64_t MetricsSnapshot::counter_value(std::string_view name,
                                             std::uint64_t fallback) const {
  const auto* c = find_counter(name);
  return c != nullptr ? c->value : fallback;
}

// --- MetricsRegistry --------------------------------------------------------

Counter& MetricsRegistry::counter(std::string_view name) {
  auto it = counters_.find(name);
  if (it != counters_.end()) {
    // Owned cells are handed back for re-use; a name linked to a foreign
    // cell cannot be re-registered as owned.
    return const_cast<Counter&>(*it->second);
  }
  Counter& cell = owned_counters_.emplace_back();
  counters_.emplace(std::string(name), &cell);
  return cell;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  auto it = gauges_.find(name);
  if (it != gauges_.end()) return *it->second;
  Gauge& cell = owned_gauges_.emplace_back();
  gauges_.emplace(std::string(name), &cell);
  return cell;
}

LogHistogram& MetricsRegistry::histogram(std::string_view name,
                                         double min_value) {
  auto it = histograms_.find(name);
  if (it != histograms_.end()) {
    return const_cast<LogHistogram&>(*it->second);
  }
  LogHistogram& hist = owned_histograms_.emplace_back(min_value);
  histograms_.emplace(std::string(name), &hist);
  return hist;
}

TimeSeries& MetricsRegistry::series(std::string_view name,
                                    std::size_t max_points) {
  auto it = series_.find(name);
  if (it != series_.end()) return *it->second;
  TimeSeries& s = owned_series_.emplace_back(max_points);
  series_.emplace(std::string(name), &s);
  return s;
}

void MetricsRegistry::link_counter(std::string_view name,
                                   const Counter& cell) {
  counters_.insert_or_assign(std::string(name), &cell);
}

void MetricsRegistry::link_histogram(std::string_view name,
                                     const LogHistogram& hist) {
  histograms_.insert_or_assign(std::string(name), &hist);
}

void MetricsRegistry::link_probe(std::string_view name,
                                 std::function<double()> probe) {
  probes_.insert_or_assign(std::string(name), std::move(probe));
}

void MetricsRegistry::link_counter_fn(std::string_view name,
                                      std::function<std::uint64_t()> fn) {
  counter_fns_.insert_or_assign(std::string(name), std::move(fn));
}

void MetricsRegistry::link_histogram_set(
    std::string_view name, std::vector<const LogHistogram*> set) {
  histogram_sets_.insert_or_assign(std::string(name), std::move(set));
}

bool MetricsRegistry::has(std::string_view name) const {
  return counters_.count(name) > 0 || gauges_.count(name) > 0 ||
         histograms_.count(name) > 0 || series_.count(name) > 0 ||
         probes_.count(name) > 0 || counter_fns_.count(name) > 0 ||
         histogram_sets_.count(name) > 0;
}

void MetricsRegistry::record_span(std::string_view name, std::uint64_t key,
                                  double start_seconds, double end_seconds) {
  if (spans_.size() >= max_spans_) {
    ++spans_dropped_;
    return;
  }
  spans_.push_back(
      SpanSample{std::string(name), key, start_seconds, end_seconds});
}

MetricsSnapshot MetricsRegistry::snapshot(double now_seconds) const {
  MetricsSnapshot snap;
  snap.taken_at_seconds = now_seconds;

  snap.counters.reserve(counters_.size() + counter_fns_.size());
  for (const auto& [name, cell] : counters_) {
    if (counter_fns_.count(name) > 0) continue;  // shadowed by a merged link
    snap.counters.push_back(CounterSample{name, cell->value()});
  }
  for (const auto& [name, fn] : counter_fns_) {
    snap.counters.push_back(CounterSample{name, fn()});
  }
  std::sort(snap.counters.begin(), snap.counters.end(),
            [](const CounterSample& a, const CounterSample& b) {
              return a.name < b.name;
            });

  snap.gauges.reserve(gauges_.size() + probes_.size());
  for (const auto& [name, cell] : gauges_) {
    snap.gauges.push_back(GaugeSample{name, cell->value()});
  }
  for (const auto& [name, probe] : probes_) {
    snap.gauges.push_back(GaugeSample{name, probe()});
  }
  std::sort(snap.gauges.begin(), snap.gauges.end(),
            [](const GaugeSample& a, const GaugeSample& b) {
              return a.name < b.name;
            });

  snap.histograms.reserve(histograms_.size() + histogram_sets_.size());
  for (const auto& [name, hist] : histograms_) {
    if (histogram_sets_.count(name) > 0) continue;  // shadowed
    HistogramSample h;
    h.name = name;
    h.min_value = hist->min_value();
    h.count = hist->count();
    h.sum = hist->sum();
    h.min = hist->min();
    h.max = hist->max();
    h.buckets.reserve(LogHistogram::kBucketCount);
    for (std::size_t i = 0; i < LogHistogram::kBucketCount; ++i) {
      h.buckets.push_back(hist->bucket(i));
    }
    snap.histograms.push_back(std::move(h));
  }
  for (const auto& [name, set] : histogram_sets_) {
    HistogramSample h;
    h.name = name;
    h.buckets.assign(LogHistogram::kBucketCount, 0);
    for (const LogHistogram* hist : set) {
      if (h.min_value == 0.0) h.min_value = hist->min_value();
      if (hist->count() > 0) {
        h.min = h.count > 0 ? std::min(h.min, hist->min()) : hist->min();
        h.max = h.count > 0 ? std::max(h.max, hist->max()) : hist->max();
      }
      h.count += hist->count();
      h.sum += hist->sum();
      for (std::size_t i = 0; i < LogHistogram::kBucketCount; ++i) {
        h.buckets[i] += hist->bucket(i);
      }
    }
    snap.histograms.push_back(std::move(h));
  }
  std::sort(snap.histograms.begin(), snap.histograms.end(),
            [](const HistogramSample& a, const HistogramSample& b) {
              return a.name < b.name;
            });

  snap.series.reserve(series_.size());
  for (const auto& [name, s] : series_) {
    snap.series.push_back(
        SeriesSample{name, s->dropped(), s->times(), s->values()});
  }

  snap.spans = spans_;
  return snap;
}

// --- shared instrument blocks ----------------------------------------------

void BroadcastCounters::link(MetricsRegistry& registry) const {
  registry.link_counter("broadcast.commits", commits);
  registry.link_counter("broadcast.files_staged", files_staged);
  registry.link_counter("broadcast.files_removed", files_removed);
}

}  // namespace oddci::obs
