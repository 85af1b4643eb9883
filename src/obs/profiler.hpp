#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

/// Kernel wall-clock profiler: where does real time go when the simulated
/// clock advances?
///
/// The profiler attributes wall time to four phases of the sharded kernel —
/// per-shard event *execute*, *barrier* stall (a shard parked at the window
/// fence while slower shards finish), coordinator mailbox *drain*, and
/// *global* tasks — plus window-utilization, mailbox-depth and a
/// load-imbalance index (max/mean shard busy time per window).
///
/// Determinism boundary: the profiler reads `steady_clock` and nothing
/// else. It never schedules events, never touches the metrics registry or
/// flight recorder, and never consumes randomness, so a seeded run's
/// metrics snapshot and Chrome trace are byte-identical with the profiler
/// on or off. Wall-clock data leaves the process only through its own
/// `oddci.profile.v1` export.
///
/// Layering: obs links sim, so sim cannot link obs. Every method the
/// kernel hot path calls is defined inline in this header, which includes
/// no sim headers — `sim/simulation.cpp` and `sim/sharded.cpp` include it
/// without creating a link edge. Only the snapshot/JSON code (profiler.cpp)
/// sees sim types.
///
/// Threading: `add_execute(shard, ...)` is written by that shard's worker
/// thread into a cache-line-padded cell; everything else is
/// coordinator-only. The coordinator reads the execute cells exclusively in
/// `on_window`, after the barrier's wait for the outstanding count to reach
/// zero: each worker's release decrement of that count follows its last
/// `add_execute`, and the coordinator's acquire load of zero provides the
/// happens-before edge.
namespace oddci::sim {
class ShardedSimulation;
}  // namespace oddci::sim

namespace oddci::obs {

inline constexpr std::string_view kProfileSchema = "oddci.profile.v1";

class KernelProfiler {
 public:
  explicit KernelProfiler(std::size_t shards)
      : exec_(shards == 0 ? 1 : shards),
        exec_seen_(exec_.size(), 0),
        barrier_nanos_(exec_.size(), 0) {}

  KernelProfiler(const KernelProfiler&) = delete;
  KernelProfiler& operator=(const KernelProfiler&) = delete;

  [[nodiscard]] static std::uint64_t now_nanos() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  [[nodiscard]] std::size_t shard_count() const { return exec_.size(); }

  // --- shard-thread side ----------------------------------------------------

  /// One timed batch of event execution on `shard` (a run/run_until/
  /// run_window call body). Cache-line-private per shard; no locks.
  void add_execute(std::size_t shard, std::uint64_t nanos) {
    ExecCell& cell = exec_[shard];
    cell.nanos += nanos;
    ++cell.calls;
  }

  // --- coordinator side -----------------------------------------------------

  void begin_run() { run_start_nanos_ = now_nanos(); }

  void end_run(std::int64_t sim_micros_advanced) {
    run_wall_nanos_ += now_nanos() - run_start_nanos_;
    ++runs_;
    if (sim_micros_advanced > 0) {
      sim_micros_ += static_cast<std::uint64_t>(sim_micros_advanced);
    }
  }

  /// One parallel window completed; `span_nanos` is the coordinator-measured
  /// wall span from worker release to the last shard finishing. Charges each
  /// shard's idle remainder (span minus its execute delta) to barrier stall
  /// and folds utilization / imbalance for this window.
  void on_window(std::uint64_t span_nanos) {
    ++windows_;
    window_span_nanos_ += span_nanos;
    const std::size_t k = exec_.size();
    std::uint64_t busy_sum = 0;
    std::uint64_t busy_max = 0;
    for (std::size_t i = 0; i < k; ++i) {
      const std::uint64_t total = exec_[i].nanos;
      const std::uint64_t delta = total - exec_seen_[i];
      exec_seen_[i] = total;
      busy_sum += delta;
      if (delta > busy_max) busy_max = delta;
      barrier_nanos_[i] += span_nanos > delta ? span_nanos - delta : 0;
    }
    if (span_nanos > 0) {
      util_sum_ += static_cast<double>(busy_sum) /
                   (static_cast<double>(k) * static_cast<double>(span_nanos));
      ++windows_spanned_;
    }
    if (busy_sum > 0) {
      const double mean =
          static_cast<double>(busy_sum) / static_cast<double>(k);
      const double ratio = static_cast<double>(busy_max) / mean;
      imbalance_sum_ += ratio;
      if (ratio > imbalance_max_) imbalance_max_ = ratio;
      ++windows_busy_;
    }
  }

  /// One drain pass: wall nanos spent moving mail (global-task time
  /// excluded by the caller) and the number of mailbox items moved.
  void add_drain(std::uint64_t nanos, std::uint64_t mail_items) {
    drain_nanos_ += nanos;
    ++drain_calls_;
    mail_items_ += mail_items;
    if (mail_items > mail_items_max_) mail_items_max_ = mail_items;
  }

  /// Global tasks executed during a drain: wall nanos and task count.
  void add_global(std::uint64_t nanos, std::uint64_t tasks) {
    global_nanos_ += nanos;
    global_tasks_ += tasks;
  }

  // --- accessors (snapshot side) --------------------------------------------

  [[nodiscard]] std::uint64_t execute_nanos(std::size_t shard) const {
    return exec_[shard].nanos;
  }
  [[nodiscard]] std::uint64_t execute_calls(std::size_t shard) const {
    return exec_[shard].calls;
  }
  [[nodiscard]] std::uint64_t barrier_nanos(std::size_t shard) const {
    return barrier_nanos_[shard];
  }
  [[nodiscard]] std::uint64_t run_wall_nanos() const { return run_wall_nanos_; }
  [[nodiscard]] std::uint64_t runs() const { return runs_; }
  [[nodiscard]] std::uint64_t sim_micros() const { return sim_micros_; }
  [[nodiscard]] std::uint64_t windows() const { return windows_; }
  [[nodiscard]] std::uint64_t window_span_nanos() const {
    return window_span_nanos_;
  }
  [[nodiscard]] std::uint64_t drain_nanos() const { return drain_nanos_; }
  [[nodiscard]] std::uint64_t drain_calls() const { return drain_calls_; }
  [[nodiscard]] std::uint64_t mail_items() const { return mail_items_; }
  [[nodiscard]] std::uint64_t mail_items_max() const { return mail_items_max_; }
  [[nodiscard]] std::uint64_t global_nanos() const { return global_nanos_; }
  [[nodiscard]] std::uint64_t global_tasks() const { return global_tasks_; }
  [[nodiscard]] double utilization_mean() const {
    return windows_spanned_ > 0
               ? util_sum_ / static_cast<double>(windows_spanned_)
               : 0.0;
  }
  [[nodiscard]] double imbalance_mean() const {
    return windows_busy_ > 0
               ? imbalance_sum_ / static_cast<double>(windows_busy_)
               : 0.0;
  }
  [[nodiscard]] double imbalance_max() const { return imbalance_max_; }

 private:
  struct alignas(64) ExecCell {
    std::uint64_t nanos = 0;
    std::uint64_t calls = 0;
  };

  // Written by shard worker threads, read by the coordinator at barriers.
  std::vector<ExecCell> exec_;

  // Coordinator-only state.
  std::vector<std::uint64_t> exec_seen_;
  std::vector<std::uint64_t> barrier_nanos_;
  std::uint64_t run_start_nanos_ = 0;
  std::uint64_t run_wall_nanos_ = 0;
  std::uint64_t runs_ = 0;
  std::uint64_t sim_micros_ = 0;
  std::uint64_t windows_ = 0;
  std::uint64_t windows_spanned_ = 0;
  std::uint64_t windows_busy_ = 0;
  std::uint64_t window_span_nanos_ = 0;
  std::uint64_t drain_nanos_ = 0;
  std::uint64_t drain_calls_ = 0;
  std::uint64_t mail_items_ = 0;
  std::uint64_t mail_items_max_ = 0;
  std::uint64_t global_nanos_ = 0;
  std::uint64_t global_tasks_ = 0;
  double util_sum_ = 0.0;
  double imbalance_sum_ = 0.0;
  double imbalance_max_ = 0.0;
};

// --- snapshot ---------------------------------------------------------------

/// Per-shard slice of a profile: wall phases plus the shard's kernel event
/// counters (filled when a kernel is supplied to `take_profile`).
struct ProfileShard {
  double execute_seconds = 0.0;
  std::uint64_t execute_calls = 0;
  double barrier_seconds = 0.0;
  std::uint64_t events_executed = 0;
  std::uint64_t events_scheduled = 0;
  std::uint64_t events_cancelled = 0;
  std::uint64_t events_pending = 0;
  /// Event slab chunks (4,096 slots each) the shard ended with: the
  /// high-water mark of its pending events.
  std::uint64_t event_chunks = 0;
  bool operator==(const ProfileShard&) const = default;
};

/// Plain-data profile export (`oddci.profile.v1`). Owns all its storage.
struct ProfileSnapshot {
  std::uint64_t shards = 1;
  double run_wall_seconds = 0.0;
  double sim_seconds = 0.0;
  std::uint64_t runs = 0;
  std::uint64_t windows = 0;
  double window_span_seconds = 0.0;
  double utilization_mean = 0.0;
  double imbalance_mean = 0.0;
  double imbalance_max = 0.0;
  double drain_seconds = 0.0;
  std::uint64_t drain_calls = 0;
  std::uint64_t mail_items = 0;
  std::uint64_t mail_items_max = 0;
  double global_seconds = 0.0;
  std::uint64_t global_tasks = 0;
  std::uint64_t cross_posts = 0;
  std::uint64_t clamped_posts = 0;
  std::vector<ProfileShard> per_shard;
  bool operator==(const ProfileSnapshot&) const = default;

  [[nodiscard]] double execute_seconds_total() const;
  [[nodiscard]] double barrier_seconds_total() const;
};

/// Snapshot the profiler's accumulators alone.
[[nodiscard]] ProfileSnapshot take_profile(const KernelProfiler& profiler);

/// Snapshot plus the kernel's own counters (per-shard event accounting,
/// cross/clamped posts). Call with every worker parked (between runs).
[[nodiscard]] ProfileSnapshot take_profile(
    const KernelProfiler& profiler, const sim::ShardedSimulation& kernel);

[[nodiscard]] std::string to_profile_json(const ProfileSnapshot& snapshot);
[[nodiscard]] ProfileSnapshot profile_from_json(std::string_view json);
void write_profile_json(const std::string& path,
                        const ProfileSnapshot& snapshot);
[[nodiscard]] ProfileSnapshot read_profile_json(const std::string& path);

}  // namespace oddci::obs
