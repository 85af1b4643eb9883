#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "sim/event.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"

/// Sharded parallel event kernel.
///
/// The receiver population is partitioned into K shards, each owning a
/// full single-threaded `Simulation` (slab event store, timer wheel, its
/// own clock). Shards advance in parallel worker threads under a
/// *conservative time-window barrier*: within a window [w, w+W) every
/// shard executes only its own events; anything that crosses shards is
/// appended to an inter-shard mailbox and drained by the coordinator at
/// the window boundary, in (window, source shard, send sequence) order.
/// Because the drain order is a pure function of the per-shard
/// trajectories — which are themselves deterministic — a seeded run is
/// byte-reproducible for any fixed K, regardless of thread scheduling.
///
/// Determinism contract (see DESIGN.md "Sharded kernel"):
///  * K = 1 takes a direct delegation path (no threads, no windows, no
///    mail); its global tasks run at the start of their instant, as they
///    do at a window boundary under several shards;
///  * for fixed K > 1, two same-seed runs produce identical trajectories,
///    metrics and traces; different K may (and generally do) differ,
///    because cross-shard deliveries are clamped to window boundaries.
///
/// Thread-safety is structural: a shard's state is touched only by the
/// thread running its window; mailbox segments are written by exactly one
/// producer thread per window and consumed by the coordinator while every
/// worker waits at the barrier. The barrier is two atomics. The
/// coordinator's release increment of the epoch publishes everything it
/// wrote between windows (drained mail, global-task effects, the window
/// target) to the workers' acquire loads; each worker's release decrement
/// of the outstanding count publishes its shard state, mail, error slot
/// and profiler cell to the coordinator's acquire load of zero. Waiters
/// spin with an adaptive budget, then park on the atomic. Event execution
/// itself takes no lock and touches no atomic.
namespace oddci::sim {

class ShardedSimulation {
 public:
  /// Largest accepted shard count. The kernel allocates K² mailboxes and
  /// starts K-1 threads, so a mistyped count (`shards=5000`) must fail in
  /// validate() before anything is built; nothing here runs past K=8.
  static constexpr std::size_t kMaxShards = 256;

  struct Options {
    /// Number of shards (worker partitions), 1..kMaxShards. 1 runs the
    /// lone shard on the calling thread.
    std::size_t shards = 1;
    /// Conservative window width. Must not exceed the minimum cross-shard
    /// delivery latency or boundary clamping will distort timing more
    /// than a window's width (still deterministic, just coarser).
    SimTime window = SimTime::from_millis(5);

    void validate() const;
  };

  explicit ShardedSimulation(Options options);
  ~ShardedSimulation();

  ShardedSimulation(const ShardedSimulation&) = delete;
  ShardedSimulation& operator=(const ShardedSimulation&) = delete;

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] SimTime window() const { return options_.window; }

  /// Shard `i`'s kernel. Shard 0 is the *control shard*: the Controller,
  /// Backend, Provider and broadcast channels live there, and its thread
  /// is the coordinator itself.
  [[nodiscard]] Simulation& shard(std::size_t i) { return *shards_[i]; }
  [[nodiscard]] const Simulation& shard(std::size_t i) const {
    return *shards_[i];
  }
  [[nodiscard]] Simulation& control() { return *shards_[0]; }

  /// Control-shard clock (the canonical "now" between windows).
  [[nodiscard]] SimTime now() const { return shards_[0]->now(); }

  /// Cross-shard post: run `fn` on shard `dst` at `max(at, next window
  /// boundary)`. Must be called from the thread currently running shard
  /// `src` (or from the coordinator between windows with src = 0). The
  /// mail is drained at the boundary in (source shard, send sequence)
  /// order, which makes the interleaving deterministic. With K = 1 this
  /// degenerates to schedule_at(max(at, now)) — no windows exist.
  void post(std::size_t src, std::size_t dst, SimTime at, EventFn fn,
            EventPriority priority = EventPriority::kDelivery);

  /// Run `fn` on the coordinator thread at the first window boundary
  /// >= `at`, with every shard parked — the safe place to read or mutate
  /// state spanning shards (samplers, fault plans, deferred removals).
  /// Same calling rule as post(): from the thread running shard `src`.
  /// Tasks due at one boundary run in (source shard, send sequence)
  /// order, before the boundary's own events. With K = 1 this is
  /// schedule_at(max(at, now)) on the shard at EventPriority::kGlobal, so
  /// the task likewise runs at the start of its instant.
  void post_global(std::size_t src, SimTime at, EventFn fn);

  /// Advance every shard to `t` (events at exactly `t` run, as in
  /// Simulation::run_until). Returns early when stop() was called.
  void run_until(SimTime t);

  /// Request the current run_until() to return at the next boundary; the
  /// control shard additionally breaks out of its current window. Must be
  /// called from control-shard code (or between windows).
  void stop();

  /// Attach a wall-clock profiler (or detach with nullptr). Also attaches
  /// every shard kernel, so execute time lands in per-shard cells; window
  /// spans, barrier stalls, drains and global tasks are recorded by the
  /// coordinator. The profiler must have been built for this shard count
  /// and never perturbs the event trajectory.
  void set_profiler(obs::KernelProfiler* profiler);

  /// Install a progress observer: `fn` runs on the coordinator thread with
  /// every shard parked, at most once per `stride` of simulated time. With
  /// K = 1 the delegated run is sliced into stride-long run_until segments
  /// (event-trajectory-identical). The observer may read shard state but
  /// must not mutate it or schedule events. Null `fn` disables.
  void set_progress(std::function<void()> fn, SimTime stride);

  // --- merged counters (valid between windows / after run_until) -----------
  [[nodiscard]] std::uint64_t events_executed() const;
  [[nodiscard]] std::uint64_t events_scheduled() const;
  /// Mail items delivered across shards so far.
  [[nodiscard]] std::uint64_t cross_posts() const { return cross_posts_; }
  /// Mail whose requested time preceded its delivery boundary and was
  /// therefore clamped forward (the conservative-window timing cost).
  [[nodiscard]] std::uint64_t clamped_posts() const { return clamped_posts_; }
  /// Windows executed (barrier crossings).
  [[nodiscard]] std::uint64_t windows_run() const { return windows_run_; }

 private:
  struct Mail {
    SimTime at;
    EventFn fn;
    EventPriority priority;
  };
  /// One producer (the shard-src thread, during a window), one consumer
  /// (the coordinator, at the barrier). Padded so two producers never
  /// share a cache line.
  struct alignas(64) MailBox {
    std::vector<Mail> items;
  };
  struct GlobalTask {
    SimTime at;
    std::uint64_t seq = 0;
    EventFn fn;
  };

  [[nodiscard]] MailBox& box(std::size_t src, std::size_t dst) {
    return boxes_[src * shards_.size() + dst];
  }

  /// Run one window [now, w1) on all shards in parallel; `inclusive`
  /// additionally executes events at exactly w1 (the final pass at the
  /// run_until horizon).
  void parallel_window(SimTime w1, bool inclusive);
  /// Drain all mailboxes into their destination heaps (clamped to
  /// `boundary`) and run due global tasks. Returns true if any mail was
  /// delivered (the run loop uses this for the fixpoint at the horizon).
  bool drain(SimTime boundary);
  void worker_loop(std::size_t shard_index);
  void run_until_impl(SimTime t);

  Options options_;
  std::vector<std::unique_ptr<Simulation>> shards_;
  std::vector<MailBox> boxes_;
  /// Per-source staging for post_global (same single-producer rule as the
  /// mailboxes); merged into globals_ at each barrier.
  std::vector<MailBox> global_boxes_;
  std::vector<GlobalTask> globals_;
  std::uint64_t global_seq_ = 0;

  bool stopping_ = false;
  std::uint64_t cross_posts_ = 0;
  std::uint64_t clamped_posts_ = 0;
  std::uint64_t windows_run_ = 0;

  obs::KernelProfiler* profiler_ = nullptr;
  std::function<void()> progress_;
  SimTime progress_stride_;
  SimTime progress_due_;

  // --- barrier: the coordinator releases a window by bumping epoch_, and
  // each worker finishes it by decrementing outstanding_. 32-bit words are
  // the futex's native width, so a parked wait needs no proxy.
  std::atomic<std::uint32_t> epoch_{0};
  std::atomic<std::uint32_t> outstanding_{0};
  SimTime target_;
  bool inclusive_ = false;
  bool shutdown_ = false;
  /// The coordinator's adaptive spin budget (each worker keeps its own).
  std::uint32_t spin_;
  std::vector<std::exception_ptr> worker_errors_;
  std::vector<std::thread> workers_;
};

}  // namespace oddci::sim
