#include "sim/sharded.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/profiler.hpp"  // header-only recording; no link dependency

namespace oddci::sim {
namespace {

// A barrier waiter's spin budget, in pause iterations. It doubles when a
// wait ends while spinning and halves when the waiter had to park, so it
// tracks how long this host's waits last: short when every shard has a
// core, long when K exceeds the cores and a spinner would steal one. The
// floor lets a budget that parked through long stalls recover; the cap
// (well under a millisecond of pauses on current x86) bounds what one
// wait can burn.
constexpr std::uint32_t kSpinFloor = 64;
constexpr std::uint32_t kSpinCap = 1u << 14;

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

/// Spin, then park, until `ready(word)`; returns the value that satisfied
/// it. Every load acquires, pairing with the release write that changed
/// the word.
template <typename Ready>
std::uint32_t spin_then_park(const std::atomic<std::uint32_t>& word,
                             Ready ready, std::uint32_t& budget) {
  std::uint32_t value = word.load(std::memory_order_acquire);
  for (std::uint32_t spins = 0; !ready(value); ++spins) {
    if (spins == budget) {
      budget = std::max(budget / 2, kSpinFloor);
      do {
        word.wait(value, std::memory_order_acquire);
        value = word.load(std::memory_order_acquire);
      } while (!ready(value));
      return value;
    }
    cpu_relax();
    value = word.load(std::memory_order_acquire);
  }
  budget = std::min(budget * 2, kSpinCap);
  return value;
}

}  // namespace

void ShardedSimulation::Options::validate() const {
  if (shards == 0) {
    throw std::invalid_argument("ShardedSimulation: need at least one shard");
  }
  if (shards > kMaxShards) {
    throw std::invalid_argument("ShardedSimulation: shards " +
                                std::to_string(shards) + " exceeds " +
                                std::to_string(kMaxShards));
  }
  if (shards > 1 && window <= SimTime::zero()) {
    throw std::invalid_argument(
        "ShardedSimulation: window must be positive with multiple shards");
  }
}

ShardedSimulation::ShardedSimulation(Options options)
    : options_(options), spin_(kSpinFloor) {
  options_.validate();
  shards_.reserve(options_.shards);
  for (std::size_t i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Simulation>());
  }
  const std::size_t k = options_.shards;
  boxes_ = std::vector<MailBox>(k * k);
  global_boxes_ = std::vector<MailBox>(k);
  if (k > 1) {
    worker_errors_.resize(k, nullptr);
    workers_.reserve(k - 1);
    for (std::size_t i = 1; i < k; ++i) {
      workers_.emplace_back([this, i] { worker_loop(i); });
    }
  }
}

ShardedSimulation::~ShardedSimulation() {
  shutdown_ = true;
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ShardedSimulation::post(std::size_t src, std::size_t dst, SimTime at,
                             EventFn fn, EventPriority priority) {
  if (src >= shards_.size() || dst >= shards_.size()) {
    throw std::out_of_range("ShardedSimulation: shard index out of range");
  }
  if (!fn) {
    throw std::invalid_argument("ShardedSimulation: empty mail callback");
  }
  if (shards_.size() == 1) {
    Simulation& s = *shards_[0];
    s.schedule_at(std::max(at, s.now()), std::move(fn), priority);
    return;
  }
  box(src, dst).items.push_back(Mail{at, std::move(fn), priority});
}

void ShardedSimulation::post_global(std::size_t src, SimTime at, EventFn fn) {
  if (src >= shards_.size()) {
    throw std::out_of_range("ShardedSimulation: shard index out of range");
  }
  if (!fn) {
    throw std::invalid_argument("ShardedSimulation: empty global callback");
  }
  if (shards_.size() == 1) {
    Simulation& s = *shards_[0];
    s.schedule_at(std::max(at, s.now()), std::move(fn),
                  EventPriority::kGlobal);
    return;
  }
  global_boxes_[src].items.push_back(
      Mail{at, std::move(fn), EventPriority::kGlobal});
}

void ShardedSimulation::set_profiler(obs::KernelProfiler* profiler) {
  if (profiler != nullptr && profiler->shard_count() != shards_.size()) {
    throw std::invalid_argument(
        "ShardedSimulation: profiler shard count mismatch");
  }
  profiler_ = profiler;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shards_[i]->set_profiler(profiler, static_cast<std::uint32_t>(i));
  }
}

void ShardedSimulation::set_progress(std::function<void()> fn,
                                     SimTime stride) {
  if (fn && stride <= SimTime::zero()) {
    throw std::invalid_argument(
        "ShardedSimulation: progress stride must be positive");
  }
  progress_ = std::move(fn);
  progress_stride_ = stride;
}

void ShardedSimulation::worker_loop(std::size_t shard_index) {
  std::uint32_t seen_epoch = 0;
  std::uint32_t spin = kSpinFloor;
  for (;;) {
    seen_epoch = spin_then_park(
        epoch_, [seen_epoch](std::uint32_t e) { return e != seen_epoch; },
        spin);
    if (shutdown_) return;
    try {
      if (inclusive_) {
        shards_[shard_index]->run_until(target_);
      } else {
        shards_[shard_index]->run_window(target_);
      }
    } catch (...) {
      worker_errors_[shard_index] = std::current_exception();
    }
    // Only the coordinator waits on the count, and only for zero.
    if (outstanding_.fetch_sub(1, std::memory_order_release) == 1) {
      outstanding_.notify_one();
    }
  }
}

void ShardedSimulation::parallel_window(SimTime w1, bool inclusive) {
  const std::uint64_t span_start =
      profiler_ != nullptr ? obs::KernelProfiler::now_nanos() : 0;
  target_ = w1;
  inclusive_ = inclusive;
  outstanding_.store(static_cast<std::uint32_t>(shards_.size() - 1),
                     std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  try {
    if (inclusive) {
      shards_[0]->run_until(w1);
    } else {
      shards_[0]->run_window(w1);
    }
  } catch (...) {
    worker_errors_[0] = std::current_exception();
  }
  spin_then_park(outstanding_, [](std::uint32_t n) { return n == 0; },
                 spin_);
  if (profiler_ != nullptr) {
    // Every worker has finished its window, and its release decrement
    // published its execute cell; charge each shard's idle remainder to
    // barrier stall.
    profiler_->on_window(obs::KernelProfiler::now_nanos() - span_start);
  }
  ++windows_run_;
  for (auto& error : worker_errors_) {
    if (error != nullptr) {
      std::exception_ptr e = std::exchange(error, nullptr);
      std::rethrow_exception(e);
    }
  }
}

bool ShardedSimulation::drain(SimTime boundary) {
  const std::size_t k = shards_.size();
  bool delivered_due = false;
  const bool prof = profiler_ != nullptr;
  const std::uint64_t drain_start =
      prof ? obs::KernelProfiler::now_nanos() : 0;
  std::uint64_t mail_items = 0;
  std::uint64_t global_nanos = 0;
  std::uint64_t global_tasks = 0;
  // Fixpoint: a global task (sampler tick, fault plan step, deferred
  // removal) may itself post mail or further globals; keep draining until
  // one pass moves nothing. Ordering stays deterministic because each pass
  // walks sources in index order and every queue preserves send order.
  for (;;) {
    bool moved = false;
    // Mail first: (destination, source, sequence). The destination loop
    // order is immaterial (separate heaps); per destination, source index
    // then send order fixes the heap insertion sequence — and therefore
    // the same-timestamp tie-break — deterministically.
    for (std::size_t dst = 0; dst < k; ++dst) {
      Simulation& target = *shards_[dst];
      for (std::size_t src = 0; src < k; ++src) {
        auto& items = box(src, dst).items;
        mail_items += items.size();
        for (auto& mail : items) {
          SimTime at = mail.at;
          if (at < boundary) {
            at = boundary;
            ++clamped_posts_;
          }
          if (at <= boundary) delivered_due = true;
          target.schedule_at(at, std::move(mail.fn), mail.priority);
          ++cross_posts_;
          moved = true;
        }
        items.clear();
      }
    }
    // Stage global tasks in (source, send order), stamped with a global
    // sequence so later drains never reorder earlier arrivals.
    for (std::size_t src = 0; src < k; ++src) {
      auto& items = global_boxes_[src].items;
      for (auto& mail : items) {
        globals_.push_back(GlobalTask{mail.at, global_seq_++, std::move(mail.fn)});
        moved = true;
      }
      items.clear();
    }
    // Run every global task due at this boundary, in arrival order.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < globals_.size(); ++i) {
      if (globals_[i].at <= boundary) {
        EventFn fn = std::move(globals_[i].fn);
        moved = true;
        if (prof) {
          const std::uint64_t g0 = obs::KernelProfiler::now_nanos();
          fn();
          global_nanos += obs::KernelProfiler::now_nanos() - g0;
          ++global_tasks;
        } else {
          fn();
        }
      } else {
        if (kept != i) globals_[kept] = std::move(globals_[i]);
        ++kept;
      }
    }
    globals_.resize(kept);
    if (!moved) break;
  }
  if (prof) {
    const std::uint64_t total =
        obs::KernelProfiler::now_nanos() - drain_start;
    profiler_->add_drain(total > global_nanos ? total - global_nanos : 0,
                         mail_items);
    profiler_->add_global(global_nanos, global_tasks);
  }
  return delivered_due;
}

void ShardedSimulation::run_until(SimTime t) {
  const SimTime start_now = now();
  if (profiler_ != nullptr) profiler_->begin_run();
  run_until_impl(t);
  if (profiler_ != nullptr) {
    profiler_->end_run((now() - start_now).micros());
  }
}

void ShardedSimulation::run_until_impl(SimTime t) {
  stopping_ = false;
  progress_due_ = now() + progress_stride_;
  if (shards_.size() == 1) {
    Simulation& s = *shards_[0];
    if (!progress_) {
      s.run_until(t);
      return;
    }
    // Slice the delegated run into stride-long segments so the observer
    // fires between events. Intermediate horizons never change the event
    // trajectory — run_until(x) then run_until(t) executes the same
    // events in the same order as run_until(t) alone.
    while (!stopping_ && s.now() < t) {
      const SimTime next = std::min(t, s.now() + progress_stride_);
      s.run_until(next);
      progress_();
    }
    return;
  }
  if (t < now()) {
    throw std::invalid_argument("ShardedSimulation: run_until into the past");
  }
  const SimTime window = options_.window;
  while (!stopping_) {
    const SimTime w0 = shards_[0]->now();
    if (w0 >= t) break;
    // Idle skip: when every shard's earliest work — heap events, staged
    // globals, undelivered mail — lies beyond the next boundary, jump the
    // window grid forward. The skip depends only on deterministic shard
    // state, so it never perturbs the trajectory: a global or mail item
    // still lands at the first boundary at or after its requested time.
    SimTime horizon = SimTime::max();
    bool mail_pending = false;
    for (auto& shard : shards_) {
      horizon = std::min(horizon, shard->next_event_time());
    }
    for (const auto& task : globals_) horizon = std::min(horizon, task.at);
    for (const auto& staged : global_boxes_) {
      for (const auto& mail : staged.items) {
        horizon = std::min(horizon, mail.at);
      }
    }
    for (const auto& b : boxes_) {
      if (!b.items.empty()) mail_pending = true;
    }
    if (!mail_pending) {
      if (horizon == SimTime::max()) {
        // Nothing anywhere, ever: fast-forward all clocks to the target.
        for (auto& shard : shards_) shard->run_window(t);
        break;
      }
      const std::int64_t span = (std::min(horizon, t) - w0).micros();
      const std::int64_t whole = (span / window.micros()) * window.micros();
      if (whole > window.micros()) {
        // Land on the last grid boundary strictly before the horizon.
        const SimTime jump = w0 + SimTime::from_micros(whole) - window;
        for (auto& shard : shards_) shard->run_window(jump);
      }
    }
    const SimTime base = shards_[0]->now();
    const SimTime w1 = std::min(t, base + window);
    const bool final_pass = (w1 == t);
    parallel_window(w1, final_pass);
    if (stopping_) {
      // stop() came from control-shard code: other shards completed the
      // window; deliver their mail so nothing is lost, then return with
      // the control clock at the stop point (as the classic kernel does).
      drain(w1);
      return;
    }
    bool due = drain(w1);
    if (progress_ && shards_[0]->now() >= progress_due_) {
      // All shards parked at the boundary: safe to read cross-shard state.
      progress_();
      progress_due_ = shards_[0]->now() + progress_stride_;
    }
    if (final_pass) {
      // Mail delivered at exactly the horizon must still run (run_until
      // semantics: events at exactly `t` execute). Iterate to fixpoint;
      // each pass executes the newly drained events at t.
      while (due && !stopping_) {
        parallel_window(t, true);
        if (stopping_) {
          drain(t);
          return;
        }
        due = drain(t);
      }
      break;
    }
  }
}

void ShardedSimulation::stop() {
  stopping_ = true;
  shards_[0]->stop();
}

std::uint64_t ShardedSimulation::events_executed() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->events_executed();
  return total;
}

std::uint64_t ShardedSimulation::events_scheduled() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->events_scheduled();
  return total;
}

}  // namespace oddci::sim
