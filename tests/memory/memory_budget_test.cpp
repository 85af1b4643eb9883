// Per-receiver memory budget of an idle population.
//
// This binary replaces the global allocation functions (every operator new
// and delete, including the over-aligned and nothrow overloads) with
// counting versions, builds 10k- and 20k-receiver OddciSystems, deploys the
// PNA, runs the 90 s warmup, and checks what each idle receiver adds to the
// heap: how many allocations and how many requested bytes. It has its own
// executable because the replacement is process-wide.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <new>

#include "core/churn.hpp"
#include "core/pna.hpp"
#include "core/system.hpp"
#include "dtv/xlet.hpp"
#include "sim/simulation.hpp"

namespace {

std::atomic<std::int64_t> g_live_allocs{0};
std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<std::int64_t> g_peak_bytes{0};

// Every block carries a header just below the pointer handed out: the
// requested size and the header length (>= the alignment, so the user
// pointer keeps it).
constexpr std::size_t kMinHeader = alignof(std::max_align_t);

void* counted_alloc(std::size_t size, std::size_t align) noexcept {
  const std::size_t header = align > kMinHeader ? align : kMinHeader;
  void* raw = align > kMinHeader
                  ? std::aligned_alloc(
                        align, (size + header + align - 1) / align * align)
                  : std::malloc(size + header);
  if (raw == nullptr) return nullptr;
  auto* user = static_cast<unsigned char*>(raw) + header;
  const std::size_t meta[2] = {size, header};
  std::memcpy(user - sizeof(meta), meta, sizeof(meta));
  g_live_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto bytes = static_cast<std::int64_t>(size);
  const std::int64_t live =
      g_live_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  std::int64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  return user;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  auto* user = static_cast<unsigned char*>(p);
  std::size_t meta[2];
  std::memcpy(meta, user - sizeof(meta), sizeof(meta));
  g_live_allocs.fetch_sub(1, std::memory_order_relaxed);
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(meta[0]),
                         std::memory_order_relaxed);
  std::free(user - meta[1]);
}

void* counted_new(std::size_t size, std::size_t align) {
  void* p = counted_alloc(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

constexpr std::size_t kDefaultAlign = __STDCPP_DEFAULT_NEW_ALIGNMENT__;

std::size_t align_of(std::align_val_t a) {
  return static_cast<std::size_t>(a);
}

}  // namespace

void* operator new(std::size_t n) { return counted_new(n, kDefaultAlign); }
void* operator new[](std::size_t n) { return counted_new(n, kDefaultAlign); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, kDefaultAlign);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, kDefaultAlign);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_new(n, align_of(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_new(n, align_of(a));
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return counted_alloc(n, align_of(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return counted_alloc(n, align_of(a));
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace oddci::core {
namespace {

static_assert(sizeof(dtv::Receiver) <= 200,
              "dtv::Receiver is per-receiver hot state: keep it small");
static_assert(sizeof(PnaXlet) <= 152,
              "PnaXlet is per-receiver hot state: keep it small");

constexpr std::size_t kReceivers = 10'000;
/// Live heap bytes each idle receiver may add: 487 B measured, plus 5%
/// (see DESIGN.md §5 for the breakdown).
constexpr double kLiveBytesBudget = 511.0;

/// Heap a deployed, warmed-up population holds (and its high-water mark on
/// the way there). The allocation count excludes the kernels' slab chunks,
/// one heap block per 4,096 event slots; their bytes are counted.
struct Footprint {
  double allocs = 0.0;
  double live_bytes = 0.0;
  double peak_bytes = 0.0;
};

std::size_t kernel_chunks(OddciSystem& system) {
  std::size_t chunks = 0;
  for (std::size_t s = 0; s < system.kernel().shard_count(); ++s) {
    const sim::Simulation& shard = system.kernel().shard(s);
    chunks += shard.event_chunks();
  }
  return chunks;
}

std::size_t pending_events(OddciSystem& system) {
  std::size_t events = 0;
  for (std::size_t s = 0; s < system.kernel().shard_count(); ++s) {
    events += system.kernel().shard(s).pending_events();
  }
  return events;
}

Footprint measure_idle_population(std::size_t receivers) {
  SystemConfig config;
  config.receivers = receivers;
  config.seed = 20261016;

  const std::int64_t allocs0 = g_live_allocs.load();
  const std::int64_t bytes0 = g_live_bytes.load();
  g_peak_bytes.store(bytes0);

  OddciSystem system(config);
  system.controller().deploy_pna();
  system.kernel().run_until(system.simulation().now() + config.warmup);

  const auto slab_chunks = static_cast<std::int64_t>(kernel_chunks(system));
  Footprint f;
  f.allocs =
      static_cast<double>(g_live_allocs.load() - allocs0 - slab_chunks);
  f.live_bytes = static_cast<double>(g_live_bytes.load() - bytes0);
  f.peak_bytes = static_cast<double>(g_peak_bytes.load() - bytes0);
  return f;
}

TEST(MemoryBudget, IdleReceiverHoldsTwoHeapObjectsWithinBudget) {
  // What one more idle receiver costs: the difference between a 10k and a
  // 20k population, so fixed, population-wide structures (the Controller,
  // the heartbeat pool's ring, the registry) cancel out.
  const Footprint small = measure_idle_population(kReceivers);
  const Footprint large = measure_idle_population(2 * kReceivers);
  const auto n = static_cast<double>(kReceivers);
  const double allocs = (large.allocs - small.allocs) / n;
  const double live = (large.live_bytes - small.live_bytes) / n;
  const double peak = (large.peak_bytes - small.peak_bytes) / n;
  std::cout << "per idle receiver: " << allocs << " allocations, " << live
            << " B live, " << peak << " B peak\n";
  // The Receiver and its PnaXlet.
  EXPECT_LE(allocs, 2.0);
  EXPECT_LT(live, kLiveBytesBudget);
}

TEST(MemoryBudget, PerReceiverTimerCapturesStayInline) {
  // The timers a receiver arms, by capture shape (see the sites named
  // below): each must be built in place in its 64-byte event slot.
  sim::Simulation simulation;
  const auto delay = sim::SimTime::from_seconds(1);
  constexpr int kEach = 1000;
  constexpr int kShapes = 5;
  // A first round of as many events allocates the slab's chunks and the
  // heap's buffer, which the measured round reuses.
  for (int i = 0; i < kShapes * kEach; ++i) {
    simulation.schedule_in(delay, [] {});
  }
  simulation.run();

  PnaXlet* agent = nullptr;
  dtv::XletContext* context = nullptr;
  const std::uint32_t generation = 7;
  ChurnProcess* churn = nullptr;
  DiurnalAudience* audience = nullptr;
  const std::size_t index = 3;
  const std::uint32_t ordinal = 5;
  const auto midnight = sim::SimTime::from_hours(24);
  const auto active = std::make_shared<bool>(true);
  const std::weak_ptr<bool> weak = active;

  const std::int64_t allocs0 = g_live_allocs.load();
  for (int i = 0; i < kEach; ++i) {
    // PnaXlet::schedule_guarded around a `[this]` body: the paced beat's
    // release, the task poll and the hang watchdog's relaunch.
    simulation.schedule_in(
        delay, [context, gen = generation, fn = [agent] { (void)agent; }] {
          (void)context;
          (void)gen;
          fn();
        });
    // PnaXlet::schedule_guarded around `[this, gen]`: the request watchdog
    // and the result retry (32 B).
    const auto body = [agent, gen = generation] {
      (void)agent;
      (void)gen;
    };
    simulation.schedule_in(delay, [context, gen = generation, fn = body] {
      (void)context;
      (void)gen;
      fn();
    });
    // ChurnProcess::schedule_toggle: a churning receiver's dwell.
    simulation.schedule_in(delay, [churn, index, ordinal] {
      (void)churn;
      (void)index;
      (void)ordinal;
    });
    // DiurnalAudience::plan_day: a guarded session edge (32 B) and the
    // re-plan at the next midnight (40 B).
    simulation.schedule_at(midnight, [audience, index, weak] {
      (void)audience;
      (void)index;
      (void)weak;
    });
    simulation.schedule_at(midnight, [audience, index, midnight, weak] {
      (void)audience;
      (void)index;
      (void)midnight;
      (void)weak;
    });
  }
  // Not one heap block was added: every capture stayed in its slot.
  EXPECT_EQ(g_live_allocs.load(), allocs0);
  EXPECT_EQ(simulation.pending_events(), std::size_t{kShapes * kEach});
  EXPECT_EQ(simulation.event_chunks(), 2u);
}

TEST(MemoryBudget, HeartbeatsArmNoWheelTimer) {
  // Every agent's periodic beat waits in its shard's heartbeat cadence,
  // not as a kernel event: after the deploy and the warmup, a population
  // twice as large holds about as many pending events, and the event slab
  // keeps its first chunk on every shard. One event per agent would add
  // 10,000.
  const auto warmed_up = [](std::size_t receivers) {
    SystemConfig config;
    config.receivers = receivers;
    config.seed = 20261016;
    OddciSystem system(config);
    system.controller().deploy_pna();
    system.kernel().run_until(system.simulation().now() + config.warmup);
    for (std::size_t s = 0; s < system.kernel().shard_count(); ++s) {
      EXPECT_LE(system.kernel().shard(s).event_chunks(), 1u) << "shard " << s;
    }
    EXPECT_GT(system.controller().stats().heartbeats_received, receivers);
    return pending_events(system);
  };
  const std::size_t small = warmed_up(kReceivers);
  const std::size_t large = warmed_up(2 * kReceivers);
  std::cout << "pending kernel events: " << small << " at " << kReceivers
            << " receivers, " << large << " at " << 2 * kReceivers << "\n";
  EXPECT_LT(large, small + kReceivers / 100);
}

TEST(MemoryBudget, CarouselReadsArmNoKernelEvent) {
  // A carousel read waits in its medium's read queue on the reader's
  // shard, served by one kernel event per shard. Through the launch (each
  // receiver reads the PNA's code base, then its agent the configuration),
  // the warmup and a recommit, the kernel never holds more than a handful
  // of events, and the event slab keeps its first chunk.
  SystemConfig config;
  config.receivers = 2 * kReceivers;
  config.seed = 20261016;
  OddciSystem system(config);
  std::size_t peak_events = 0;
  std::size_t peak_reads = 0;
  const auto run_for = [&](sim::SimTime span) {
    const sim::SimTime end = system.simulation().now() + span;
    while (system.simulation().now() < end) {
      system.kernel().run_until(system.simulation().now() +
                                sim::SimTime::from_millis(100));
      peak_events = std::max(peak_events, pending_events(system));
      peak_reads = std::max(peak_reads, system.channel().reads_pending());
    }
  };
  system.controller().deploy_pna();
  run_for(config.warmup);
  system.channel().commit();
  run_for(sim::SimTime::from_seconds(10));
  std::cout << "peak: " << peak_events << " kernel events, " << peak_reads
            << " reads pending\n";
  // The launch storm happened, and it waited in the read queue.
  EXPECT_GT(peak_reads, config.receivers / 2);
  EXPECT_LT(peak_events, config.receivers / 50);
  for (std::size_t s = 0; s < system.kernel().shard_count(); ++s) {
    EXPECT_EQ(system.kernel().shard(s).event_chunks(), 1u) << "shard " << s;
  }
  EXPECT_EQ(system.channel().reads_pending(), 0u);
}

TEST(MemoryBudget, RecommitOnAWarmPopulationArmsNoTimerAndNoChunk) {
  // A commit reaches every tuned receiver through its shard's announcement
  // queue, not a timer per listener: once the population has warmed up, a
  // second commit arms at most one kernel event per shard and leaves the
  // slabs as they were.
  SystemConfig config;
  config.receivers = 2 * kReceivers;
  config.seed = 20261016;
  OddciSystem system(config);
  system.controller().deploy_pna();
  system.kernel().run_until(system.simulation().now() + config.warmup);

  const std::size_t chunks = kernel_chunks(system);
  const std::size_t events = pending_events(system);
  const std::uint64_t announced = system.channel().announcements();
  system.channel().commit();
  std::cout << "pending kernel events: " << events << " before the commit, "
            << pending_events(system) << " after\n";
  EXPECT_LE(pending_events(system), events + system.kernel().shard_count());
  EXPECT_EQ(system.channel().announcements() - announced, 2 * kReceivers);
  system.kernel().run_until(system.simulation().now() +
                            config.table_repetition);
  EXPECT_EQ(kernel_chunks(system), chunks);
}

TEST(MemoryBudget, ReplacedAllocatorCountsEveryOverload) {
  const std::int64_t allocs0 = g_live_allocs.load();
  const std::int64_t bytes0 = g_live_bytes.load();
  struct alignas(64) Wide {
    unsigned char bytes[64];
  };
  auto* a = new int(7);
  auto* b = new Wide;
  auto* c = new (std::nothrow) double[3];
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 64, 0u);
  EXPECT_EQ(g_live_allocs.load() - allocs0, 3);
  EXPECT_EQ(g_live_bytes.load() - bytes0,
            static_cast<std::int64_t>(sizeof(int) + sizeof(Wide) +
                                      3 * sizeof(double)));
  delete a;
  delete b;
  delete[] c;
  EXPECT_EQ(g_live_allocs.load(), allocs0);
  EXPECT_EQ(g_live_bytes.load(), bytes0);
}

}  // namespace
}  // namespace oddci::core
