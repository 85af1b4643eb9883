#include "probes.hpp"

#include <chrono>
#include <cstdint>
#include <stdexcept>

#include "broadcast/signature.hpp"
#include "core/messages.hpp"
#include "core/wire.hpp"
#include "sim/simulation.hpp"
#include "util/stats.hpp"

namespace oddci_bench {

using namespace oddci;

namespace {

constexpr std::size_t kBatches = 15;

/// Median over kBatches of (wall ns of `batch()`) / `calls`.
template <typename Fn>
double median_ns_per_call(std::size_t calls, Fn&& batch) {
  util::Samples per_call;
  for (std::size_t b = 0; b < kBatches; ++b) {
    const auto t0 = std::chrono::steady_clock::now();
    batch();
    const auto t1 = std::chrono::steady_clock::now();
    per_call.add(std::chrono::duration<double, std::nano>(t1 - t0).count() /
                 static_cast<double>(calls));
  }
  return per_call.median();
}

/// One schedule_timer_in plus its firing, with 1M other timers pending
/// beyond the measured window (a 1M-receiver heartbeat population).
double timer_event_ns() {
  constexpr std::size_t kPending = 1'000'000;
  constexpr std::size_t kCalls = 20'000;
  sim::Simulation sim;
  std::uint64_t fired = 0;
  for (std::size_t i = 0; i < kPending; ++i) {
    sim.schedule_timer_in(
        sim::SimTime::from_seconds(1e5) + sim::SimTime::from_micros(30 * i),
        [&fired] { ++fired; });
  }
  const sim::SimTime window = sim::SimTime::from_seconds(10);
  const double ns = median_ns_per_call(kCalls, [&] {
    for (std::size_t j = 1; j <= kCalls; ++j) {
      sim.schedule_timer_in(
          sim::SimTime::from_micros(window.micros() * static_cast<std::int64_t>(j) /
                                    static_cast<std::int64_t>(kCalls)),
          [&fired] { ++fired; });
    }
    sim.run_until(sim.now() + window);
  });
  if (fired != kCalls * kBatches) {
    throw std::runtime_error("timer probe: fired " + std::to_string(fired) +
                             " timers, expected " +
                             std::to_string(kCalls * kBatches));
  }
  return ns;
}

/// encode_into + decode_message of one idle heartbeat.
double heartbeat_roundtrip_ns() {
  constexpr std::size_t kCalls = 50'000;
  const core::HeartbeatMessage heartbeat(123456, core::PnaState::kIdle,
                                         core::kNoInstance);
  core::wire::Writer writer;
  std::uint64_t decoded = 0;
  const double ns = median_ns_per_call(kCalls, [&] {
    for (std::size_t i = 0; i < kCalls; ++i) {
      writer.clear();
      core::wire::encode_into(heartbeat, writer);
      decoded += static_cast<std::uint64_t>(
          core::wire::decode_message(writer.bytes())->tag());
    }
  });
  if (decoded != static_cast<std::uint64_t>(heartbeat.tag()) * kCalls * kBatches) {
    throw std::runtime_error("wire probe: heartbeat did not round-trip");
  }
  return ns;
}

/// broadcast::verify of the Controller's deploy hello (a signed no-op reset
/// carrying the routing of 16 aggregators).
double control_verify_ns() {
  constexpr std::size_t kCalls = 100'000;
  constexpr broadcast::SigningKey kKey = 0x0DDC1;
  core::ControlMessage hello;
  hello.type = core::ControlType::kReset;
  hello.instance = core::kNoInstance;
  hello.probability = 0.0;
  hello.controller_node = 1;
  for (net::NodeId node = 2; node < 18; ++node) hello.aggregators.push_back(node);
  hello.sign_with(kKey);
  const std::string canonical = hello.canonical_bytes();
  std::size_t verified = 0;
  const double ns = median_ns_per_call(kCalls, [&] {
    for (std::size_t i = 0; i < kCalls; ++i) {
      verified += broadcast::verify(kKey, canonical, hello.signature) ? 1 : 0;
    }
  });
  if (verified != kCalls * kBatches) {
    throw std::runtime_error("verify probe: signature rejected");
  }
  return ns;
}

}  // namespace

std::vector<std::pair<std::string, double>> run_probes() {
  return {{"sim.timer_event_ns", timer_event_ns()},
          {"wire.heartbeat_roundtrip_ns", heartbeat_roundtrip_ns()},
          {"broadcast.verify_ns", control_verify_ns()}};
}

}  // namespace oddci_bench
