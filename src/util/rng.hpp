#pragma once

#include <cstdint>
#include <limits>
#include <string_view>

/// Deterministic pseudo-random number generation.
///
/// The simulation must be bit-reproducible across platforms and standard
/// library implementations, so we implement the generators and the variate
/// transforms ourselves instead of relying on `std::*_distribution` (whose
/// algorithms are unspecified by the standard).
namespace oddci::util {

/// SplitMix64 — used to seed Xoshiro and as a cheap standalone generator.
class SplitMix64 {
 public:
  constexpr explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Derive the seed of a named sub-stream from a root seed: FNV-1a over the
/// name, mixed with the root through one SplitMix64 step. Pure arithmetic —
/// consumes no draws from any live generator — so adding a stream never
/// perturbs existing replay sequences, and distinct names yield disjoint
/// streams from the same root.
[[nodiscard]] std::uint64_t stream_seed(std::uint64_t root,
                                        std::string_view name);

/// A keyed draw: SplitMix64 over (seed, a, b), one field per step. Pure
/// arithmetic, so an entity's draw is a function of its key alone — not of
/// the order in which entities draw, nor of how the population is split
/// across shards (the counter-based scheme of Salmon et al., "Parallel
/// Random Numbers: As Easy as 1, 2, 3", SC 2011). Callers pack the entity
/// and an ordinal into the fields.
[[nodiscard]] constexpr std::uint64_t keyed_bits(std::uint64_t seed,
                                                 std::uint64_t a,
                                                 std::uint64_t b) {
  return SplitMix64(SplitMix64(seed ^ a).next() ^ b).next();
}

/// keyed_bits() as a uniform double in [0, 1).
[[nodiscard]] constexpr double keyed_uniform(std::uint64_t seed,
                                             std::uint64_t a,
                                             std::uint64_t b) {
  return static_cast<double>(keyed_bits(seed, a, b) >> 11) * 0x1.0p-53;
}

/// xoshiro256** 1.0 by Blackman & Vigna — fast, high-quality, 2^256-1 period.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed);

  std::uint64_t next();

  /// UniformRandomBitGenerator interface (usable with <algorithm> shuffles).
  std::uint64_t operator()() { return next(); }
  static constexpr std::uint64_t min() { return 0; }
  static constexpr std::uint64_t max() {
    return std::numeric_limits<std::uint64_t>::max();
  }

  /// Jump function: advances the state by 2^128 steps; used to derive
  /// independent streams for parallel replicas.
  void jump();

 private:
  std::uint64_t s_[4];
};

/// Variate generator wrapping an Xoshiro stream with explicit, portable
/// transforms (inverse-CDF where possible).
class Random {
 public:
  explicit Random(std::uint64_t seed) : gen_(seed) {}

  /// Uniform in [0, 1).
  double uniform();

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n) for n > 0.
  std::uint64_t uniform_u64(std::uint64_t n);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Exponential with given mean (> 0).
  double exponential(double mean);

  /// Weibull with shape k and scale lambda (both > 0).
  double weibull(double shape, double scale);

  /// Pareto with shape alpha (> 0) and minimum xm (> 0).
  double pareto(double alpha, double xm);

  /// Standard normal via Box-Muller (deterministic, no cached spare).
  double normal(double mean, double stddev);

  /// Log-normal with the given parameters of the underlying normal.
  double lognormal(double mu, double sigma);

  /// Derive an independent child stream (jump-based).
  Random split();

  Xoshiro256& engine() { return gen_; }

 private:
  Xoshiro256 gen_;
};

}  // namespace oddci::util
