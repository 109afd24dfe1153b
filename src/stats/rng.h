// rng.h - Deterministic pseudo-random number generation for all stochastic
// components of the SDDD library.
//
// Every stochastic object in the library (statistical cell libraries,
// Monte-Carlo timing simulation, defect injection, synthetic circuit
// generation, genetic-algorithm fill, ...) draws randomness from an explicit
// Rng handed to it by the caller.  There is no hidden global state: a fixed
// seed reproduces an experiment bit-for-bit, which is essential for the
// paper-reproduction harness (EXPERIMENTS.md records seeds next to results).
//
// The generator is PCG32 (O'Neill, 2014): 64-bit state, 32-bit output,
// period 2^64 per stream, with an odd stream-selector constant that makes it
// cheap to split one master seed into many statistically independent
// sub-streams (one per circuit instance, one per suspect fault, ...).
#pragma once

#include <cstdint>
#include <limits>

namespace sddd::stats {

/// Minimal PCG32 engine.  Satisfies the C++ UniformRandomBitGenerator
/// requirements so it can be used with <random> distributions, although the
/// library prefers its own inverse-CDF samplers (see rv.h) for portability
/// of results across standard-library implementations.
class Rng {
 public:
  using result_type = std::uint32_t;

  /// Constructs a generator from a seed and a stream selector.  Two Rng
  /// objects with the same seed but different streams produce statistically
  /// independent sequences.
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL,
               std::uint64_t stream = 0xda3e39cb94b95bdbULL) {
    state_ = 0U;
    inc_ = (stream << 1U) | 1U;
    (void)next();
    state_ += seed;
    (void)next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() { return next(); }

  /// Next 32 uniform random bits.
  result_type next() {
    const std::uint64_t old = state_;
    step();
    const auto xorshifted =
        static_cast<std::uint32_t>(((old >> 18U) ^ old) >> 27U);
    const auto rot = static_cast<std::uint32_t>(old >> 59U);
    return (xorshifted >> rot) | (xorshifted << ((32U - rot) & 31U));
  }

  /// Uniform double in [0, 1).  53-bit resolution.
  double uniform01() {
    const std::uint64_t hi = next();
    const std::uint64_t lo = next();
    const std::uint64_t bits53 = ((hi << 32U) | lo) >> 11U;
    return static_cast<double>(bits53) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform01(); }

  /// Uniform integer in [0, n).  n must be > 0.  Uses rejection to avoid
  /// modulo bias.
  std::uint32_t below(std::uint32_t n) {
    const std::uint32_t threshold = (-n) % n;
    for (;;) {
      const std::uint32_t r = next();
      if (r >= threshold) return r % n;
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    const auto span = static_cast<std::uint64_t>(hi - lo + 1);
    // Compose two 32-bit draws when the span exceeds 32 bits.
    if (span <= std::numeric_limits<std::uint32_t>::max()) {
      return lo + static_cast<std::int64_t>(
                      below(static_cast<std::uint32_t>(span)));
    }
    const std::uint64_t r =
        (static_cast<std::uint64_t>(next()) << 32U) | next();
    return lo + static_cast<std::int64_t>(r % span);
  }

  /// Bernoulli draw with success probability p.
  bool bernoulli(double p) { return uniform01() < p; }

  /// A fair coin, bit for bit bernoulli(0.5), leaving the same state:
  /// uniform01() < 0.5 holds exactly when bit 31 of its first output is
  /// clear, so the second output is never computed, only its state step.
  bool coin() {
    const bool heads = (next() >> 31U) == 0;
    step();
    return heads;
  }

  /// Derives an independent child stream.  Used to give each Monte-Carlo
  /// instance / suspect fault / worker its own reproducible stream without
  /// the sequences overlapping.
  Rng split(std::uint64_t salt) {
    const std::uint64_t seed =
        (static_cast<std::uint64_t>(next()) << 32U) | next();
    return Rng(seed ^ (salt * 0x9e3779b97f4a7c15ULL),
               inc_ ^ (salt * 0xbf58476d1ce4e5b9ULL + 0x94d049bb133111ebULL));
  }

 private:
  void step() { state_ = state_ * 6364136223846793005ULL + inc_; }

  std::uint64_t state_ = 0;
  std::uint64_t inc_ = 0;
};

}  // namespace sddd::stats
