#pragma once

/// \file rng.hpp
/// Deterministic random number generation for workload synthesis. We use
/// xoshiro256** (public-domain, Blackman & Vigna) seeded through SplitMix64,
/// so traces and job mixes are reproducible across platforms and standard
/// library versions (std::mt19937 distributions are not portable across
/// implementations; our helpers are).

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>

#include "sim/contracts.hpp"

namespace calciom::sim {

/// The SplitMix64 finalizer as a pure hash: mix64(x) is the first draw of
/// SplitMix64(x). Used wherever a draw must be a function of its inputs
/// alone (the fault plans and injector decisions of src/fault).
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// SplitMix64: used to expand a single 64-bit seed into xoshiro state.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    const std::uint64_t z = mix64(state_);
    state_ += 0x9E3779B97F4A7C15ULL;
    return z;
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: fast, high-quality 64-bit generator. Satisfies
/// UniformRandomBitGenerator so it can drive std:: distributions too.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed) noexcept {
    SplitMix64 sm(seed);
    for (auto& s : state_) {
      s = sm.next();
    }
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of randomness.
  double uniform01() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform01();
  }

  /// Uniform integer in the closed range [lo, hi].
  std::int64_t uniformInt(std::int64_t lo, std::int64_t hi) {
    CALCIOM_EXPECTS(lo <= hi);
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0) {  // full 64-bit range
      return static_cast<std::int64_t>((*this)());
    }
    // Rejection sampling for an unbiased draw.
    const std::uint64_t limit = max() - max() % span;
    std::uint64_t v = (*this)();
    while (v >= limit) {
      v = (*this)();
    }
    return lo + static_cast<std::int64_t>(v % span);
  }

  /// Exponentially distributed value with the given mean (> 0).
  double exponential(double mean) {
    CALCIOM_EXPECTS(mean > 0.0);
    double u = uniform01();
    while (u == 0.0) {
      u = uniform01();
    }
    return -mean * std::log(u);
  }

  /// Standard normal via Box–Muller (one value per call; simple & portable).
  double normal(double mu = 0.0, double sigma = 1.0) {
    double u1 = uniform01();
    while (u1 == 0.0) {
      u1 = uniform01();
    }
    const double u2 = uniform01();
    const double z =
        std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * kPi * u2);
    return mu + sigma * z;
  }

  /// Log-normal with the given location/scale of the underlying normal.
  double logNormal(double mu, double sigma) {
    return std::exp(normal(mu, sigma));
  }

 private:
  static constexpr double kPi = 3.14159265358979323846;
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace calciom::sim
