// Deterministic pseudo-random number generation for data generators and
// property tests. A thin, reproducible xoshiro256++ implementation — we do
// not use std::mt19937 distributions because their output is not guaranteed
// identical across standard libraries, and the experiment harness relies on
// byte-for-byte reproducible datasets given a seed.
#ifndef SKYCUBE_COMMON_RNG_H_
#define SKYCUBE_COMMON_RNG_H_

#include <cmath>
#include <cstdint>

namespace skycube {

/// xoshiro256++ generator (public-domain algorithm by Blackman & Vigna).
/// Deterministic across platforms for a fixed seed.
class Rng {
 public:
  /// Seeds the state via splitmix64 so that nearby seeds give unrelated
  /// streams.
  explicit Rng(uint64_t seed) {
    uint64_t x = seed;
    for (auto& word : state_) {
      // splitmix64 step.
      x += 0x9E3779B97f4A7C15ULL;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      word = z ^ (z >> 31);
    }
  }

  /// Next raw 64-bit value.
  uint64_t NextUint64() {
    const uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound); bound must be > 0. Uses rejection to
  /// avoid modulo bias.
  uint64_t NextBounded(uint64_t bound) {
    const uint64_t threshold = (0 - bound) % bound;
    for (;;) {
      const uint64_t r = NextUint64();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t NextInRange(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(
                    NextBounded(static_cast<uint64_t>(hi - lo) + 1));
  }

  /// Standard normal via Box–Muller (one value per call; simple and
  /// reproducible).
  double NextGaussian() {
    double u1 = NextDouble();
    const double u2 = NextDouble();
    if (u1 <= 0.0) u1 = 0x1.0p-53;
    const double radius = std::sqrt(-2.0 * std::log(u1));
    return radius * std::cos(2.0 * 3.14159265358979323846 * u2);
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
};

}  // namespace skycube

#endif  // SKYCUBE_COMMON_RNG_H_
