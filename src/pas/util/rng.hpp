// Deterministic PRNGs for workload generation.
//
// SplitMix64 for seeding, Xoshiro256** for streams. The NPB linear
// congruential generator lives in pas/npb/npb_rng.hpp because its exact
// constants are part of the benchmark definition.
#pragma once

#include <cstdint>

namespace pas::util {

/// SplitMix64 — used to expand a single seed into stream seeds.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Xoshiro256** — fast, high-quality, per-rank stream generator.
class Xoshiro256 {
 public:
  explicit Xoshiro256(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : s_) s = sm.next();
  }

  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound) (bound > 0); slight modulo bias is
  /// acceptable for workload generation.
  std::uint64_t next_below(std::uint64_t bound) { return next() % bound; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4] = {};
};

}  // namespace pas::util
