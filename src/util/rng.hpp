// Deterministic pseudo-random source shared by simulator components.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <random>

#include "util/simd.hpp"

namespace tagwatch::util {

/// MT19937-64 whose output sequence equals std::mt19937_64 seeded the same
/// way, bit for bit.  It is its own type so the block operations — the
/// twist and the bulk temper-and-downscale behind Rng::below_n — can run
/// as util::simd kernels (scalar or AVX2, both exact).  Satisfies
/// UniformRandomBitGenerator, so the std distributions accept it.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;

  explicit Mt19937_64(result_type seed = 5489u) {
    // std::mersenne_twister_engine::seed: x[i] = f·(x[i-1] ^ x[i-1]>>62) + i.
    state_[0] = seed;
    for (std::size_t i = 1; i < kWords; ++i) {
      const result_type prev = state_[i - 1];
      state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
    }
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept {
    if (pos_ == kWords) twist();
    return simd::mt64::temper(state_[pos_++]);
  }

  /// out[i] = (*this)() >> shift for `count` consecutive outputs, with
  /// shift in [33, 63]; block-at-a-time through the simd kernels.
  void top_bits(std::uint32_t* out, std::size_t count,
                unsigned shift) noexcept {
    while (count > 0) {
      if (pos_ == kWords) twist();
      const std::size_t k = std::min(count, kWords - pos_);
      simd::mt64_temper_shift(state_.data() + pos_, k, shift, out);
      pos_ += k;
      out += k;
      count -= k;
    }
  }

 private:
  static constexpr std::size_t kWords = simd::mt64::kStateWords;

  void twist() noexcept {
    simd::mt64_twist(state_.data());
    pos_ = 0;
  }

  std::array<result_type, kWords> state_;
  std::size_t pos_ = kWords;  // the first output twists, as std's does
};

/// Seedable random number generator over Mt19937_64 with the distributions
/// the simulator needs.  Every stochastic component takes an Rng& so whole
/// experiments replay bit-identically from one seed.
///
/// Contract: the engine is std::mt19937_64 bit for bit, and below() /
/// below_n() are libstdc++'s std::uniform_int_distribution<uint32_t>
/// (Lemire's nearly divisionless downscale over the 64-bit output).  The
/// other distributions are the std ones on the same engine.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed5eed) : engine_(seed) {}

  /// Uniform integer in [lo, hi] (inclusive).
  std::uint64_t uniform_u64(std::uint64_t lo, std::uint64_t hi) {
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(engine_);
  }

  /// Uniform integer in [0, n) — e.g. a Gen2 slot counter draw for frame
  /// length n.  n <= 1 returns 0 without consuming an output.
  std::uint32_t below(std::uint32_t n) noexcept {
    if (n <= 1) return 0;
    // Lemire: the high word of x·n, rejecting x whose low word falls under
    // (2^64 - n) mod n.  Power-of-two n never rejects.
    const std::uint64_t range = n;
    Wide product = Wide{engine_()} * range;
    auto low = static_cast<std::uint64_t>(product);
    if (low < range) {
      const std::uint64_t threshold = -range % range;
      while (low < threshold) {
        product = Wide{engine_()} * range;
        low = static_cast<std::uint64_t>(product);
      }
    }
    return static_cast<std::uint32_t>(product >> 64);
  }

  /// out[i] = below(n) for i in [0, count), in order — the same values and
  /// the same engine outputs consumed as `count` sequential calls.  A
  /// power-of-two n is the top log2(n) bits of one output each (no
  /// rejection), done a state block at a time; other n draw one by one.
  void below_n(std::uint32_t* out, std::size_t count,
               std::uint32_t n) noexcept {
    if (n <= 1) {
      std::fill(out, out + count, 0u);
    } else if (std::has_single_bit(n)) {
      engine_.top_bits(out, count,
                       64u - static_cast<unsigned>(std::countr_zero(n)));
    } else {
      for (std::size_t i = 0; i < count; ++i) out[i] = below(n);
    }
  }

  /// Uniform real in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Gaussian with the given mean and standard deviation; stddev 0 returns
  /// `mean` (noise-free fixtures), still consuming the engine.  Draws a
  /// standard normal and scales it, which is what libstdc++'s
  /// normal_distribution(mean, stddev) computes for stddev > 0, so the
  /// values and engine position match it bit for bit.
  double normal(double mean = 0.0, double stddev = 1.0) {
    const double z = std::normal_distribution<double>()(engine_);
    return z * stddev + mean;
  }

  /// Bernoulli trial with success probability p.
  bool chance(double p) { return std::bernoulli_distribution(p)(engine_); }

  /// Exponential inter-arrival time with the given rate (events per unit).
  double exponential(double rate) {
    return std::exponential_distribution<double>(rate)(engine_);
  }

  /// Derives an independent child generator; use to give subsystems their
  /// own streams so adding draws in one does not perturb another.
  Rng fork() { return Rng(engine_()); }

  Mt19937_64& engine() noexcept { return engine_; }

 private:
  __extension__ typedef unsigned __int128 Wide;

  Mt19937_64 engine_;
};

}  // namespace tagwatch::util
