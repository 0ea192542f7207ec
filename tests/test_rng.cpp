// util::Rng's bit-identity contract: its engine is std::mt19937_64, below()
// is libstdc++'s std::uniform_int_distribution<uint32_t>, and below_n() is
// `count` sequential below() calls — under both util::simd kernel tables,
// since the engine's twist and bulk downscale are simd kernels.
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "util/simd.hpp"

namespace tagwatch::util {
namespace {

constexpr std::uint64_t kSeeds[] = {0, 1, 0x5eed5eed, ~std::uint64_t{0}};

/// Runs each test with the kernel table of its ISA active, restoring the
/// previous table afterwards (so the forced-scalar pass stays forced for
/// every other test).
class RngIsa : public ::testing::TestWithParam<simd::Isa> {
 protected:
  void SetUp() override {
    if (simd::kernels_for(GetParam()).isa != GetParam()) {
      GTEST_SKIP() << "no " << simd::isa_name(GetParam())
                   << " table on this build/CPU";
    }
    saved_ = simd::active_isa();
    simd::set_active_isa(GetParam());
    restore_ = true;
  }
  void TearDown() override {
    if (restore_) simd::set_active_isa(saved_);
  }

 private:
  simd::Isa saved_ = simd::Isa::kScalar;
  bool restore_ = false;
};

TEST_P(RngIsa, EngineMatchesStdMt19937_64) {
  for (const std::uint64_t seed : kSeeds) {
    Rng rng(seed);
    std::mt19937_64 want(seed);
    for (int i = 0; i < 1'000'000; ++i) {
      ASSERT_EQ(rng.engine()(), want()) << "seed " << seed << " output " << i;
    }
  }
}

TEST_P(RngIsa, ForkMatchesStdReseeding) {
  for (const std::uint64_t seed : kSeeds) {
    Rng parent(seed);
    std::mt19937_64 want_parent(seed);
    for (int f = 0; f < 3; ++f) {
      Rng child = parent.fork();
      std::mt19937_64 want_child(want_parent());
      for (int i = 0; i < 1000; ++i) {
        ASSERT_EQ(child.engine()(), want_child()) << "fork " << f;
      }
      ASSERT_EQ(parent.engine()(), want_parent()) << "fork " << f;
    }
  }
}

TEST_P(RngIsa, BelowMatchesUniformIntDistribution) {
  constexpr std::uint32_t kRanges[] = {
      2,          3,          5,          7,          10,        32,
      100,        1000,       8000,       32768,      65537,     1u << 20,
      1u << 31,   (1u << 31) + 1,         3'000'000'000u,        ~0u};
  for (const std::uint64_t seed : kSeeds) {
    Rng rng(seed);
    std::mt19937_64 engine(seed);
    for (int i = 0; i < 20'000; ++i) {
      for (const std::uint32_t n : kRanges) {
        ASSERT_EQ(rng.below(n),
                  std::uniform_int_distribution<std::uint32_t>(0, n - 1)(
                      engine))
            << "seed " << seed << " n " << n;
      }
    }
    EXPECT_EQ(rng.engine()(), engine());
  }
}

TEST_P(RngIsa, BelowOneOrZeroDrawsNothing) {
  Rng rng(3);
  std::mt19937_64 engine(3);
  EXPECT_EQ(rng.below(0), 0u);
  EXPECT_EQ(rng.below(1), 0u);
  EXPECT_EQ(rng.engine()(), engine());
}

/// below_n(n) must equal sequential below(n) — same values, same stream
/// position — from every offset into the 312-word block, for counts that
/// stop short of, land on, and cross block boundaries.
TEST_P(RngIsa, BelowNMatchesSequentialBelow) {
  std::vector<std::uint32_t> ranges = {0, 1, 2, 3, 6, 7, 100, 1000, 8191,
                                       65535, 3'000'000'000u, ~0u};
  for (unsigned q = 1; q <= 31; ++q) ranges.push_back(1u << q);
  constexpr std::size_t kCounts[] = {0, 1, 5, 313, 700};
  constexpr std::size_t kBlock = simd::mt64::kStateWords;
  std::vector<std::uint32_t> got, want;
  for (const std::uint32_t n : ranges) {
    for (std::size_t offset = 0; offset < kBlock; ++offset) {
      Rng bulk(offset);
      for (std::size_t i = 0; i < offset; ++i) bulk.engine()();
      Rng seq = bulk;
      for (const std::size_t count : kCounts) {
        got.assign(count, 0xdeadbeef);
        bulk.below_n(got.data(), count, n);
        want.resize(count);
        for (std::size_t i = 0; i < count; ++i) want[i] = seq.below(n);
        ASSERT_EQ(got, want) << "n " << n << " offset " << offset
                             << " count " << count;
      }
      ASSERT_EQ(bulk.engine()(), seq.engine()())
          << "n " << n << " offset " << offset;
    }
  }
}

/// normal(mean, stddev) must reproduce a fresh
/// std::normal_distribution(mean, stddev) per call for stddev > 0 (values
/// and engine position), and for stddev 0 — which the standard
/// distribution rejects — return `mean` while consuming the engine the
/// same way.
TEST(Rng, NormalMatchesStdDistributionAndAcceptsZeroStddev) {
  constexpr double kParams[][2] = {
      {0.0, 1.0}, {3.5, 0.25}, {-40.0, 2.0}, {1e-3, 1e6}, {0.0, 1e-9}};
  for (const std::uint64_t seed : kSeeds) {
    Rng rng(seed);
    std::mt19937_64 engine(seed);
    for (int i = 0; i < 10'000; ++i) {
      for (const auto& p : kParams) {
        ASSERT_EQ(rng.normal(p[0], p[1]),
                  std::normal_distribution<double>(p[0], p[1])(engine))
            << "seed " << seed << " draw " << i;
      }
    }
    EXPECT_EQ(rng.engine()(), engine());

    for (int i = 0; i < 1000; ++i) {
      const double mean = 0.5 * static_cast<double>(i) - 100.0;
      ASSERT_EQ(rng.normal(mean, 0.0), mean) << "seed " << seed;
      (void)std::normal_distribution<double>()(engine);
    }
    EXPECT_EQ(rng.engine()(), engine());
  }
}

INSTANTIATE_TEST_SUITE_P(Isa, RngIsa,
                         ::testing::Values(simd::Isa::kScalar,
                                           simd::Isa::kAvx2),
                         [](const ::testing::TestParamInfo<simd::Isa>& isa) {
                           return std::string(simd::isa_name(isa.param));
                         });

}  // namespace
}  // namespace tagwatch::util
