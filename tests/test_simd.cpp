// Differential fuzz of the AVX2 kernel table against its scalar twin
// (the bit-identity contract of util/simd.hpp), plus dispatch-state
// tests.  Every kernel is exercised at adversarial widths — zero words,
// one word, non-multiple-of-4 tails, all-ones, all-zeros, random — and
// the in-place kernels additionally with dst aliasing src exactly.  When
// the build or CPU has no AVX2 table the differential cases skip.
#include "util/simd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <vector>

#include "util/rng.hpp"

namespace tagwatch::util::simd {
namespace {

// CI's forced-scalar pass sets TAGWATCH_TEST_FORCE_SCALAR=1 so the whole
// suite runs against the portable kernels even on AVX2 hardware —
// proving no code path silently depends on the vector implementations.
// A static initializer (not a gtest Environment) so the pin is in place
// before any test file's own statics read the active table.
const bool g_forced_scalar = [] {
  const char* v = std::getenv("TAGWATCH_TEST_FORCE_SCALAR");
  if (v == nullptr || v[0] == '\0' || v[0] == '0') return false;
  set_active_isa(Isa::kScalar);
  return true;
}();

// Widths spanning empty, sub-block, exact-block, and ragged-tail shapes
// (the AVX2 loops process 4 words per iteration).
constexpr std::size_t kWidths[] = {0, 1, 2, 3, 4, 5, 7, 8, 9,
                                   15, 16, 17, 31, 32, 33, 100, 257};

enum class Fill { kZeros, kOnes, kRandom };
constexpr Fill kFills[] = {Fill::kZeros, Fill::kOnes, Fill::kRandom};

std::vector<std::uint64_t> make_words(std::size_t n, Fill fill, Rng& rng) {
  std::vector<std::uint64_t> w(n);
  for (auto& v : w) {
    switch (fill) {
      case Fill::kZeros: v = 0; break;
      case Fill::kOnes: v = ~std::uint64_t{0}; break;
      case Fill::kRandom:
        // Mix sparse and dense words so the early-zero cuts get exercised.
        v = rng.uniform_u64(0, 3) == 0
                ? 0
                : rng.uniform_u64(0, std::numeric_limits<std::uint64_t>::max());
        break;
    }
  }
  return w;
}

class SimdDifferential : public ::testing::Test {
 protected:
  void SetUp() override {
    if (avx2_kernels() == nullptr) {
      GTEST_SKIP() << "no AVX2 table on this build/CPU";
    }
  }
  const KernelTable& scalar_ = scalar_kernels();
  const KernelTable& avx2_ = *avx2_kernels();
  Rng rng_{0x51d0f1d0};
};

TEST_F(SimdDifferential, PopcountWords) {
  for (const std::size_t n : kWidths) {
    for (const Fill fill : kFills) {
      const auto w = make_words(n, fill, rng_);
      EXPECT_EQ(scalar_.popcount_words(w.data(), n),
                avx2_.popcount_words(w.data(), n))
          << "n=" << n;
    }
  }
}

TEST_F(SimdDifferential, AndPopcount) {
  for (const std::size_t n : kWidths) {
    for (const Fill fill : kFills) {
      const auto a = make_words(n, fill, rng_);
      const auto b = make_words(n, Fill::kRandom, rng_);
      EXPECT_EQ(scalar_.and_popcount(a.data(), b.data(), n),
                avx2_.and_popcount(a.data(), b.data(), n))
          << "n=" << n;
    }
  }
}

// Shared driver for the three in-place word kernels: runs both tables on
// separate copies and compares the returned count AND the mutated words,
// then repeats with dst aliasing src exactly.
template <typename Kernel>
void check_inplace(const KernelTable& scalar, const KernelTable& avx2,
                   Kernel member, Rng& rng) {
  for (const std::size_t n : kWidths) {
    for (const Fill fill : kFills) {
      const auto dst0 = make_words(n, Fill::kRandom, rng);
      const auto src = make_words(n, fill, rng);
      auto dst_s = dst0;
      auto dst_v = dst0;
      const std::size_t r_s = (scalar.*member)(dst_s.data(), src.data(), n);
      const std::size_t r_v = (avx2.*member)(dst_v.data(), src.data(), n);
      EXPECT_EQ(r_s, r_v) << "n=" << n;
      EXPECT_EQ(dst_s, dst_v) << "n=" << n;

      // Exact aliasing: dst == src is allowed by the contract.
      auto alias_s = dst0;
      auto alias_v = dst0;
      const std::size_t a_s =
          (scalar.*member)(alias_s.data(), alias_s.data(), n);
      const std::size_t a_v = (avx2.*member)(alias_v.data(), alias_v.data(), n);
      EXPECT_EQ(a_s, a_v) << "aliased n=" << n;
      EXPECT_EQ(alias_s, alias_v) << "aliased n=" << n;
    }
  }
}

TEST_F(SimdDifferential, AndInplacePopcount) {
  check_inplace(scalar_, avx2_, &KernelTable::and_inplace_popcount, rng_);
}

TEST_F(SimdDifferential, AndnotInplaceRemoved) {
  check_inplace(scalar_, avx2_, &KernelTable::andnot_inplace_removed, rng_);
}

TEST_F(SimdDifferential, OrInplaceAdded) {
  check_inplace(scalar_, avx2_, &KernelTable::or_inplace_added, rng_);
}

TEST_F(SimdDifferential, FusedAndColumns) {
  for (const std::size_t n : kWidths) {
    for (std::size_t n_cols = 0; n_cols <= 5; ++n_cols) {
      const auto head = make_words(n, Fill::kRandom, rng_);
      std::vector<std::vector<std::uint64_t>> cols;
      std::vector<const std::uint64_t*> col_ptrs;
      for (std::size_t c = 0; c < n_cols; ++c) {
        // Include an all-zero column sometimes to hit the early-zero cut.
        cols.push_back(make_words(
            n, c == 2 ? Fill::kZeros : Fill::kRandom, rng_));
        col_ptrs.push_back(cols.back().data());
      }
      std::vector<std::uint64_t> dst_s(n), dst_v(n);
      const std::size_t r_s = scalar_.fused_and_columns(
          dst_s.data(), head.data(), col_ptrs.data(), n_cols, n);
      const std::size_t r_v = avx2_.fused_and_columns(
          dst_v.data(), head.data(), col_ptrs.data(), n_cols, n);
      EXPECT_EQ(r_s, r_v) << "n=" << n << " cols=" << n_cols;
      EXPECT_EQ(dst_s, dst_v) << "n=" << n << " cols=" << n_cols;

      // dst aliasing head is allowed.
      auto alias_s = head;
      auto alias_v = head;
      const std::size_t a_s = scalar_.fused_and_columns(
          alias_s.data(), alias_s.data(), col_ptrs.data(), n_cols, n);
      const std::size_t a_v = avx2_.fused_and_columns(
          alias_v.data(), alias_v.data(), col_ptrs.data(), n_cols, n);
      EXPECT_EQ(a_s, a_v) << "aliased n=" << n << " cols=" << n_cols;
      EXPECT_EQ(alias_s, alias_v) << "aliased n=" << n << " cols=" << n_cols;
    }
  }
}

TEST_F(SimdDifferential, GatherAndPopcount) {
  for (const std::size_t n : kWidths) {
    if (n == 0) continue;
    const auto a = make_words(n, Fill::kRandom, rng_);
    const auto b = make_words(n, Fill::kRandom, rng_);
    // Index lists of every length 0..n over distinct ascending indices.
    for (std::size_t n_idx = 0; n_idx <= n; n_idx += (n_idx < 5 ? 1 : 7)) {
      std::vector<std::size_t> idx;
      for (std::size_t k = 0; k < n_idx; ++k) {
        idx.push_back(k * n / (n_idx == 0 ? 1 : n_idx));
      }
      EXPECT_EQ(scalar_.gather_and_popcount(a.data(), b.data(), idx.data(),
                                            idx.size()),
                avx2_.gather_and_popcount(a.data(), b.data(), idx.data(),
                                          idx.size()))
          << "n=" << n << " n_idx=" << idx.size();
    }
  }
}

TEST_F(SimdDifferential, NonzeroIndices) {
  for (const std::size_t n : kWidths) {
    for (const Fill fill : kFills) {
      const auto w = make_words(n, fill, rng_);
      std::vector<std::size_t> out_s(n + 1, ~std::size_t{0});
      std::vector<std::size_t> out_v(n + 1, ~std::size_t{0});
      const std::size_t r_s = scalar_.nonzero_indices(w.data(), n,
                                                      out_s.data());
      const std::size_t r_v = avx2_.nonzero_indices(w.data(), n, out_v.data());
      EXPECT_EQ(r_s, r_v) << "n=" << n;
      EXPECT_EQ(out_s, out_v) << "n=" << n;
    }
  }
}

TEST_F(SimdDifferential, ScatterWords) {
  for (const std::size_t n : kWidths) {
    const auto src = make_words(n, Fill::kRandom, rng_);
    for (std::size_t n_idx = 0; n_idx <= n; n_idx += (n_idx < 5 ? 1 : 11)) {
      std::vector<std::size_t> idx;
      for (std::size_t k = 0; k < n_idx; ++k) {
        idx.push_back(k * n / n_idx);
      }
      idx.erase(std::unique(idx.begin(), idx.end()), idx.end());
      std::vector<std::uint64_t> dst_s(n, ~std::uint64_t{0});
      std::vector<std::uint64_t> dst_v(n, ~std::uint64_t{0});
      scalar_.scatter_words(dst_s.data(), src.data(), idx.data(), idx.size(),
                            n);
      avx2_.scatter_words(dst_v.data(), src.data(), idx.data(), idx.size(), n);
      EXPECT_EQ(dst_s, dst_v) << "n=" << n << " n_idx=" << idx.size();
    }
  }
}

TEST_F(SimdDifferential, Mt64Twist) {
  for (int round = 0; round < 64; ++round) {
    std::vector<std::uint64_t> s(mt64::kStateWords);
    for (auto& w : s) w = rng_.engine()();
    if (round == 0) std::fill(s.begin(), s.end(), 0);
    if (round == 1) std::fill(s.begin(), s.end(), ~std::uint64_t{0});
    std::vector<std::uint64_t> v = s;
    scalar_.mt64_twist(s.data());
    avx2_.mt64_twist(v.data());
    ASSERT_EQ(s, v) << "round " << round;
  }
}

TEST_F(SimdDifferential, Mt64TemperShift) {
  for (const std::size_t n : kWidths) {
    std::vector<std::uint64_t> words(n);
    for (auto& w : words) w = rng_.engine()();
    for (unsigned shift = 33; shift <= 63; ++shift) {
      std::vector<std::uint32_t> s(n + 1, 7), v(n + 1, 7);
      scalar_.mt64_temper_shift(words.data(), n, shift, s.data());
      avx2_.mt64_temper_shift(words.data(), n, shift, v.data());
      ASSERT_EQ(s, v) << "n=" << n << " shift=" << shift;
      EXPECT_EQ(v[n], 7u) << "wrote past n";
    }
  }
}

TEST_F(SimdDifferential, WindowIndicesU32) {
  constexpr std::uint32_t kBases[] = {0, 1, 31, 1000, 0xfffffff0u};
  for (const std::size_t n : kWidths) {
    std::vector<std::uint32_t> v(n);
    for (auto& x : v) x = rng_.below(64) == 0 ? ~0u : rng_.below(2048);
    for (const std::uint32_t base : kBases) {
      for (const std::uint32_t width : {0u, 1u, 32u, 1000u, ~0u}) {
        std::vector<std::uint32_t> s(n + 1, 7), a(n + 1, 7);
        const std::size_t ms = scalar_.window_indices_u32(v.data(), n, base,
                                                          width, s.data());
        const std::size_t ma =
            avx2_.window_indices_u32(v.data(), n, base, width, a.data());
        ASSERT_EQ(ms, ma) << "n=" << n << " base=" << base << " w=" << width;
        s.resize(ms);
        a.resize(ma);
        ASSERT_EQ(s, a) << "n=" << n << " base=" << base << " w=" << width;
      }
    }
  }
}

// ------------------------------------------------------- dispatch state

TEST(SimdDispatch, DetectedIsValidAndTablesAgreeWithProbe) {
  const Isa detected = detected_isa();
  if (detected == Isa::kAvx2) {
    ASSERT_NE(avx2_kernels(), nullptr);
    EXPECT_EQ(avx2_kernels()->isa, Isa::kAvx2);
  } else {
    EXPECT_EQ(avx2_kernels(), nullptr);
  }
  EXPECT_EQ(scalar_kernels().isa, Isa::kScalar);
}

TEST(SimdDispatch, SetActiveClampsToDetected) {
  const Isa original = active_isa();
  EXPECT_EQ(set_active_isa(Isa::kScalar), Isa::kScalar);
  EXPECT_EQ(active_isa(), Isa::kScalar);
  const Isa raised = set_active_isa(Isa::kAvx2);
  EXPECT_EQ(raised, detected_isa());  // clamped on non-AVX2 machines
  EXPECT_EQ(active_isa(), raised);
  set_active_isa(original);
}

TEST(SimdDispatch, KernelsForClampsAndNames) {
  EXPECT_EQ(&kernels_for(Isa::kScalar), &scalar_kernels());
  const KernelTable& t = kernels_for(Isa::kAvx2);
  if (avx2_kernels() != nullptr) {
    EXPECT_EQ(&t, avx2_kernels());
  } else {
    EXPECT_EQ(&t, &scalar_kernels());
  }
  EXPECT_STREQ(isa_name(Isa::kScalar), "scalar");
  EXPECT_STREQ(isa_name(Isa::kAvx2), "avx2");
}

// The free functions honor the active table: force scalar, compute, then
// restore — results must be identical either way (bit-identity), which
// also smoke-tests dispatch through the atomic table pointer.
TEST(SimdDispatch, FreeFunctionsFollowActiveTable) {
  Rng rng(0xd15ba7c4);
  std::vector<std::uint64_t> a(33), b(33);
  for (auto& v : a) v = rng.uniform_u64(0, ~std::uint64_t{0});
  for (auto& v : b) v = rng.uniform_u64(0, ~std::uint64_t{0});
  const Isa original = active_isa();
  set_active_isa(Isa::kScalar);
  const std::size_t scalar_result = and_popcount(a.data(), b.data(), a.size());
  set_active_isa(detected_isa());
  const std::size_t native_result = and_popcount(a.data(), b.data(), a.size());
  set_active_isa(original);
  EXPECT_EQ(scalar_result, native_result);
}

}  // namespace
}  // namespace tagwatch::util::simd
