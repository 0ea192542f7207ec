// AVX2 kernel table (see simd.hpp for the dispatch contract).
//
// The one file in the tree allowed to touch raw vector intrinsics (the
// simd-discipline lint rule pins them here).  Every kernel is compiled
// with a per-function target("avx2") attribute instead of a file-level
// -mavx2 flag, so this TU links into any build and the CPUID probe in
// avx2_kernels() decides at runtime whether the table is usable.
//
// Bit-identity with the scalar kernels is by construction: the word
// kernels are integer AND/OR/ANDNOT plus a nibble-LUT popcount (exact),
// and the MT19937-64 and window kernels are the scalar recurrences and
// compares four or eight words at a time.  test_simd.cpp fuzzes
// every kernel against its scalar twin at adversarial widths.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#endif

#include <bit>

#include "util/simd.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

namespace tagwatch::util::simd {

namespace {

#define TAGWATCH_AVX2 __attribute__((target("avx2")))

/// Per-64-bit-lane popcount of v: nibble-LUT shuffle (vpshufb) for the
/// per-byte counts, then vpsadbw folds each 8-byte group into its lane.
TAGWATCH_AVX2 inline __m256i popcount_epi64(__m256i v) noexcept {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  const __m256i counts = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                         _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(counts, _mm256_setzero_si256());
}

/// Horizontal sum of the four 64-bit lanes.
TAGWATCH_AVX2 inline std::uint64_t hsum_epi64(__m256i v) noexcept {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i s = _mm_add_epi64(lo, hi);
  return static_cast<std::uint64_t>(_mm_extract_epi64(s, 0)) +
         static_cast<std::uint64_t>(_mm_extract_epi64(s, 1));
}

TAGWATCH_AVX2 std::size_t avx2_popcount_words(const std::uint64_t* w,
                                              std::size_t n) noexcept {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + i));
    acc = _mm256_add_epi64(acc, popcount_epi64(v));
  }
  std::size_t total = static_cast<std::size_t>(hsum_epi64(acc));
  for (; i < n; ++i) {
    total += static_cast<std::size_t>(std::popcount(w[i]));
  }
  return total;
}

TAGWATCH_AVX2 std::size_t avx2_and_popcount(const std::uint64_t* a,
                                            const std::uint64_t* b,
                                            std::size_t n) noexcept {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v = _mm256_and_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i)));
    acc = _mm256_add_epi64(acc, popcount_epi64(v));
  }
  std::size_t total = static_cast<std::size_t>(hsum_epi64(acc));
  for (; i < n; ++i) {
    total += static_cast<std::size_t>(std::popcount(a[i] & b[i]));
  }
  return total;
}

TAGWATCH_AVX2 std::size_t avx2_and_inplace_popcount(std::uint64_t* dst,
                                                    const std::uint64_t* src,
                                                    std::size_t n) noexcept {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v = _mm256_and_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), v);
    acc = _mm256_add_epi64(acc, popcount_epi64(v));
  }
  std::size_t total = static_cast<std::size_t>(hsum_epi64(acc));
  for (; i < n; ++i) {
    const std::uint64_t v = dst[i] & src[i];
    dst[i] = v;
    total += static_cast<std::size_t>(std::popcount(v));
  }
  return total;
}

TAGWATCH_AVX2 std::size_t avx2_andnot_inplace_removed(std::uint64_t* dst,
                                                      const std::uint64_t* src,
                                                      std::size_t n) noexcept {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    acc = _mm256_add_epi64(acc, popcount_epi64(_mm256_and_si256(d, s)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_andnot_si256(s, d));
  }
  std::size_t removed = static_cast<std::size_t>(hsum_epi64(acc));
  for (; i < n; ++i) {
    removed += static_cast<std::size_t>(std::popcount(dst[i] & src[i]));
    dst[i] &= ~src[i];
  }
  return removed;
}

TAGWATCH_AVX2 std::size_t avx2_or_inplace_added(std::uint64_t* dst,
                                                const std::uint64_t* src,
                                                std::size_t n) noexcept {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    acc = _mm256_add_epi64(acc, popcount_epi64(_mm256_andnot_si256(d, s)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_or_si256(d, s));
  }
  std::size_t added = static_cast<std::size_t>(hsum_epi64(acc));
  for (; i < n; ++i) {
    added += static_cast<std::size_t>(std::popcount(~dst[i] & src[i]));
    dst[i] |= src[i];
  }
  return added;
}

TAGWATCH_AVX2 std::size_t avx2_fused_and_columns(
    std::uint64_t* dst, const std::uint64_t* head,
    const std::uint64_t* const* cols, std::size_t n_cols,
    std::size_t n_words) noexcept {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n_words; i += 4) {
    __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(head + i));
    // Once the whole block is zero no later column can revive it.
    for (std::size_t c = 0; c < n_cols; ++c) {
      if (_mm256_testz_si256(v, v) != 0) break;
      v = _mm256_and_si256(
          v, _mm256_loadu_si256(
                 reinterpret_cast<const __m256i*>(cols[c] + i)));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), v);
    acc = _mm256_add_epi64(acc, popcount_epi64(v));
  }
  std::size_t total = static_cast<std::size_t>(hsum_epi64(acc));
  for (; i < n_words; ++i) {
    std::uint64_t v = head[i];
    for (std::size_t c = 0; c < n_cols && v != 0; ++c) v &= cols[c][i];
    dst[i] = v;
    total += static_cast<std::size_t>(std::popcount(v));
  }
  return total;
}

TAGWATCH_AVX2 std::size_t avx2_gather_and_popcount(const std::uint64_t* a,
                                                   const std::uint64_t* b,
                                                   const std::size_t* idx,
                                                   std::size_t n_idx) noexcept {
  static_assert(sizeof(std::size_t) == sizeof(std::int64_t));
  __m256i acc = _mm256_setzero_si256();
  std::size_t k = 0;
  for (; k + 4 <= n_idx; k += 4) {
    const __m256i vi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + k));
    const __m256i va = _mm256_i64gather_epi64(
        reinterpret_cast<const long long*>(a), vi, 8);
    const __m256i vb = _mm256_i64gather_epi64(
        reinterpret_cast<const long long*>(b), vi, 8);
    acc = _mm256_add_epi64(acc, popcount_epi64(_mm256_and_si256(va, vb)));
  }
  std::size_t total = static_cast<std::size_t>(hsum_epi64(acc));
  for (; k < n_idx; ++k) {
    total += static_cast<std::size_t>(std::popcount(a[idx[k]] & b[idx[k]]));
  }
  return total;
}

TAGWATCH_AVX2 std::size_t avx2_nonzero_indices(const std::uint64_t* w,
                                               std::size_t n,
                                               std::size_t* out) noexcept {
  std::size_t m = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + i));
    // All-zero blocks — the common case in narrowed coverages — skip in
    // one test; mixed blocks fall back to a per-word scan.
    if (_mm256_testz_si256(v, v) != 0) continue;
    for (std::size_t j = i; j < i + 4; ++j) {
      if (w[j] != 0) out[m++] = j;
    }
  }
  for (; i < n; ++i) {
    if (w[i] != 0) out[m++] = i;
  }
  return m;
}

TAGWATCH_AVX2 void avx2_scatter_words(std::uint64_t* dst,
                                      const std::uint64_t* src,
                                      const std::size_t* idx,
                                      std::size_t n_idx,
                                      std::size_t n_words) noexcept {
  const __m256i zero = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n_words; i += 4) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), zero);
  }
  for (; i < n_words; ++i) dst[i] = 0;
  // AVX2 has no scatter instruction; the listed copies stay scalar.
  for (std::size_t k = 0; k < n_idx; ++k) dst[idx[k]] = src[idx[k]];
}

/// Four twist steps: x[k..k+4) from x[k..k+5) and x[far..far+4).  The
/// caller keeps `far` on words that are final for this block.
TAGWATCH_AVX2 inline void mt64_twist4(std::uint64_t* x, std::size_t k,
                                      std::size_t far) noexcept {
  const __m256i upper =
      _mm256_set1_epi64x(static_cast<std::int64_t>(mt64::kUpperMask));
  const __m256i lower =
      _mm256_set1_epi64x(static_cast<std::int64_t>(mt64::kLowerMask));
  const __m256i matrix =
      _mm256_set1_epi64x(static_cast<std::int64_t>(mt64::kMatrixA));
  const __m256i hi =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + k));
  const __m256i lo =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + k + 1));
  const __m256i y = _mm256_or_si256(_mm256_and_si256(hi, upper),
                                    _mm256_and_si256(lo, lower));
  // (y & 1) ? A : 0 as a lane mask: 0 - (y & 1) is all-ones or zero.
  const __m256i odd = _mm256_sub_epi64(
      _mm256_setzero_si256(), _mm256_and_si256(y, _mm256_set1_epi64x(1)));
  const __m256i v = _mm256_xor_si256(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + far)),
      _mm256_xor_si256(_mm256_srli_epi64(y, 1),
                       _mm256_and_si256(odd, matrix)));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(x + k), v);
}

TAGWATCH_AVX2 void avx2_mt64_twist(std::uint64_t* x) noexcept {
  constexpr std::size_t n = mt64::kStateWords;
  constexpr std::size_t m = mt64::kShift;
  // First half: x[k + m] is still the previous block's word.  n - m is a
  // multiple of 4, and the lo load's last word x[k + 4] is never ahead
  // of the stores.
  std::size_t k = 0;
  for (; k < n - m; k += 4) mt64_twist4(x, k, k + m);
  // Second half: x[k + m - n] < n - m was finished by the first half.
  for (; k + 4 < n; k += 4) mt64_twist4(x, k, k + m - n);
  for (; k < n - 1; ++k) x[k] = mt64::twist_word(x[k], x[k + 1], x[k + m - n]);
  x[n - 1] = mt64::twist_word(x[n - 1], x[0], x[m - 1]);
}

TAGWATCH_AVX2 void avx2_mt64_temper_shift(const std::uint64_t* words,
                                          std::size_t n, unsigned shift,
                                          std::uint32_t* out) noexcept {
  const __m256i d = _mm256_set1_epi64x(0x5555555555555555LL);
  const __m256i b = _mm256_set1_epi64x(0x71d67fffeda60000LL);
  const __m256i c =
      _mm256_set1_epi64x(static_cast<std::int64_t>(0xfff7eee000000000ULL));
  const __m128i count = _mm_cvtsi32_si128(static_cast<int>(shift));
  // Low dword of each 64-bit lane into the low 128 bits.
  const __m256i pack = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i z =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + i));
    z = _mm256_xor_si256(z, _mm256_and_si256(_mm256_srli_epi64(z, 29), d));
    z = _mm256_xor_si256(z, _mm256_and_si256(_mm256_slli_epi64(z, 17), b));
    z = _mm256_xor_si256(z, _mm256_and_si256(_mm256_slli_epi64(z, 37), c));
    z = _mm256_xor_si256(z, _mm256_srli_epi64(z, 43));
    z = _mm256_permutevar8x32_epi32(_mm256_srl_epi64(z, count), pack);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm256_castsi256_si128(z));
  }
  for (; i < n; ++i) {
    out[i] = static_cast<std::uint32_t>(mt64::temper(words[i]) >> shift);
  }
}

TAGWATCH_AVX2 std::size_t avx2_window_indices_u32(const std::uint32_t* v,
                                                  std::size_t n,
                                                  std::uint32_t base,
                                                  std::uint32_t width,
                                                  std::uint32_t* out) noexcept {
  if (width == 0) return 0;
  const __m256i vbase = _mm256_set1_epi32(static_cast<int>(base));
  const __m256i vlast = _mm256_set1_epi32(static_cast<int>(width - 1));
  std::size_t m = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // Eight lanes of (v - base) <= width - 1, unsigned: min_epu32(x, last)
    // equals x exactly when x is in range.
    const __m256i x = _mm256_sub_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i)), vbase);
    const __m256i in = _mm256_cmpeq_epi32(_mm256_min_epu32(x, vlast), x);
    auto bits = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(in)));
    while (bits != 0) {
      out[m++] = static_cast<std::uint32_t>(
          i + static_cast<std::size_t>(std::countr_zero(bits)));
      bits &= bits - 1;
    }
  }
  for (; i < n; ++i) {
    if (v[i] - base < width) out[m++] = static_cast<std::uint32_t>(i);
  }
  return m;
}

#undef TAGWATCH_AVX2

constexpr KernelTable kAvx2Table = {
    Isa::kAvx2,
    &avx2_popcount_words,
    &avx2_and_popcount,
    &avx2_and_inplace_popcount,
    &avx2_andnot_inplace_removed,
    &avx2_or_inplace_added,
    &avx2_fused_and_columns,
    &avx2_gather_and_popcount,
    &avx2_nonzero_indices,
    &avx2_scatter_words,
    &avx2_mt64_twist,
    &avx2_mt64_temper_shift,
    &avx2_window_indices_u32,
};

}  // namespace

const KernelTable* avx2_kernels() noexcept {
  static const bool supported = __builtin_cpu_supports("avx2") != 0;
  return supported ? &kAvx2Table : nullptr;
}

}  // namespace tagwatch::util::simd

#else  // non-x86 or non-GNU toolchain: no AVX2 table.

namespace tagwatch::util::simd {

const KernelTable* avx2_kernels() noexcept { return nullptr; }

}  // namespace tagwatch::util::simd

#endif
