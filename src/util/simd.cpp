#include "util/simd.hpp"

#include <atomic>
#include <bit>

namespace tagwatch::util::simd {

namespace {

// ------------------------------------------------------- scalar kernels
// The reference implementations.  Every AVX2 kernel in simd_avx2.cpp is
// differentially fuzzed against these (test_simd.cpp), and the candidate
// sweep/planner oracles run on top of them when scalar is forced.

std::size_t scalar_popcount_words(const std::uint64_t* w,
                                  std::size_t n) noexcept {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total += static_cast<std::size_t>(std::popcount(w[i]));
  }
  return total;
}

std::size_t scalar_and_popcount(const std::uint64_t* a, const std::uint64_t* b,
                                std::size_t n) noexcept {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total += static_cast<std::size_t>(std::popcount(a[i] & b[i]));
  }
  return total;
}

std::size_t scalar_and_inplace_popcount(std::uint64_t* dst,
                                        const std::uint64_t* src,
                                        std::size_t n) noexcept {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t v = dst[i] & src[i];
    dst[i] = v;
    total += static_cast<std::size_t>(std::popcount(v));
  }
  return total;
}

std::size_t scalar_andnot_inplace_removed(std::uint64_t* dst,
                                          const std::uint64_t* src,
                                          std::size_t n) noexcept {
  std::size_t removed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    removed += static_cast<std::size_t>(std::popcount(dst[i] & src[i]));
    dst[i] &= ~src[i];
  }
  return removed;
}

std::size_t scalar_or_inplace_added(std::uint64_t* dst,
                                    const std::uint64_t* src,
                                    std::size_t n) noexcept {
  std::size_t added = 0;
  for (std::size_t i = 0; i < n; ++i) {
    added += static_cast<std::size_t>(std::popcount(~dst[i] & src[i]));
    dst[i] |= src[i];
  }
  return added;
}

std::size_t scalar_fused_and_columns(std::uint64_t* dst,
                                     const std::uint64_t* head,
                                     const std::uint64_t* const* cols,
                                     std::size_t n_cols,
                                     std::size_t n_words) noexcept {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n_words; ++i) {
    std::uint64_t v = head[i];
    // Most words die within a few columns; once v hits zero the remaining
    // ANDs cannot revive it, so stop early.
    for (std::size_t c = 0; c < n_cols && v != 0; ++c) v &= cols[c][i];
    dst[i] = v;
    total += static_cast<std::size_t>(std::popcount(v));
  }
  return total;
}

std::size_t scalar_gather_and_popcount(const std::uint64_t* a,
                                       const std::uint64_t* b,
                                       const std::size_t* idx,
                                       std::size_t n_idx) noexcept {
  std::size_t total = 0;
  for (std::size_t k = 0; k < n_idx; ++k) {
    total += static_cast<std::size_t>(std::popcount(a[idx[k]] & b[idx[k]]));
  }
  return total;
}

std::size_t scalar_nonzero_indices(const std::uint64_t* w, std::size_t n,
                                   std::size_t* out) noexcept {
  std::size_t m = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (w[i] != 0) out[m++] = i;
  }
  return m;
}

void scalar_scatter_words(std::uint64_t* dst, const std::uint64_t* src,
                          const std::size_t* idx, std::size_t n_idx,
                          std::size_t n_words) noexcept {
  for (std::size_t i = 0; i < n_words; ++i) dst[i] = 0;
  for (std::size_t k = 0; k < n_idx; ++k) dst[idx[k]] = src[idx[k]];
}

void scalar_mt64_twist(std::uint64_t* x) noexcept {
  constexpr std::size_t n = mt64::kStateWords;
  constexpr std::size_t m = mt64::kShift;
  std::size_t k = 0;
  for (; k < n - m; ++k) x[k] = mt64::twist_word(x[k], x[k + 1], x[k + m]);
  for (; k < n - 1; ++k) x[k] = mt64::twist_word(x[k], x[k + 1], x[k + m - n]);
  x[n - 1] = mt64::twist_word(x[n - 1], x[0], x[m - 1]);
}

void scalar_mt64_temper_shift(const std::uint64_t* words, std::size_t n,
                              unsigned shift, std::uint32_t* out) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint32_t>(mt64::temper(words[i]) >> shift);
  }
}

std::size_t scalar_window_indices_u32(const std::uint32_t* v, std::size_t n,
                                      std::uint32_t base, std::uint32_t width,
                                      std::uint32_t* out) noexcept {
  std::size_t m = 0;
  for (std::size_t i = 0; i < n; ++i) {
    // Unsigned wrap: values below base land far above width.
    if (v[i] - base < width) out[m++] = static_cast<std::uint32_t>(i);
  }
  return m;
}

constexpr KernelTable kScalarTable = {
    Isa::kScalar,
    &scalar_popcount_words,
    &scalar_and_popcount,
    &scalar_and_inplace_popcount,
    &scalar_andnot_inplace_removed,
    &scalar_or_inplace_added,
    &scalar_fused_and_columns,
    &scalar_gather_and_popcount,
    &scalar_nonzero_indices,
    &scalar_scatter_words,
    &scalar_mt64_twist,
    &scalar_mt64_temper_shift,
    &scalar_window_indices_u32,
};

// --------------------------------------------------------------- dispatch

/// The live table; initialized on first use from the CPUID probe.
std::atomic<const KernelTable*> g_active{nullptr};

const KernelTable* resolve_active() noexcept {
  const KernelTable* t = g_active.load(std::memory_order_acquire);
  if (t == nullptr) {
    // First call: default to the best detected level.  Concurrent first
    // calls race benignly — both resolve the same table.
    t = &kernels_for(detected_isa());
    g_active.store(t, std::memory_order_release);
  }
  return t;
}

}  // namespace

const KernelTable& scalar_kernels() noexcept { return kScalarTable; }

const KernelTable& kernels_for(Isa isa) noexcept {
  if (isa == Isa::kAvx2) {
    const KernelTable* avx2 = avx2_kernels();
    if (avx2 != nullptr) return *avx2;
  }
  return kScalarTable;
}

Isa detected_isa() noexcept {
  return avx2_kernels() != nullptr ? Isa::kAvx2 : Isa::kScalar;
}

Isa active_isa() noexcept { return resolve_active()->isa; }

Isa set_active_isa(Isa isa) noexcept {
  const KernelTable& table = kernels_for(isa);
  g_active.store(&table, std::memory_order_release);
  return table.isa;
}

const char* isa_name(Isa isa) noexcept {
  return isa == Isa::kAvx2 ? "avx2" : "scalar";
}

std::size_t popcount_words(const std::uint64_t* w, std::size_t n) noexcept {
  return resolve_active()->popcount_words(w, n);
}

std::size_t and_popcount(const std::uint64_t* a, const std::uint64_t* b,
                         std::size_t n) noexcept {
  return resolve_active()->and_popcount(a, b, n);
}

std::size_t and_inplace_popcount(std::uint64_t* dst, const std::uint64_t* src,
                                 std::size_t n) noexcept {
  return resolve_active()->and_inplace_popcount(dst, src, n);
}

std::size_t andnot_inplace_removed(std::uint64_t* dst,
                                   const std::uint64_t* src,
                                   std::size_t n) noexcept {
  return resolve_active()->andnot_inplace_removed(dst, src, n);
}

std::size_t or_inplace_added(std::uint64_t* dst, const std::uint64_t* src,
                             std::size_t n) noexcept {
  return resolve_active()->or_inplace_added(dst, src, n);
}

std::size_t fused_and_columns(std::uint64_t* dst, const std::uint64_t* head,
                              const std::uint64_t* const* cols,
                              std::size_t n_cols,
                              std::size_t n_words) noexcept {
  return resolve_active()->fused_and_columns(dst, head, cols, n_cols,
                                             n_words);
}

std::size_t gather_and_popcount(const std::uint64_t* a, const std::uint64_t* b,
                                const std::size_t* idx,
                                std::size_t n_idx) noexcept {
  return resolve_active()->gather_and_popcount(a, b, idx, n_idx);
}

std::size_t nonzero_indices(const std::uint64_t* w, std::size_t n,
                            std::size_t* out) noexcept {
  return resolve_active()->nonzero_indices(w, n, out);
}

void scatter_words(std::uint64_t* dst, const std::uint64_t* src,
                   const std::size_t* idx, std::size_t n_idx,
                   std::size_t n_words) noexcept {
  resolve_active()->scatter_words(dst, src, idx, n_idx, n_words);
}

void mt64_twist(std::uint64_t* state) noexcept {
  resolve_active()->mt64_twist(state);
}

void mt64_temper_shift(const std::uint64_t* words, std::size_t n,
                       unsigned shift, std::uint32_t* out) noexcept {
  resolve_active()->mt64_temper_shift(words, n, shift, out);
}

std::size_t window_indices_u32(const std::uint32_t* v, std::size_t n,
                               std::uint32_t base, std::uint32_t width,
                               std::uint32_t* out) noexcept {
  return resolve_active()->window_indices_u32(v, n, base, width, out);
}

}  // namespace tagwatch::util::simd
