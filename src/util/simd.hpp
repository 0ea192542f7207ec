// Runtime-dispatched SIMD kernels for the Phase-II planning hot loops and
// the Gen2 slot engine (util::Rng's MT19937-64 blocks, the slot-frame
// window scan).
//
// Every kernel has two implementations — a portable scalar loop and an
// AVX2 version — behind one function-pointer table selected at startup
// from a CPUID probe.  The two implementations are *bit-identical* by
// construction: the nine word kernels are pure integer
// AND/OR/ANDNOT/popcount and the three slot-engine kernels are integer
// shift/AND/XOR/compare.  A kernel earns its slot by an end-to-end
// effect: the scalar word table pays a libgcc popcount call per word, and
// the Gen2 kernels carry the cold-start cycle.  Differential fuzz tests
// (test_simd.cpp) enforce the equivalence at adversarial widths, and the
// plan-equivalence suite enforces it end to end: plans and journals are
// byte-identical across ISAs.
//
// Dispatch is process-global and set once: active_isa() defaults to
// detected_isa() and can only be lowered (e.g. forced to scalar for
// differential measurement) via set_active_isa(), which clamps to the
// detected level so an AVX2 kernel can never run on a machine without
// AVX2.  The table is process state, so only process-level code (tests,
// benches, tools' main) repoints it: the simd-discipline lint rule flags
// every set_active_isa() call in src/ outside this module, and pins raw
// intrinsics to src/util/simd_avx2.cpp.
#pragma once

#include <cstddef>
#include <cstdint>

namespace tagwatch::util::simd {

/// Instruction-set level of a kernel table.
enum class Isa {
  kScalar = 0,  ///< Portable C++ loops; always available.
  kAvx2 = 1,    ///< 256-bit integer/double kernels (x86-64 with AVX2).
};

/// Highest ISA level this CPU supports (probed once, then cached).
Isa detected_isa() noexcept;

/// The ISA level the kernels below currently dispatch to.  Defaults to
/// detected_isa() on first use.
Isa active_isa() noexcept;

/// Selects the dispatch level, clamped to detected_isa() — requesting
/// kAvx2 on a non-AVX2 machine leaves the scalar table active.  Returns
/// the level actually activated.  Not thread-safe against concurrent
/// kernel calls; call it at process startup or between measurement
/// phases, never from inside a TaskPool region.
Isa set_active_isa(Isa isa) noexcept;

/// Human-readable name ("scalar" / "avx2") for logs and BENCH metadata.
const char* isa_name(Isa isa) noexcept;

// ---------------------------------------------------------- word kernels
// All pointers are to 64-bit word arrays of length `n` (zero-length is
// valid).  `dst` may alias `src`/`head` exactly (same pointer) or not at
// all; partial overlap is undefined.  No alignment is required, but
// 64-byte-aligned arrays (util::AlignedAllocator) take the fast unaligned
// load path without cache-line splits.

/// Σ popcount(w[i]).
std::size_t popcount_words(const std::uint64_t* w, std::size_t n) noexcept;

/// Σ popcount(a[i] & b[i]) without storing — the |V_i ∩ V| gain term.
std::size_t and_popcount(const std::uint64_t* a, const std::uint64_t* b,
                         std::size_t n) noexcept;

/// dst[i] &= src[i]; returns the popcount of the result — the candidate
/// sweep's mask-extension step.
std::size_t and_inplace_popcount(std::uint64_t* dst, const std::uint64_t* src,
                                 std::size_t n) noexcept;

/// Returns Σ popcount(dst[i] & src[i]), then dst[i] &= ~src[i] — the
/// remaining-targets subtraction (V ← V − (V ∩ S)).
std::size_t andnot_inplace_removed(std::uint64_t* dst,
                                   const std::uint64_t* src,
                                   std::size_t n) noexcept;

/// Returns Σ popcount(~dst[i] & src[i]), then dst[i] |= src[i] — the
/// covered-union merge.
std::size_t or_inplace_added(std::uint64_t* dst, const std::uint64_t* src,
                             std::size_t n) noexcept;

/// dst[i] = head[i] & cols[0][i] & … & cols[n_cols-1][i]; returns the
/// popcount of dst.  The fused multi-column AND of the candidate sweep's
/// skip region.
/// Columns are ANDed in order with an early-zero cut (results identical
/// either way — AND is monotone).  `dst` may alias `head`, never a column.
std::size_t fused_and_columns(std::uint64_t* dst, const std::uint64_t* head,
                              const std::uint64_t* const* cols,
                              std::size_t n_cols, std::size_t n_words) noexcept;

/// Σ popcount(a[idx[k]] & b[idx[k]]) over the `n_idx` word indices at
/// `idx` — the sparse gather form of and_popcount for coverages whose
/// nonzero words are already known.
std::size_t gather_and_popcount(const std::uint64_t* a, const std::uint64_t* b,
                                const std::size_t* idx,
                                std::size_t n_idx) noexcept;

/// Writes the indices of the nonzero words of w[0..n) to `out` (ascending)
/// and returns how many there are.  `out` must hold n entries.
std::size_t nonzero_indices(const std::uint64_t* w, std::size_t n,
                            std::size_t* out) noexcept;

/// Sparse scatter-copy: zero-fills dst[0..n_words), then copies
/// dst[idx[k]] = src[idx[k]] for the n_idx listed indices — the sparse
/// coverage materialization.  dst must not alias src.
void scatter_words(std::uint64_t* dst, const std::uint64_t* src,
                   const std::size_t* idx, std::size_t n_idx,
                   std::size_t n_words) noexcept;

// -------------------------------------------------- MT19937-64 kernels
// The block operations of util::Rng's engine (util/rng.hpp) over the
// 312-word MT19937-64 state, with the parameters of std::mt19937_64.  Both
// implementations are 64-bit integer shift/AND/XOR only, so their output
// is the std::mt19937_64 sequence bit for bit.

namespace mt64 {
inline constexpr std::size_t kStateWords = 312;  ///< n
inline constexpr std::size_t kShift = 156;       ///< m
inline constexpr std::uint64_t kMatrixA = 0xb5026f5aa96619e9ULL;
inline constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
inline constexpr std::uint64_t kLowerMask = ~kUpperMask;

/// One twist step: the new word from words k (`hi`), k + 1 (`lo`) and
/// k + m mod n (`far`).
constexpr std::uint64_t twist_word(std::uint64_t hi, std::uint64_t lo,
                                   std::uint64_t far) noexcept {
  const std::uint64_t y = (hi & kUpperMask) | (lo & kLowerMask);
  // (y & 1) ? A : 0 without a branch: a coin-flip branch mispredicts
  // half the time.
  return far ^ (y >> 1) ^ ((std::uint64_t{0} - (y & 1)) & kMatrixA);
}

/// One output's tempering of a state word.
constexpr std::uint64_t temper(std::uint64_t z) noexcept {
  z ^= (z >> 29) & 0x5555555555555555ULL;
  z ^= (z << 17) & 0x71d67fffeda60000ULL;
  z ^= (z << 37) & 0xfff7eee000000000ULL;
  z ^= z >> 43;
  return z;
}
}  // namespace mt64

/// Regenerates the kStateWords-word state block in place (the "twist"
/// that runs once every 312 outputs).
void mt64_twist(std::uint64_t* state) noexcept;

/// out[i] = temper(words[i]) >> shift for i in [0, n), with shift in
/// [33, 63]: the top 64 - shift bits of n consecutive outputs.  For a
/// power-of-two range 2^q that is exactly the Lemire downscale with no
/// rejection, so one call replaces n slot-counter draws.
void mt64_temper_shift(const std::uint64_t* words, std::size_t n,
                       unsigned shift, std::uint32_t* out) noexcept;

// ------------------------------------------------ Gen2 slot-frame kernel

/// Writes the indices i of v[0..n) with base <= v[i] < base + width
/// (ascending) to `out` and returns how many there are; `out` must hold n
/// entries.  The Gen2 slot frame's window fill: which participants'
/// counters fall in the next `width` slots.
std::size_t window_indices_u32(const std::uint32_t* v, std::size_t n,
                               std::uint32_t base, std::uint32_t width,
                               std::uint32_t* out) noexcept;

// ------------------------------------------------------------- internals
// The dispatch table.  Exposed so the differential tests and the benches
// can call a *specific* implementation regardless of the active level;
// production code uses the free functions above.
struct KernelTable {
  Isa isa = Isa::kScalar;
  std::size_t (*popcount_words)(const std::uint64_t*, std::size_t) noexcept;
  std::size_t (*and_popcount)(const std::uint64_t*, const std::uint64_t*,
                              std::size_t) noexcept;
  std::size_t (*and_inplace_popcount)(std::uint64_t*, const std::uint64_t*,
                                      std::size_t) noexcept;
  std::size_t (*andnot_inplace_removed)(std::uint64_t*, const std::uint64_t*,
                                        std::size_t) noexcept;
  std::size_t (*or_inplace_added)(std::uint64_t*, const std::uint64_t*,
                                  std::size_t) noexcept;
  std::size_t (*fused_and_columns)(std::uint64_t*, const std::uint64_t*,
                                   const std::uint64_t* const*, std::size_t,
                                   std::size_t) noexcept;
  std::size_t (*gather_and_popcount)(const std::uint64_t*,
                                     const std::uint64_t*, const std::size_t*,
                                     std::size_t) noexcept;
  std::size_t (*nonzero_indices)(const std::uint64_t*, std::size_t,
                                 std::size_t*) noexcept;
  void (*scatter_words)(std::uint64_t*, const std::uint64_t*,
                        const std::size_t*, std::size_t,
                        std::size_t) noexcept;
  void (*mt64_twist)(std::uint64_t*) noexcept;
  void (*mt64_temper_shift)(const std::uint64_t*, std::size_t, unsigned,
                            std::uint32_t*) noexcept;
  std::size_t (*window_indices_u32)(const std::uint32_t*, std::size_t,
                                    std::uint32_t, std::uint32_t,
                                    std::uint32_t*) noexcept;
};

/// The scalar table (always valid).
const KernelTable& scalar_kernels() noexcept;

/// The AVX2 table, or nullptr when this build/CPU cannot run it.
const KernelTable* avx2_kernels() noexcept;

/// Table for `isa`, clamped to detected_isa().
const KernelTable& kernels_for(Isa isa) noexcept;

}  // namespace tagwatch::util::simd
