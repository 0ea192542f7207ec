// Phase-II planning throughput: the controller's production planning step
// (BitmaskIndex over the scene + GreedyCoverScheduler::plan with candidate
// generation on a 4-thread pool) per second on a churning synthetic
// population, across the one-reader scene envelope — the number the SIMD
// kernel dispatch and the parallel candidate generation exist to move.
// Planning only: no Gen2 slots, RF, or pipeline (perfbench/ times whole
// cycles).
//
// Also recorded:
//   * simd_speedup — the fused AND+popcount microkernel, best detected ISA
//     over the portable scalar kernels.  When AVX2 was detected the run
//     FAILS (exit 1) below 1.5x: dispatch overhead swallowing the win is a
//     regression, not a shrug.
//   * planning_threads_speedup — parallel candidate generation over the
//     serial sweep (report-only: CI boxes may have a single core).
//   * plans_identical — in-bench oracle: the {scalar ISA, serial} plan must
//     be byte-identical to the {best ISA, 4-thread} plan at every scale;
//     any divergence FAILS the run (exit 2).
//
// Scales default to 1k/2k/4k/8k tags (about what one reader inventories in a
// cycle); TAGWATCH_BENCH_CYCLE_N caps the largest scale so smoke jobs stay
// fast.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "core/bitmask.hpp"
#include "core/setcover.hpp"
#include "util/epc.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/task_pool.hpp"

using namespace tagwatch;

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Sorted unique scene with a target flag per tag.
struct World {
  std::vector<util::Epc> scene;
  std::vector<std::uint8_t> is_target;

  std::vector<util::Epc> targets() const {
    std::vector<util::Epc> out;
    for (std::size_t i = 0; i < scene.size(); ++i) {
      if (is_target[i]) out.push_back(scene[i]);
    }
    return out;
  }
};

World make_world(std::size_t n, std::size_t n_targets, util::Rng& rng) {
  World w;
  w.scene.reserve(n + n / 16);
  while (w.scene.size() < n) {
    for (std::size_t i = w.scene.size(); i < n; ++i) {
      w.scene.push_back(util::Epc::random(rng));
    }
    std::sort(w.scene.begin(), w.scene.end());
    w.scene.erase(std::unique(w.scene.begin(), w.scene.end()),
                  w.scene.end());
  }
  w.is_target.assign(w.scene.size(), 0);
  std::size_t set = 0;
  while (set < n_targets) {
    std::uint8_t& flag =
        w.is_target[rng.below(static_cast<std::uint32_t>(w.scene.size()))];
    set += flag == 0;
    flag = 1;
  }
  return w;
}

/// One cycle of population churn: `moves` tags swap out for fresh EPCs and
/// a similar number of target flags flip — the paper's mobility regime,
/// small against the scene.
void churn(World& w, std::size_t moves, util::Rng& rng) {
  for (std::size_t i = 0; i < moves; ++i) {
    const std::size_t at =
        rng.below(static_cast<std::uint32_t>(w.scene.size()));
    w.scene.erase(w.scene.begin() + static_cast<std::ptrdiff_t>(at));
    w.is_target.erase(w.is_target.begin() + static_cast<std::ptrdiff_t>(at));
    const util::Epc epc = util::Epc::random(rng);
    const auto it = std::lower_bound(w.scene.begin(), w.scene.end(), epc);
    if (it != w.scene.end() && *it == epc) continue;  // Collision: skip.
    const auto pos = static_cast<std::size_t>(it - w.scene.begin());
    w.scene.insert(it, epc);
    w.is_target.insert(w.is_target.begin() + static_cast<std::ptrdiff_t>(pos),
                       rng.below(8) == 0 ? 1 : 0);
  }
  for (std::size_t i = 0; i < moves; ++i) {
    std::uint8_t& flag =
        w.is_target[rng.below(static_cast<std::uint32_t>(w.scene.size()))];
    flag = flag == 0 ? 1 : 0;
  }
  // At least one target must remain.
  for (const std::uint8_t f : w.is_target) {
    if (f != 0) return;
  }
  w.is_target.front() = 1;
}

bool schedules_equal(const core::Schedule& a, const core::Schedule& b) {
  if (a.selections.size() != b.selections.size() ||
      a.estimated_cost_s != b.estimated_cost_s ||
      a.used_naive_fallback != b.used_naive_fallback ||
      !(a.covered_union == b.covered_union)) {
    return false;
  }
  for (std::size_t i = 0; i < a.selections.size(); ++i) {
    if (!(a.selections[i].bitmask == b.selections[i].bitmask) ||
        a.selections[i].covered_total != b.selections[i].covered_total ||
        a.selections[i].covered_targets != b.selections[i].covered_targets) {
      return false;
    }
  }
  return true;
}

/// Runs `cycles` churn+plan passes and returns the best cycles/sec over
/// `reps` repetitions (same churn tape via the seed).  Each pass plans the
/// way TagwatchController::run_cycle does: a fresh BitmaskIndex of the
/// scene, the target bitmap, and the lazy greedy cover over `pool`.  Only
/// the planning is timed, not the churn.
double measure_cycle_rate(std::size_t n, std::size_t cycles, std::size_t reps,
                          util::TaskPool* pool,
                          core::Schedule* last_schedule) {
  const core::GreedyCoverScheduler scheduler(
      core::InventoryCostModel::paper_fit());
  double best = 0.0;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    util::Rng rng(0xc1c1e000 + n);
    World w = make_world(n, std::max<std::size_t>(n / 64, 8), rng);
    double planning_s = 0.0;
    for (std::size_t c = 0; c < cycles; ++c) {
      churn(w, std::max<std::size_t>(n / 512, 2), rng);
      const std::vector<util::Epc> targets = w.targets();
      const double t0 = now_seconds();
      const core::BitmaskIndex index(w.scene);
      core::Schedule s = scheduler.plan(index, index.bitmap_of(targets), pool);
      planning_s += now_seconds() - t0;
      if (last_schedule != nullptr && c + 1 == cycles) {
        *last_schedule = std::move(s);
      }
    }
    best = std::max(best, static_cast<double>(cycles) / planning_s);
  }
  return best;
}

/// Best-of-reps seconds for `fn()` run once.
template <typename Fn>
double best_seconds(std::size_t reps, Fn&& fn) {
  double best = 1e100;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const double t0 = now_seconds();
    fn();
    best = std::min(best, now_seconds() - t0);
  }
  return best;
}

}  // namespace

int main() {
  bench::BenchReport report("phase2_planning", 0xc1c1e);
  const util::simd::Isa best_isa = util::simd::detected_isa();
  std::printf("phase-2 planning bench (detected ISA: %s)\n",
              util::simd::isa_name(best_isa));

  // ------------------------------------------------- SIMD microkernel A/B
  // Fused AND+popcount over 1 MiB of bitmap per call — the inner loop of
  // candidate generation.
  {
    const std::size_t words = 128 * 1024;
    util::Rng rng(0x51d0);
    std::vector<std::uint64_t> a(words), b(words);
    for (std::uint64_t& w : a) w = rng.uniform_u64(0, ~std::uint64_t{0});
    for (std::uint64_t& w : b) w = rng.uniform_u64(0, ~std::uint64_t{0});
    const util::simd::KernelTable& scalar = util::simd::scalar_kernels();
    const util::simd::KernelTable& native = util::simd::kernels_for(best_isa);
    volatile std::size_t sink = 0;
    const auto run = [&](const util::simd::KernelTable& k) {
      std::size_t total = 0;
      for (int pass = 0; pass < 64; ++pass) {
        total += k.and_popcount(a.data(), b.data(), words);
      }
      sink = total;
    };
    const double t_scalar = best_seconds(5, [&] { run(scalar); });
    const double t_native = best_seconds(5, [&] { run(native); });
    const double speedup = t_scalar / t_native;
    std::printf("  and_popcount: scalar %.3f ms, %s %.3f ms -> %.2fx\n",
                t_scalar * 1e3, util::simd::isa_name(native.isa),
                t_native * 1e3, speedup);
    report.add("simd_speedup", speedup, "ratio");
    if (native.isa == util::simd::Isa::kAvx2 && speedup < 1.5) {
      std::fprintf(stderr,
                   "FAIL: AVX2 and_popcount speedup %.2fx < 1.5x floor\n",
                   speedup);
      return 1;
    }
  }

  // ----------------------------------------------- cycle-rate scale sweep
  std::size_t max_n = 8192;
  if (const char* cap = std::getenv("TAGWATCH_BENCH_CYCLE_N")) {
    max_n = std::min<std::size_t>(max_n, std::strtoull(cap, nullptr, 10));
  }
  util::TaskPool pool(4);
  for (const std::size_t n : {std::size_t{1024}, std::size_t{2048},
                              std::size_t{4096}, std::size_t{8192}}) {
    if (n > max_n) {
      std::printf("  %zu tags: skipped (TAGWATCH_BENCH_CYCLE_N)\n", n);
      continue;
    }
    // In-bench oracle: scalar/serial vs best-ISA/4-thread, same churn tape.
    core::Schedule oracle, fast;
    util::simd::set_active_isa(util::simd::Isa::kScalar);
    measure_cycle_rate(n, 4, 1, nullptr, &oracle);
    util::simd::set_active_isa(best_isa);
    measure_cycle_rate(n, 4, 1, &pool, &fast);
    if (!schedules_equal(oracle, fast)) {
      std::fprintf(stderr,
                   "FAIL: plan divergence at %zu tags between "
                   "{scalar, serial} and {%s, 4 threads}\n",
                   n, util::simd::isa_name(best_isa));
      return 2;
    }

    // Eight cycles per repetition: a from-scratch plan costs tens to
    // hundreds of milliseconds at these scales.
    const double rate = measure_cycle_rate(n, 8, 3, &pool, nullptr);
    std::printf("  %zu tags: %.1f cycles/s (plans oracle-identical)\n", n,
                rate);
    report.add("cycles_per_sec_at_" + std::to_string(n), rate, "hz");
  }
  report.add("plans_identical", 1.0, "bool");

  // ------------------------------------- parallel candidate-gen A/B
  // Report-only: a single-core box legitimately reports ~1.0x here.
  {
    const std::size_t n = max_n;
    util::Rng rng(0x7a5c);
    World w = make_world(n, std::max<std::size_t>(n / 64, 8), rng);
    const core::BitmaskIndex index(w.scene);
    const util::IndicatorBitmap targets = index.bitmap_of(w.targets());
    const double t_serial =
        best_seconds(3, [&] { index.candidates_for(targets); });
    const double t_pool =
        best_seconds(3, [&] { index.candidates_for(targets, &pool); });
    const double speedup = t_serial / t_pool;
    std::printf("  candidates_for at %zu tags: serial %.1f ms, "
                "4 threads %.1f ms -> %.2fx\n",
                n, t_serial * 1e3, t_pool * 1e3, speedup);
    report.add("planning_threads_speedup", speedup, "ratio");
  }

  const std::string path = report.write();
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
