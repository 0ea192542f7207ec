// Microbenchmarks (google-benchmark) for the scheduling hot path:
// indexed-table construction and the greedy set-cover search, across scene
// sizes and target counts.  This is the compute that must fit inside the
// Fig.-17 budget (a few ms per cycle).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench_report.hpp"
#include "core/setcover.hpp"
#include "util/rng.hpp"
#include "util/wall_clock.hpp"

using namespace tagwatch;

namespace {

std::vector<util::Epc> random_scene(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<util::Epc> scene;
  scene.reserve(n);
  for (std::size_t i = 0; i < n; ++i) scene.push_back(util::Epc::random(rng));
  return scene;
}

/// Target count for the scene-size sweeps: 1/4 of the scene, clamped to
/// [4, 1024] — the paper's high-mobility regime, where a sizeable slice
/// of the inventory moved and needs a Phase-II re-read.  Dense enough
/// that the greedy cover needs many rounds (33 selections at 4,096 tags);
/// a sparse target set finishes in 2-3 rounds and barely exercises the
/// per-round rescan the lazy evaluation removes.  Capped so the largest
/// scenes stay within bench time budgets.
std::size_t sweep_target_count(std::size_t n) {
  return std::clamp<std::size_t>(n / 4, 4, 1024);
}

void BM_BitmaskIndexBuild(benchmark::State& state) {
  const auto scene = random_scene(static_cast<std::size_t>(state.range(0)), 7);
  for (auto _ : state) {
    core::BitmaskIndex index(scene);
    benchmark::DoNotOptimize(index.scene_size());
  }
}
BENCHMARK(BM_BitmaskIndexBuild)->Arg(40)->Arg(100)->Arg(400);

void BM_CandidateEnumeration(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto n_targets = static_cast<std::size_t>(state.range(1));
  const auto scene = random_scene(n, 11);
  core::BitmaskIndex index(scene);
  std::vector<util::Epc> targets(index.scene().begin(),
                                 index.scene().begin() +
                                     static_cast<std::ptrdiff_t>(n_targets));
  const auto bitmap = index.bitmap_of(targets);
  for (auto _ : state) {
    auto candidates = index.candidates_for(bitmap);
    benchmark::DoNotOptimize(candidates.size());
  }
}
BENCHMARK(BM_CandidateEnumeration)
    ->Args({40, 2})
    ->Args({40, 8})
    ->Args({100, 5})
    ->Args({400, 20});

void BM_GreedyCoverPlan(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto n_targets = static_cast<std::size_t>(state.range(1));
  const auto scene = random_scene(n, 13);
  core::BitmaskIndex index(scene);
  std::vector<util::Epc> targets(index.scene().begin(),
                                 index.scene().begin() +
                                     static_cast<std::ptrdiff_t>(n_targets));
  const auto bitmap = index.bitmap_of(targets);
  core::GreedyCoverScheduler sched(core::InventoryCostModel::paper_fit());
  for (auto _ : state) {
    auto plan = sched.plan(index, bitmap);
    benchmark::DoNotOptimize(plan.selections.size());
  }
}
BENCHMARK(BM_GreedyCoverPlan)
    ->Args({40, 2})
    ->Args({40, 8})
    ->Args({100, 5})
    ->Args({200, 10})
    ->Args({400, 20});

void BM_EndToEndSchedule(benchmark::State& state) {
  // The full per-cycle compute: build the index, map targets, plan.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto n_targets = static_cast<std::size_t>(state.range(1));
  const auto scene = random_scene(n, 17);
  std::vector<util::Epc> targets(scene.begin(),
                                 scene.begin() +
                                     static_cast<std::ptrdiff_t>(n_targets));
  core::GreedyCoverScheduler sched(core::InventoryCostModel::paper_fit());
  for (auto _ : state) {
    core::BitmaskIndex index(scene);
    auto plan = sched.plan(index, index.bitmap_of(targets));
    benchmark::DoNotOptimize(plan.estimated_cost_s);
  }
}
BENCHMARK(BM_EndToEndSchedule)->Args({60, 3})->Args({400, 20});

/// Scene-size sweep of the full Phase-II planning step (candidate table +
/// greedy cover) on the word-parallel lazy fast path.  This is the
/// headline large-scene number: planning must stay cheap relative to the
/// air protocol as scenes grow to warehouse size.
void BM_PlanningSweep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto scene = random_scene(n, 23);
  core::BitmaskIndex index(scene);
  std::vector<util::Epc> targets(
      index.scene().begin(),
      index.scene().begin() +
          static_cast<std::ptrdiff_t>(sweep_target_count(n)));
  const auto bitmap = index.bitmap_of(targets);
  core::GreedyCoverScheduler sched(core::InventoryCostModel::paper_fit(),
                                   core::GreedyEvaluation::kLazy);
  for (auto _ : state) {
    auto plan = sched.plan(index, bitmap);
    benchmark::DoNotOptimize(plan.estimated_cost_s);
  }
}
BENCHMARK(BM_PlanningSweep)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384)
    ->Unit(benchmark::kMillisecond);

/// The same sweep through the pre-fast-path reference pipeline
/// (bit-by-bit candidate rebuild + dense full-rescan greedy).  Capped at
/// 4,096 tags — the acceptance point for the speedup ratio — because the
/// reference is quadratic-ish in scene size.
void BM_PlanningSweepReference(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto scene = random_scene(n, 23);
  core::BitmaskIndex index(scene);
  std::vector<util::Epc> targets(
      index.scene().begin(),
      index.scene().begin() +
          static_cast<std::ptrdiff_t>(sweep_target_count(n)));
  const auto bitmap = index.bitmap_of(targets);
  core::GreedyCoverScheduler sched(core::InventoryCostModel::paper_fit(),
                                   core::GreedyEvaluation::kDense);
  for (auto _ : state) {
    auto plan = sched.plan(index, bitmap);
    benchmark::DoNotOptimize(plan.estimated_cost_s);
  }
}
BENCHMARK(BM_PlanningSweepReference)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);

/// Console output as usual, plus every run teed into a BenchReport so the
/// microbench emits the same BENCH_<name>.json as the scenario harnesses.
class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonTeeReporter(bench::BenchReport& report) : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      report_.add(run.benchmark_name() + "/real_time",
                  run.GetAdjustedRealTime(),
                  benchmark::GetTimeUnitString(run.time_unit));
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  bench::BenchReport& report_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  bench::BenchReport report("scheduler_micro", /*seed=*/7);
  JsonTeeReporter reporter(report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  // Headline ratio: lazy fast path vs the pre-fast-path reference at the
  // 4,096-tag acceptance point (skipped when a --benchmark_filter excluded
  // either sweep).  Measured as a dedicated paired run — alternating
  // reference/fast repetitions on the same inputs, taking the minimum of
  // each side — instead of a quotient of the two sweep means above: on a
  // shared runner, scheduler noise inflates the two independent sweeps
  // unevenly and the mean quotient swings by 2x run to run, while
  // min-of-paired-reps rejects the noise and tracks the actual compute.
  const double fast = report.value_of("BM_PlanningSweep/4096/real_time");
  const double reference =
      report.value_of("BM_PlanningSweepReference/4096/real_time");
  if (std::isfinite(fast) && std::isfinite(reference)) {
    const auto scene = random_scene(4096, 23);
    core::BitmaskIndex index(scene);
    std::vector<util::Epc> targets(
        index.scene().begin(),
        index.scene().begin() +
            static_cast<std::ptrdiff_t>(sweep_target_count(4096)));
    const auto bitmap = index.bitmap_of(targets);
    const core::GreedyCoverScheduler lazy(
        core::InventoryCostModel::paper_fit(), core::GreedyEvaluation::kLazy);
    const core::GreedyCoverScheduler dense(
        core::InventoryCostModel::paper_fit(), core::GreedyEvaluation::kDense);
    util::WallClock& wall = util::WallClock::system();
    double ref_ms = 0.0;
    double fast_ms = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      const double t0 = wall.now_seconds();
      const auto ref_plan = dense.plan(index, bitmap);
      const double t1 = wall.now_seconds();
      const auto fast_plan = lazy.plan(index, bitmap);
      const double t2 = wall.now_seconds();
      if (ref_plan.selections.size() != fast_plan.selections.size()) {
        std::fprintf(stderr, "planning speedup: plan mismatch\n");
        return 1;
      }
      const double ref_rep = (t1 - t0) * 1e3;
      const double fast_rep = (t2 - t1) * 1e3;
      if (rep == 0 || ref_rep < ref_ms) ref_ms = ref_rep;
      if (rep == 0 || fast_rep < fast_ms) fast_ms = fast_rep;
    }
    report.add("planning_reference_ms_at_4096", ref_ms, "ms");
    report.add("planning_fast_ms_at_4096", fast_ms, "ms");
    report.add("planning_speedup_at_4096", ref_ms / fast_ms, "ratio");
    std::printf("planning speedup at 4096 tags: %.1fx (%.1f ms -> %.1f ms)\n",
                ref_ms / fast_ms, ref_ms, fast_ms);
  }
  std::printf("wrote %s\n", report.write().c_str());
  return 0;
}
