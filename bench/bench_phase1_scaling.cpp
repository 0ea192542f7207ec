// Phase-I ingestion scaling — the serial reference assessor
// (tests/motion_assessor_reference.hpp) vs the sharded ParallelAssessor
// engine.
//
// Measures the full Phase-I ingestion path as the controller drives it:
// readings flow through a ReadingPipeline into an assessor sink, a window
// opens, every reading is ingested, the window is assessed.  The serial
// baseline is per-reading dispatch() into a sink over the reference (one
// wall-clock pair per reading, node-based detector state); the engine is
// dispatch_batch() into ParallelAssessorSink (one clock pair per batch,
// dense sharded slots).  Output equality is asserted in-bench: any
// divergence from the serial oracle aborts the run, so a speedup can
// never be bought with a wrong answer.
//
// Headline metric: ingest_speedup_at_4_threads on the 4,096-tag scene.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench_report.hpp"
#include "core/parallel_assessor.hpp"
#include "core/pipeline.hpp"
#include "motion_assessor_reference.hpp"
#include "rf/measurement.hpp"
#include "util/epc.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"
#include "util/task_pool.hpp"

using namespace tagwatch;

namespace {

constexpr std::size_t kWindows = 2;
constexpr std::size_t kReadingsPerTag = 16;  // Per window, over 4 ant × 16 ch.
constexpr int kReps = 3;

/// One window's synthetic inventory: kReadingsPerTag reads per tag in a
/// shuffled tag order, spread over 4 antennas and 16 channels.
std::vector<std::vector<rf::TagReading>> make_windows(std::size_t n_tags,
                                                      std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<util::Epc> epcs;
  epcs.reserve(n_tags);
  for (std::size_t i = 0; i < n_tags; ++i) {
    epcs.push_back(util::Epc::from_serial(i + 1));
  }
  std::vector<std::vector<rf::TagReading>> windows(kWindows);
  util::SimTime t = util::msec(1);
  for (auto& window : windows) {
    window.reserve(n_tags * kReadingsPerTag);
    for (std::size_t pass = 0; pass < kReadingsPerTag; ++pass) {
      for (std::size_t i = 0; i < n_tags; ++i) {
        const std::size_t pick =
            static_cast<std::size_t>(rng.uniform_u64(0, n_tags - 1));
        t += util::usec(3);
        rf::TagReading r;
        r.epc = epcs[pick];
        r.antenna = static_cast<rf::AntennaId>(1 + (pass % 4));
        r.channel = (pick + pass) % 16;
        r.phase_rad = rng.uniform(0.0, 6.283185307179586);
        r.rssi_dbm = rng.uniform(-70.0, -40.0);
        r.timestamp = t;
        window.push_back(r);
      }
    }
  }
  return windows;
}

/// Feeds every reading to the reference assessor, one dispatch at a time.
class ReferenceAssessorSink final : public core::ReadingSink {
 public:
  explicit ReferenceAssessorSink(core::reference::MotionAssessor& assessor)
      : assessor_(&assessor) {}

  std::string_view name() const override { return "assessor"; }
  bool on_reading(const rf::TagReading& reading,
                  const core::ReadingContext& context) override {
    (void)context;
    assessor_->ingest(reading);
    return true;
  }

 private:
  core::reference::MotionAssessor* assessor_;
};

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void require_equal(const std::vector<core::TagAssessment>& oracle,
                   const std::vector<core::TagAssessment>& got) {
  if (got.size() != oracle.size()) {
    std::fprintf(stderr, "FATAL: assessment count diverged (%zu vs %zu)\n",
                 got.size(), oracle.size());
    std::abort();
  }
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    if (!(got[i].epc == oracle[i].epc) ||
        got[i].window_readings != oracle[i].window_readings ||
        got[i].moving_votes != oracle[i].moving_votes ||
        got[i].mobile != oracle[i].mobile) {
      std::fprintf(stderr, "FATAL: assessment %zu diverged for %s\n", i,
                   oracle[i].epc.to_hex().c_str());
      std::abort();
    }
  }
}

/// Runs the serial path once; returns elapsed seconds and (optionally)
/// captures the per-window assessments as the oracle.
double run_serial(const std::vector<std::vector<rf::TagReading>>& windows,
                  std::vector<std::vector<core::TagAssessment>>* oracle) {
  core::reference::MotionAssessor assessor;
  core::ReadingPipeline pipeline;
  pipeline.add_sink(std::make_shared<ReferenceAssessorSink>(assessor));
  const double t0 = now_seconds();
  for (const auto& window : windows) {
    assessor.begin_window();
    for (const rf::TagReading& r : window) {
      pipeline.dispatch(r, {0, core::ReadPhase::kPhase1});
    }
    const auto& result = assessor.assess(window.back().timestamp);
    if (oracle) oracle->push_back(result);
  }
  return now_seconds() - t0;
}

double run_engine(const std::vector<std::vector<rf::TagReading>>& windows,
                  std::size_t threads,
                  const std::vector<std::vector<core::TagAssessment>>& oracle) {
  util::TaskPool pool(threads);
  core::ParallelAssessor assessor({}, pool);
  core::ReadingPipeline pipeline;
  pipeline.add_sink(std::make_shared<core::ParallelAssessorSink>(assessor));
  const double t0 = now_seconds();
  for (std::size_t w = 0; w < windows.size(); ++w) {
    assessor.begin_window();
    pipeline.dispatch_batch(windows[w], {0, core::ReadPhase::kPhase1});
    require_equal(oracle[w], assessor.assess(windows[w].back().timestamp));
  }
  return now_seconds() - t0;
}

}  // namespace

int main() {
  std::printf("Phase-I ingestion scaling — serial dispatch+reference "
              "assessor vs batched ParallelAssessor\n");
  std::printf("(%zu windows, %zu readings/tag/window; min of %d reps; "
              "output equality asserted)\n\n",
              kWindows, kReadingsPerTag, kReps);
  std::printf("%8s  %10s  %12s  %12s  %8s\n", "tags", "threads",
              "serial ms", "engine ms", "speedup");

  bench::BenchReport report("phase1_scaling", /*seed=*/4096);
  for (const std::size_t n_tags : {std::size_t{256}, std::size_t{1024},
                                   std::size_t{4096}}) {
    const auto windows = make_windows(n_tags, 4096 + n_tags);
    std::vector<std::vector<core::TagAssessment>> oracle;
    double serial_best = 1e300;
    for (int rep = 0; rep < kReps; ++rep) {
      std::vector<std::vector<core::TagAssessment>> captured;
      const double s = run_serial(windows, rep == 0 ? &oracle : &captured);
      serial_best = std::min(serial_best, s);
    }
    report.add("serial_ms_" + std::to_string(n_tags), serial_best * 1e3,
               "ms");
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{4}, std::size_t{8}}) {
      double engine_best = 1e300;
      for (int rep = 0; rep < kReps; ++rep) {
        engine_best = std::min(engine_best,
                               run_engine(windows, threads, oracle));
      }
      const double speedup = serial_best / engine_best;
      std::printf("%8zu  %10zu  %12.2f  %12.2f  %7.2fx\n", n_tags, threads,
                  serial_best * 1e3, engine_best * 1e3, speedup);
      report.add("engine_ms_" + std::to_string(n_tags) + "_t" +
                     std::to_string(threads),
                 engine_best * 1e3, "ms");
      report.add("speedup_" + std::to_string(n_tags) + "_t" +
                     std::to_string(threads),
                 speedup, "ratio");
    }
  }

  // The acceptance headline: engine at 4 threads vs the serial oracle on
  // the 4,096-tag scene.
  report.add("ingest_speedup_at_4_threads",
             report.value_of("speedup_4096_t4"), "ratio");
  std::printf("\ningest_speedup_at_4_threads (4096 tags): %.2fx\n",
              report.value_of("ingest_speedup_at_4_threads"));
  std::printf("wrote %s\n", report.write().c_str());
  return 0;
}
