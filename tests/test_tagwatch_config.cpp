// Controller configuration edge cases and Phase II scheduling economics.
#include <gtest/gtest.h>

#include "core/tagwatch.hpp"
#include "isa_guard.hpp"
#include "llrp/sim_reader_client.hpp"
#include "util/circular.hpp"
#include "util/simd.hpp"

namespace tagwatch::core {
namespace {

struct MiniBed {
  sim::World world;
  rf::RfChannel channel{rf::ChannelPlan::single(920.625e6)};
  std::vector<rf::Antenna> antennas{{1, {-5, -5, 0}, 8.0},
                                    {2, {5, 5, 0}, 8.0}};
  std::optional<llrp::SimReaderClient> client;

  explicit MiniBed(std::size_t n_tags, std::uint64_t seed = 9) {
    util::Rng rng(seed);
    for (std::size_t i = 0; i < n_tags; ++i) {
      sim::SimTag t;
      t.epc = util::Epc::random(rng);
      t.motion = std::make_shared<sim::StaticMotion>(
          util::Vec3{rng.uniform(-2, 2), rng.uniform(-2, 2), 0});
      t.tag_phase_rad = rng.uniform(0.0, util::kTwoPi);
      world.add_tag(std::move(t));
    }
    client.emplace(gen2::LinkTiming(gen2::LinkParams::paper_testbed()),
                   gen2::ReaderConfig{}, world, channel, antennas, seed + 1);
  }
};

TEST(TagwatchConfig, Phase1RoundsPerAntennaScalesPhase1) {
  MiniBed bed(10);
  TagwatchConfig cfg;
  cfg.phase2_duration = util::msec(200);
  cfg.phase1_rounds_per_antenna = 3;
  TagwatchController ctl(cfg, *bed.client);
  const CycleReport r = ctl.run_cycle();
  // 2 antennas × 3 rounds, each reading all 10 tags.
  EXPECT_EQ(r.phase1_readings, 60u);
}

TEST(TagwatchConfig, ControllerLeavesTheProcessKernelTableAlone) {
  // The util::simd kernel table is process state, pinned by process-level
  // code (here: the test, as CI's forced-scalar pass does).  Building and
  // running a default controller must not repoint it.
  util::simd::IsaGuard guard;
  util::simd::set_active_isa(util::simd::Isa::kScalar);
  MiniBed bed(10);
  TagwatchController ctl(TagwatchConfig{}, *bed.client);
  ctl.run_cycle();
  EXPECT_EQ(util::simd::active_isa(), util::simd::Isa::kScalar);
}

TEST(TagwatchConfig, ChargeComputeTimeAdvancesClock) {
  // With charging disabled, the inter-phase sim-time gap excludes the
  // host compute; with it enabled the gap includes it.  Both must report
  // a non-negative compute duration.
  for (const bool charge : {false, true}) {
    MiniBed bed(20, charge ? 21 : 22);
    TagwatchConfig cfg;
    cfg.phase2_duration = util::msec(500);
    cfg.charge_compute_time = charge;
    cfg.pinned_targets = {bed.world.tags()[0].epc};
    cfg.mobile_fraction_threshold = 0.5;
    TagwatchController ctl(cfg, *bed.client);
    ctl.run_cycles(3);
    const CycleReport r = ctl.run_cycle();
    EXPECT_GE(r.schedule_compute_ms, 0.0);
    ASSERT_TRUE(r.interphase_gap.has_value());
    EXPECT_GT(r.interphase_gap->count(), 0);
  }
}

TEST(TagwatchConfig, NaiveFallbackGuardInsideGreedy) {
  // The greedy plan for a single pinned target among random EPCs should be
  // one short-mask round covering only that tag — never costlier than the
  // naive single full-EPC round.
  MiniBed bed(30, 31);
  TagwatchConfig cfg;
  cfg.phase2_duration = util::msec(300);
  cfg.pinned_targets = {bed.world.tags()[4].epc};
  TagwatchController ctl(cfg, *bed.client);
  ctl.run_cycles(6);  // enough cycles for every static tag's model to mature
  const CycleReport r = ctl.run_cycle();
  ASSERT_FALSE(r.read_all_fallback);
  ASSERT_EQ(r.schedule.selections.size(), 1u);
  const InventoryCostModel model = InventoryCostModel::paper_fit();
  EXPECT_LE(r.schedule.estimated_cost_s, model.cost_seconds(1) + 1e-12);
  // The selected mask is far shorter than the 96-bit EPC.
  EXPECT_LT(r.schedule.selections[0].bitmask.mask.size(), 32u);
}

TEST(TagwatchConfig, ThresholdZeroAlwaysReadsAll) {
  MiniBed bed(10, 41);
  TagwatchConfig cfg;
  cfg.phase2_duration = util::msec(300);
  cfg.mobile_fraction_threshold = 0.0;
  cfg.pinned_targets = {bed.world.tags()[0].epc};
  TagwatchController ctl(cfg, *bed.client);
  const auto reports = ctl.run_cycles(4);
  for (const auto& r : reports) {
    EXPECT_TRUE(r.read_all_fallback);
  }
}

TEST(TagwatchConfig, HistoryAccumulatesAcrossCycles) {
  MiniBed bed(8, 51);
  TagwatchConfig cfg;
  cfg.phase2_duration = util::msec(300);
  TagwatchController ctl(cfg, *bed.client);
  ctl.run_cycles(3);
  EXPECT_EQ(ctl.history().tag_count(), 8u);
  for (const auto& tag : bed.world.tags()) {
    const TagHistory* h = ctl.history().find(tag.epc);
    ASSERT_NE(h, nullptr);
    EXPECT_GT(h->total_readings, 3u);
  }
}

TEST(TagwatchConfig, EmptyWorldCyclesSafely) {
  MiniBed bed(0);
  TagwatchConfig cfg;
  cfg.phase2_duration = util::msec(200);
  TagwatchController ctl(cfg, *bed.client);
  const CycleReport r = ctl.run_cycle();
  EXPECT_TRUE(r.read_all_fallback);
  EXPECT_EQ(r.phase1_readings, 0u);
  EXPECT_EQ(r.phase2_readings, 0u);
  EXPECT_TRUE(r.scene.empty());
  EXPECT_FALSE(r.interphase_gap.has_value());
}

TEST(TagwatchConfig, Phase2PolicyTooShortClampsToFloor) {
  // A policy demanding 1 ms must be clamped up to the 100 ms floor.
  MiniBed bed(8, 71);
  TagwatchConfig cfg;
  cfg.mode = ScheduleMode::kReadAll;
  cfg.phase2_duration = util::sec(5);  // would apply without the policy
  cfg.phase2_policy = [](std::size_t, std::size_t) { return util::msec(1); };
  TagwatchController ctl(cfg, *bed.client);
  const CycleReport r = ctl.run_cycle();
  EXPECT_GE(r.phase2_duration, util::msec(100));
  // Well below the configured 5 s — the floor, plus at most a round or two
  // of overshoot past t_end.
  EXPECT_LT(r.phase2_duration, util::msec(400));
}

TEST(TagwatchConfig, Phase2PolicyTooLongClampsToCeiling) {
  // A policy demanding 10 minutes must be clamped down to the 60 s ceiling.
  MiniBed bed(4, 72);
  TagwatchConfig cfg;
  cfg.mode = ScheduleMode::kReadAll;
  cfg.phase2_duration = util::msec(200);
  cfg.phase2_policy = [](std::size_t, std::size_t) { return util::sec(600); };
  TagwatchController ctl(cfg, *bed.client);
  const CycleReport r = ctl.run_cycle();
  EXPECT_GE(r.phase2_duration, util::sec(60));
  EXPECT_LT(r.phase2_duration, util::sec(61));
}

TEST(TagwatchConfig, Phase2PolicyInRangePassesThrough) {
  MiniBed bed(8, 73);
  TagwatchConfig cfg;
  cfg.mode = ScheduleMode::kReadAll;
  cfg.phase2_duration = util::sec(5);
  std::size_t seen_targets = 0, seen_scene = 0;
  cfg.phase2_policy = [&](std::size_t targets, std::size_t scene) {
    seen_targets = targets;
    seen_scene = scene;
    return util::msec(250);
  };
  TagwatchController ctl(cfg, *bed.client);
  const CycleReport r = ctl.run_cycle();
  EXPECT_GE(r.phase2_duration, util::msec(250));
  EXPECT_LT(r.phase2_duration, util::msec(600));
  EXPECT_EQ(seen_scene, 8u);      // the policy sees the assessed scene...
  EXPECT_EQ(seen_targets, 8u);    // ...and the (read-all) target count
}

TEST(TagwatchConfig, ReadAllCyclesReportConsistentPhase2Counts) {
  // kReadAll (and fallback) cycles must satisfy the same accounting
  // invariant as selective ones: the per-tag Phase II counts sum to the
  // reported phase2_readings.
  MiniBed bed(12, 74);
  TagwatchConfig cfg;
  cfg.mode = ScheduleMode::kReadAll;
  cfg.phase2_duration = util::msec(500);
  TagwatchController ctl(cfg, *bed.client);
  for (const auto& r : ctl.run_cycles(3)) {
    EXPECT_TRUE(r.read_all_fallback);
    std::size_t summed = 0;
    for (const auto& [epc, n] : r.phase2_counts) summed += n;
    EXPECT_EQ(summed, r.phase2_readings);
    EXPECT_GT(r.phase2_readings, 0u);
  }
}

TEST(TagwatchConfig, FallbackCyclesReportConsistentPhase2Counts) {
  // Cold-start greedy cycles fall back to read-all; their accounting must
  // also balance, as must the selective cycles that follow.
  MiniBed bed(10, 75);
  TagwatchConfig cfg;
  cfg.phase2_duration = util::msec(500);
  cfg.pinned_targets = {bed.world.tags()[0].epc};
  TagwatchController ctl(cfg, *bed.client);
  const auto reports = ctl.run_cycles(5);
  EXPECT_TRUE(reports.front().read_all_fallback);
  bool saw_selective = false;
  for (const auto& r : reports) {
    std::size_t summed = 0;
    for (const auto& [epc, n] : r.phase2_counts) summed += n;
    EXPECT_EQ(summed, r.phase2_readings);
    saw_selective |= !r.read_all_fallback;
  }
  EXPECT_TRUE(saw_selective);
}

TEST(TagwatchConfig, SessionConfigurationRespected) {
  MiniBed bed(6, 61);
  TagwatchConfig cfg;
  cfg.phase2_duration = util::msec(300);
  cfg.session = gen2::Session::kS2;
  TagwatchController ctl(cfg, *bed.client);
  const CycleReport r = ctl.run_cycle();
  EXPECT_GT(r.phase1_readings, 0u);
  EXPECT_GT(r.phase2_readings, 0u);
}

}  // namespace
}  // namespace tagwatch::core
