// Differential tests for parallel Phase-II planning: candidate generation
// sharded across util::TaskPool and the SIMD kernel dispatch must both be
// invisible in the output.  Candidate tables and greedy-cover schedules are
// compared for byte-identity against the serial scalar oracle at every
// thread count and every available ISA.
#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <vector>

#include "core/bitmask.hpp"
#include "core/setcover.hpp"
#include "isa_guard.hpp"
#include "util/epc.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/task_pool.hpp"

namespace tagwatch::core {
namespace {

using util::simd::IsaGuard;

std::vector<util::Epc> random_scene(std::size_t n, util::Rng& rng) {
  std::map<util::Epc, bool> uniq;
  while (uniq.size() < n) uniq.emplace(util::Epc::random(rng), false);
  std::vector<util::Epc> out;
  out.reserve(n);
  for (const auto& [epc, unused] : uniq) out.push_back(epc);
  return out;
}

util::IndicatorBitmap random_targets(std::size_t scene_size,
                                     std::size_t n_targets, util::Rng& rng) {
  util::IndicatorBitmap targets(scene_size);
  while (targets.count() < n_targets) {
    targets.set(rng.below(static_cast<std::uint32_t>(scene_size)));
  }
  return targets;
}

void expect_candidates_identical(const std::vector<BitmaskCandidate>& got,
                                 const std::vector<BitmaskCandidate>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].bitmask, want[i].bitmask) << "row " << i;
    EXPECT_EQ(got[i].coverage, want[i].coverage) << "row " << i;
    EXPECT_EQ(got[i].targets_covered, want[i].targets_covered) << "row " << i;
  }
}

void expect_schedules_identical(const Schedule& got, const Schedule& want) {
  ASSERT_EQ(got.selections.size(), want.selections.size());
  for (std::size_t i = 0; i < got.selections.size(); ++i) {
    EXPECT_EQ(got.selections[i].bitmask, want.selections[i].bitmask)
        << "selection " << i;
    EXPECT_EQ(got.selections[i].covered_total,
              want.selections[i].covered_total)
        << "selection " << i;
    EXPECT_EQ(got.selections[i].covered_targets,
              want.selections[i].covered_targets)
        << "selection " << i;
  }
  EXPECT_EQ(got.estimated_cost_s, want.estimated_cost_s);
  EXPECT_EQ(got.used_naive_fallback, want.used_naive_fallback);
  EXPECT_EQ(got.covered_union, want.covered_union);
}

TEST(ParallelPlanning, CandidateTableIdenticalAtEveryThreadCount) {
  util::Rng rng(0xca41d);
  for (const std::size_t n : {32u, 256u, 1024u}) {
    const BitmaskIndex index(random_scene(n, rng));
    const util::IndicatorBitmap targets =
        random_targets(n, 2 + n / 32, rng);
    const std::vector<BitmaskCandidate> serial = index.candidates_for(targets);
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      SCOPED_TRACE(testing::Message() << "scene " << n << " threads "
                                      << threads);
      util::TaskPool pool(threads);
      expect_candidates_identical(index.candidates_for(targets, &pool),
                                  serial);
    }
  }
}

TEST(ParallelPlanning, FewTargetsDegenerateToTheSerialSweep) {
  // Fewer targets than 2x executors: the pool overload must take the
  // serial path (and stay identical) instead of sharding empty chunks.
  util::Rng rng(0x5e71a1);
  const BitmaskIndex index(random_scene(128, rng));
  const util::IndicatorBitmap targets = random_targets(128, 3, rng);
  util::TaskPool pool(8);
  expect_candidates_identical(index.candidates_for(targets, &pool),
                              index.candidates_for(targets));
}

TEST(ParallelPlanning, NullAndSingleThreadPoolsAreTheSerialPath) {
  util::Rng rng(0x0901);
  const BitmaskIndex index(random_scene(96, rng));
  const util::IndicatorBitmap targets = random_targets(96, 9, rng);
  const std::vector<BitmaskCandidate> serial = index.candidates_for(targets);
  expect_candidates_identical(index.candidates_for(targets, nullptr), serial);
  util::TaskPool one(1);
  expect_candidates_identical(index.candidates_for(targets, &one), serial);
}

TEST(ParallelPlanning, ScheduleIdenticalAcrossIsaAndThreads) {
  IsaGuard guard;
  util::Rng rng(0x91a2);
  const BitmaskIndex index(random_scene(512, rng));
  const util::IndicatorBitmap targets = random_targets(512, 24, rng);
  const GreedyCoverScheduler scheduler(InventoryCostModel::paper_fit());

  // Oracle: scalar kernels, serial candidate generation.
  util::simd::set_active_isa(util::simd::Isa::kScalar);
  const Schedule oracle = scheduler.plan(index, targets);

  for (const util::simd::Isa isa :
       {util::simd::Isa::kScalar, util::simd::detected_isa()}) {
    util::simd::set_active_isa(isa);
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      SCOPED_TRACE(testing::Message()
                   << util::simd::isa_name(isa) << " x " << threads);
      util::TaskPool pool(threads);
      expect_schedules_identical(scheduler.plan(index, targets, &pool),
                                 oracle);
    }
  }
}

}  // namespace
}  // namespace tagwatch::core
