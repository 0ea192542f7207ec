// Differential fuzz of Gen2Reader's slot engine against the reference
// O(n)-per-slot loop (gen2_reference.hpp).  Both engines run over
// identically built worlds with the same seed; every round must produce
// identical RoundStats, an identical reading sequence (EPC, antenna,
// channel, phase, RSSI, time), the same clock, and leave the random
// stream at the same position.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "gen2/reader.hpp"
#include "gen2_reference.hpp"
#include "util/circular.hpp"
#include "util/rng.hpp"

namespace tagwatch::gen2 {
namespace {

using reference::ReferenceReader;

/// Populations straddling SlotFrame's 32-slot window, and a larger one
/// (8k runs in its own test).
constexpr std::size_t kPopulations[] = {0, 1, 31, 32, 33, 500};
constexpr AntiCollisionPolicy kAlohaPolicies[] = {
    AntiCollisionPolicy::kFixedQ, AntiCollisionPolicy::kIdealDfsa,
    AntiCollisionPolicy::kQAdaptive};

struct SceneSpec {
  std::size_t tags = 0;
  std::uint64_t seed = 1;
  double block_probability = 0.0;
  bool moving = false;  ///< Half the tags ride circular tracks.
};

/// One world plus the RF model its readers share.
struct Scene {
  sim::World world;
  rf::RfChannel channel{rf::ChannelPlan::china_920_926()};
  std::vector<rf::Antenna> antennas{{1, {0, 0, 2}, 8.0}, {2, {1.5, 0, 2}, 8.0}};

  explicit Scene(const SceneSpec& spec) {
    util::Rng rng(spec.seed);
    for (std::size_t i = 0; i < spec.tags; ++i) {
      sim::SimTag t;
      t.epc = util::Epc::from_serial(i + 1);
      const util::Vec3 p{rng.uniform(-3, 3), rng.uniform(-3, 3), 0};
      if (spec.moving && i % 2 == 1) {
        t.motion = std::make_shared<sim::CircularTrack>(
            p, rng.uniform(0.2, 1.0), rng.uniform(0.5, 2.0));
      } else {
        t.motion = std::make_shared<sim::StaticMotion>(p);
      }
      t.tag_phase_rad = rng.uniform(0.0, util::kTwoPi);
      t.block_probability = spec.block_probability;
      world.add_tag(std::move(t));
    }
  }
};

using Readings = std::vector<rf::TagReading>;

void expect_same_round(const RoundStats& got, const RoundStats& want,
                       const Readings& got_reads, const Readings& want_reads,
                       const std::string& where) {
  EXPECT_EQ(got.slots, want.slots) << where;
  EXPECT_EQ(got.empty_slots, want.empty_slots) << where;
  EXPECT_EQ(got.collision_slots, want.collision_slots) << where;
  EXPECT_EQ(got.success_slots, want.success_slots) << where;
  EXPECT_EQ(got.lost_slots, want.lost_slots) << where;
  EXPECT_EQ(got.duration, want.duration) << where;
  ASSERT_EQ(got_reads.size(), want_reads.size()) << where;
  for (std::size_t i = 0; i < got_reads.size(); ++i) {
    const rf::TagReading& g = got_reads[i];
    const rf::TagReading& w = want_reads[i];
    ASSERT_EQ(g.epc, w.epc) << where << " reading " << i;
    ASSERT_EQ(g.antenna, w.antenna) << where << " reading " << i;
    ASSERT_EQ(g.channel, w.channel) << where << " reading " << i;
    ASSERT_EQ(g.phase_rad, w.phase_rad) << where << " reading " << i;
    ASSERT_EQ(g.rssi_dbm, w.rssi_dbm) << where << " reading " << i;
    ASSERT_EQ(g.timestamp, w.timestamp) << where << " reading " << i;
  }
}

/// Next engine output of a reader's stream, without disturbing it.
std::uint64_t next_output(const util::Rng& rng) {
  util::Rng copy = rng;
  return copy.engine()();
}

/// Production and reference readers over twin scenes.
struct Twin {
  Scene prod_scene;
  Scene ref_scene;
  Gen2Reader prod;
  ReferenceReader ref;

  Twin(const SceneSpec& spec, const ReaderConfig& cfg, std::uint64_t seed)
      : prod_scene(spec), ref_scene(spec),
        prod(LinkTiming(LinkParams::max_throughput()), cfg, prod_scene.world,
             prod_scene.channel, prod_scene.antennas, util::Rng(seed)),
        ref(LinkTiming(LinkParams::max_throughput()), cfg, ref_scene.world,
            ref_scene.channel, ref_scene.antennas, util::Rng(seed)) {}

  void select(const SelectCommand& cmd) {
    prod.transmit_select(cmd);
    ref.transmit_select(cmd);
  }

  void antenna(std::size_t index) {
    prod.set_active_antenna(index);
    ref.set_active_antenna(index);
  }

  /// Runs one round on both engines and compares everything observable.
  void round(const QueryCommand& query, const std::string& where) {
    Readings got, want;
    const RoundStats g = prod.run_inventory_round(
        query, [&got](const rf::TagReading& r) { got.push_back(r); });
    const RoundStats w = ref.run_inventory_round(
        query, [&want](const rf::TagReading& r) { want.push_back(r); });
    expect_same_round(g, w, got, want, where);
    EXPECT_EQ(prod_scene.world.now(), ref_scene.world.now()) << where;
    EXPECT_EQ(next_output(prod.rng()), next_output(ref.rng())) << where;
  }
};

std::string label(AntiCollisionPolicy policy, unsigned q, std::size_t n) {
  return "policy=" + std::to_string(static_cast<int>(policy)) +
         " q=" + std::to_string(q) + " n=" + std::to_string(n);
}

TEST(Gen2Oracle, EveryAlohaPolicyQAndPopulation) {
  for (const AntiCollisionPolicy policy : kAlohaPolicies) {
    for (unsigned q = 0; q <= 15; ++q) {
      for (const std::size_t n : kPopulations) {
        ReaderConfig cfg;
        cfg.policy = policy;
        // Small-Q FixedQ frames over hundreds of tags collide for ever;
        // the guard keeps those rounds short (and exercises truncation).
        cfg.max_slots_per_round = 3000;
        Twin twin({n, 7 + n}, cfg, 100 + q);
        QueryCommand query;
        query.q = static_cast<std::uint8_t>(q);
        const std::string where = label(policy, q, n);
        twin.round(query, where + " round A");
        query.target = InvFlag::kB;
        twin.round(query, where + " round B");
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

/// One round over 8000 tags — far more than a window's worth per slot.
void eight_thousand_tags(AntiCollisionPolicy policy, unsigned q) {
  ReaderConfig cfg;
  cfg.policy = policy;
  Twin twin({8000, 11}, cfg, 5);
  QueryCommand query;
  query.q = static_cast<std::uint8_t>(q);
  twin.round(query, label(policy, q, 8000));
}

TEST(Gen2Oracle, EightThousandTagsQAdaptiveFromColdQ) {
  eight_thousand_tags(AntiCollisionPolicy::kQAdaptive, 4);
}

TEST(Gen2Oracle, EightThousandTagsQAdaptiveFromSaturatedQ) {
  eight_thousand_tags(AntiCollisionPolicy::kQAdaptive, 15);
}

TEST(Gen2Oracle, EightThousandTagsFixedQFrameOf8192) {
  // 256 windows' worth of refills per frame.
  eight_thousand_tags(AntiCollisionPolicy::kFixedQ, 13);
}

TEST(Gen2Oracle, IdealDfsaAtAThousandTags) {
  ReaderConfig cfg;
  cfg.policy = AntiCollisionPolicy::kIdealDfsa;
  Twin twin({1000, 12}, cfg, 6);
  twin.round({}, label(cfg.policy, 4, 1000));
}

TEST(Gen2Oracle, TruncatedRoundsResumeIdentically) {
  // max_slots_per_round cuts rounds mid-frame (including mid-window); the
  // next round must start from the same flags and random stream.
  for (const AntiCollisionPolicy policy : kAlohaPolicies) {
    for (const std::size_t max_slots : {1u, 2u, 31u, 32u, 33u, 100u}) {
      ReaderConfig cfg;
      cfg.policy = policy;
      cfg.max_slots_per_round = max_slots;
      Twin twin({200, 13}, cfg, max_slots);
      QueryCommand query;
      query.q = 7;
      for (int r = 0; r < 4; ++r) {
        twin.round(query, label(policy, 7, 200) + " max_slots=" +
                              std::to_string(max_slots) + " round " +
                              std::to_string(r));
      }
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(Gen2Oracle, RandomizedConfigurations) {
  // Loss, capture, blocking, persist_q, truncation, Selects, sessions with
  // decaying flags, antenna switches and moving tags, all at once.
  util::Rng pick(0x0a11ce);
  constexpr std::size_t kSizes[] = {0, 1, 2, 31, 32, 33, 64, 150, 500};
  for (int trial = 0; trial < 120; ++trial) {
    ReaderConfig cfg;
    cfg.policy = kAlohaPolicies[pick.below(3)];
    cfg.q_step = pick.uniform(0.1, 0.5);
    cfg.slot_error_rate = std::array{0.0, 0.05, 0.3}[pick.below(3)];
    cfg.capture_probability = std::array{0.0, 0.5, 1.0}[pick.below(3)];
    cfg.persist_q = pick.chance(0.5);
    cfg.max_slots_per_round =
        std::array<std::size_t, 4>{7, 40, 2000, 200'000}[pick.below(4)];
    cfg.channel_dwell = util::msec(std::array{5, 400}[pick.below(2)]);
    cfg.session_timing = pick.chance(0.5) ? SessionTiming::spec_default()
                                          : SessionTiming::persistent();
    SceneSpec spec;
    spec.tags = kSizes[pick.below(std::size(kSizes))];
    spec.seed = 1000 + static_cast<std::uint64_t>(trial);
    spec.block_probability = std::array{0.0, 0.2}[pick.below(2)];
    spec.moving = pick.chance(0.5);
    Twin twin(spec, cfg, pick.uniform_u64(0, ~std::uint64_t{0}));

    for (int r = 0; r < 5; ++r) {
      if (pick.chance(0.3)) {
        SelectCommand sel;
        sel.mask = util::BitString(pick.uniform_u64(0, 3), 2);
        sel.pointer = 94;  // the serial's two low bits
        sel.truncate = pick.chance(0.5);
        twin.select(sel);
      }
      if (pick.chance(0.3)) twin.antenna(pick.below(2));
      QueryCommand query;
      query.q = static_cast<std::uint8_t>(pick.below(16));
      query.session = static_cast<Session>(pick.below(4));
      query.target = pick.chance(0.5) ? InvFlag::kA : InvFlag::kB;
      query.sel = std::array{QuerySel::kAll, QuerySel::kSl,
                             QuerySel::kNotSl}[pick.below(3)];
      twin.round(query, "trial " + std::to_string(trial) + " " +
                            label(cfg.policy, query.q, spec.tags) +
                            " round " + std::to_string(r));
    }
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(Gen2Oracle, SharedFlagFieldAcrossReaders) {
  // Two readers with overlapping coverage energize one flag field: each
  // one's acknowledgements change who answers the other's next Query.
  const SceneSpec spec{120, 21};
  Scene prod_scene(spec), ref_scene(spec);
  const auto timing_s1 = SessionTiming::spec_default();
  auto prod_flags = std::make_shared<TagFlagField>(timing_s1);
  auto ref_flags = std::make_shared<TagFlagField>(timing_s1);
  const LinkTiming timing(LinkParams::max_throughput());
  std::vector<Gen2Reader> prod;
  std::vector<ReferenceReader> ref;
  for (int r = 0; r < 2; ++r) {
    ReaderConfig cfg;
    cfg.slot_error_rate = 0.05;
    cfg.capture_probability = 0.3;
    cfg.coverage =
        sim::Zone{"z" + std::to_string(r), {r == 0 ? -1.0 : 1.0, 0, 0}, 2.5};
    const util::Rng rng(40 + static_cast<std::uint64_t>(r));
    prod.emplace_back(timing, cfg, prod_scene.world, prod_scene.channel,
                      prod_scene.antennas, rng, prod_flags);
    ref.emplace_back(timing, cfg, ref_scene.world, ref_scene.channel,
                     ref_scene.antennas, rng, ref_flags);
  }
  for (int round = 0; round < 12; ++round) {
    const std::size_t r = static_cast<std::size_t>(round % 2);
    QueryCommand query;
    query.session = Session::kS1;
    query.target = (round / 2) % 2 == 0 ? InvFlag::kA : InvFlag::kB;
    Readings got, want;
    const RoundStats g = prod[r].run_inventory_round(
        query, [&got](const rf::TagReading& x) { got.push_back(x); });
    const RoundStats w = ref[r].run_inventory_round(
        query, [&want](const rf::TagReading& x) { want.push_back(x); });
    const std::string where = "shared field round " + std::to_string(round);
    expect_same_round(g, w, got, want, where);
    EXPECT_EQ(next_output(prod[r].rng()), next_output(ref[r].rng())) << where;
  }
}

}  // namespace
}  // namespace tagwatch::gen2
