// Tests for the Gen2 reader inventory engine: completeness, timing scaling,
// anti-collision policies, Select filtering, and failure injection.
#include <gtest/gtest.h>

#include <set>

#include "flag_store.hpp"
#include "gen2/reader.hpp"
#include "util/circular.hpp"

namespace tagwatch::gen2 {
namespace {

struct ReaderFixture {
  sim::World world;
  rf::RfChannel channel{rf::ChannelPlan::china_920_926()};
  std::vector<rf::Antenna> antennas{{1, {0, 0, 2}, 8.0}};

  explicit ReaderFixture(std::size_t n_tags, ReaderConfig cfg = {},
                         std::uint64_t seed = 33) {
    util::Rng rng(seed);
    for (std::size_t i = 0; i < n_tags; ++i) {
      sim::SimTag t;
      t.epc = util::Epc::from_serial(i + 1);
      t.motion = std::make_shared<sim::StaticMotion>(
          util::Vec3{rng.uniform(-2, 2), rng.uniform(-2, 2), 0});
      t.tag_phase_rad = rng.uniform(0.0, util::kTwoPi);
      world.add_tag(std::move(t));
    }
    reader.emplace(LinkTiming(LinkParams::max_throughput()), cfg, world,
                   channel, antennas, util::Rng(seed + 1));
  }

  std::optional<Gen2Reader> reader;

  std::vector<rf::TagReading> run_round(QueryCommand q = {}) {
    std::vector<rf::TagReading> reads;
    reader->run_inventory_round(
        q, [&reads](const rf::TagReading& r) { reads.push_back(r); });
    return reads;
  }
};

TEST(Gen2Reader, SingleRoundReadsEveryTagExactlyOnce) {
  ReaderFixture fx(25);
  const auto reads = fx.run_round();
  EXPECT_EQ(reads.size(), 25u);
  std::set<std::string> unique;
  for (const auto& r : reads) unique.insert(r.epc.to_hex());
  EXPECT_EQ(unique.size(), 25u);
}

TEST(Gen2Reader, EmptyFieldRoundTerminates) {
  ReaderFixture fx(0);
  const auto reads = fx.run_round();
  EXPECT_TRUE(reads.empty());
  EXPECT_GT(fx.world.now().count(), 0);  // still paid the start-up cost
}

TEST(Gen2Reader, RoundDurationGrowsWithPopulation) {
  // The inventory-cost mechanism behind Eqn. 5: more tags, more time.
  std::vector<double> durations;
  for (const std::size_t n : {1u, 10u, 40u}) {
    ReaderFixture fx(n);
    const auto t0 = fx.world.now();
    fx.run_round();
    durations.push_back(util::to_seconds(fx.world.now() - t0));
  }
  EXPECT_LT(durations[0], durations[1]);
  EXPECT_LT(durations[1], durations[2]);
  // Start-up cost dominates n=1: duration ≈ τ0 = 19 ms.
  EXPECT_GT(durations[0], 0.019);
  EXPECT_LT(durations[0], 0.030);
}

TEST(Gen2Reader, DualTargetAlternationReReadsAll) {
  ReaderFixture fx(10);
  QueryCommand q;
  q.target = InvFlag::kA;
  EXPECT_EQ(fx.run_round(q).size(), 10u);
  // Same target again: every tag flipped to B, so nobody answers.
  EXPECT_EQ(fx.run_round(q).size(), 0u);
  q.target = InvFlag::kB;
  EXPECT_EQ(fx.run_round(q).size(), 10u);
}

TEST(Gen2Reader, SessionsAreIndependent) {
  ReaderFixture fx(5);
  QueryCommand s1;
  s1.session = Session::kS1;
  EXPECT_EQ(fx.run_round(s1).size(), 5u);
  // S2 flags untouched by the S1 round.
  QueryCommand s2;
  s2.session = Session::kS2;
  EXPECT_EQ(fx.run_round(s2).size(), 5u);
}

TEST(Gen2Reader, SelectSlFiltersPopulation) {
  ReaderFixture fx(16);
  SelectCommand sel;
  sel.target = SelectTarget::kSl;
  sel.action = SelectAction::kAssertMatchedDeassertElse;
  // Tags 1..16 from_serial: low bits vary; pick the mask for serial bit 92
  // such that half the tags (odd serials) match the last bit = 1.
  sel.pointer = 95;
  sel.mask = util::BitString::from_binary("1");
  fx.reader->transmit_select(sel);
  QueryCommand q;
  q.sel = QuerySel::kSl;
  const auto reads = fx.run_round(q);
  EXPECT_EQ(reads.size(), 8u);  // odd serials only
  for (const auto& r : reads) {
    EXPECT_TRUE(r.epc.bits().bit(95));
  }
  // The complement answers ~SL.
  QueryCommand qn;
  qn.sel = QuerySel::kNotSl;
  EXPECT_EQ(fx.run_round(qn).size(), 8u);
}

TEST(Gen2Reader, SelectiveRoundIsFasterThanFullRound) {
  // The mechanism Tagwatch exploits: excluding tags cuts inventory time.
  ReaderFixture fx_all(40);
  const auto t0 = fx_all.world.now();
  fx_all.run_round();
  const auto full = fx_all.world.now() - t0;

  ReaderFixture fx_sel(40);
  SelectCommand sel;
  sel.pointer = 94;
  sel.mask = util::BitString::from_binary("01");  // serials ≡ 2,3 mod 4
  fx_sel.reader->transmit_select(sel);
  const auto t1 = fx_sel.world.now();
  QueryCommand q;
  q.sel = QuerySel::kSl;
  q.q = 3;
  fx_sel.run_round(q);
  const auto part = fx_sel.world.now() - t1;
  // Both rounds pay the same τ0; the slot phase shrinks with the population.
  EXPECT_LT(part, full * 3 / 4);
}

TEST(Gen2Reader, PolicyComparisonIdealDfsaIsBest) {
  // Ideal DFSA (oracle frame sizing) should not be slower than fixed-Q FSA
  // with a mismatched frame.
  const std::size_t n = 30;
  auto run_policy = [n](AntiCollisionPolicy policy, std::uint8_t q) {
    ReaderConfig cfg;
    cfg.policy = policy;
    ReaderFixture fx(n, cfg);
    QueryCommand query;
    query.q = q;
    const auto t0 = fx.world.now();
    const auto reads = fx.run_round(query);
    EXPECT_EQ(reads.size(), n);
    return util::to_seconds(fx.world.now() - t0);
  };
  const double ideal = run_policy(AntiCollisionPolicy::kIdealDfsa, 5);
  const double qadapt = run_policy(AntiCollisionPolicy::kQAdaptive, 5);
  // Q=3 (8-slot frames) against 30 tags: badly undersized but solvable.
  // (Q=1 would livelock realistically: nearly every slot collides.)
  const double fsa_bad = run_policy(AntiCollisionPolicy::kFixedQ, 3);
  EXPECT_LT(ideal, fsa_bad);
  // Q-adaptive approaches the optimum (within 2.5×, §2.3's finding that the
  // COTS algorithm leaves little room for improvement).
  EXPECT_LT(qadapt, ideal * 2.5);
}

TEST(Gen2Reader, QAdaptiveRecoversFromBadInitialQ) {
  // Start with Q=0 (1-slot frames) against 30 tags: pure collisions until
  // the Q algorithm climbs.  The round must still complete.
  ReaderConfig cfg;
  cfg.policy = AntiCollisionPolicy::kQAdaptive;
  ReaderFixture fx(30, cfg);
  QueryCommand q;
  q.q = 0;
  EXPECT_EQ(fx.run_round(q).size(), 30u);
}

TEST(Gen2Reader, AbsentTagsDoNotRespond) {
  ReaderFixture fx(5);
  // Tag leaves before the round.
  fx.world.tags()[0].departs = util::SimTime{0};
  // Tag arrives far in the future.
  fx.world.tags()[1].arrives = util::sec(9999);
  const auto reads = fx.run_round();
  EXPECT_EQ(reads.size(), 3u);
}

TEST(Gen2Reader, BlockedTagsMissRoundsProbabilistically) {
  ReaderFixture fx(10);
  fx.world.tags()[0].block_probability = 1.0;  // always blocked
  std::size_t seen_blocked = 0;
  InvFlag target = InvFlag::kA;
  for (int i = 0; i < 10; ++i) {
    QueryCommand q;
    q.target = target;
    target = target == InvFlag::kA ? InvFlag::kB : InvFlag::kA;
    for (const auto& r : fx.run_round(q)) {
      if (r.epc == fx.world.tags()[0].epc) ++seen_blocked;
    }
  }
  EXPECT_EQ(seen_blocked, 0u);
}

TEST(Gen2Reader, SlotErrorInjectionStillCompletes) {
  ReaderConfig cfg;
  cfg.slot_error_rate = 0.3;
  ReaderFixture fx(20, cfg);
  const auto reads = fx.run_round();
  // Lossy slots delay but never drop tags: the round retries until read.
  EXPECT_EQ(reads.size(), 20u);
}

TEST(Gen2Reader, RoundStatsAreConsistent) {
  ReaderFixture fx(15);
  RoundStats stats = fx.reader->run_inventory_round(QueryCommand{}, nullptr);
  EXPECT_EQ(stats.success_slots, 15u);
  EXPECT_EQ(stats.slots,
            stats.empty_slots + stats.collision_slots + stats.success_slots +
                stats.lost_slots);
  EXPECT_GT(stats.duration.count(), 0);
}

TEST(Gen2Reader, ReadingsCarryPhysicalMetadata) {
  ReaderFixture fx(3);
  const auto reads = fx.run_round();
  ASSERT_EQ(reads.size(), 3u);
  for (const auto& r : reads) {
    EXPECT_GE(r.phase_rad, 0.0);
    EXPECT_LT(r.phase_rad, util::kTwoPi);
    EXPECT_LT(r.rssi_dbm, 0.0);   // plausible dBm
    EXPECT_GT(r.rssi_dbm, -95.0);
    EXPECT_EQ(r.antenna, 1);
    EXPECT_LT(r.channel, 16u);
    EXPECT_GT(r.timestamp.count(), 0);
  }
}

TEST(Gen2Reader, FrequencyHopsRespectDwell) {
  ReaderConfig cfg;
  cfg.channel_dwell = util::msec(50);
  ReaderFixture fx(10, cfg);
  std::set<std::size_t> channels;
  InvFlag target = InvFlag::kA;
  for (int i = 0; i < 40; ++i) {
    QueryCommand q;
    q.target = target;
    target = target == InvFlag::kA ? InvFlag::kB : InvFlag::kA;
    for (const auto& r : fx.run_round(q)) channels.insert(r.channel);
  }
  // Over ~40 rounds × ~25 ms with 50 ms dwell, many channels are visited.
  EXPECT_GT(channels.size(), 4u);
}

TEST(Gen2Reader, AntennaSelectionIsReported) {
  ReaderFixture fx(2);
  fx.reader.emplace(LinkTiming(LinkParams::max_throughput()), ReaderConfig{},
                    fx.world, fx.channel,
                    std::vector<rf::Antenna>{{1, {0, 0, 2}, 8.0},
                                             {2, {1, 0, 2}, 8.0}},
                    util::Rng(5));
  fx.reader->set_active_antenna(1);
  const auto reads = fx.run_round();
  for (const auto& r : reads) EXPECT_EQ(r.antenna, 2);
  EXPECT_THROW(fx.reader->set_active_antenna(2), std::out_of_range);
}

// ------------------------------------------------------ dense flag mirror
// The reader keeps protocol flags in a dense per-tag-index vector instead
// of the EPC-keyed FlagStore.  These tests pin the mirror to the store's
// exact semantics: Select application, survival across world reindexing,
// resumption on re-entry, and power-up state for new tags.

TEST(Gen2ReaderFlags, SelectMirrorsFlagStoreSemantics) {
  ReaderFixture fx(12);
  // The same Select sequence applied through the old EPC-keyed FlagStore
  // is the oracle for the dense mirror.
  FlagStore oracle;
  std::vector<util::Epc> epcs;
  for (const auto& t : fx.world.tags()) epcs.push_back(t.epc);

  std::vector<SelectCommand> sequence(3);
  sequence[0].target = SelectTarget::kSl;
  sequence[0].mask = epcs[3].bits().substring(0, 20);
  sequence[1].target = SelectTarget::kSessionS1;
  sequence[1].action = SelectAction::kAssertMatchedOnly;
  sequence[1].mask = epcs[7].bits().substring(0, 12);
  sequence[2].target = SelectTarget::kSl;
  sequence[2].action = SelectAction::kToggleMatched;
  sequence[2].mask = epcs[3].bits().substring(0, 8);
  sequence[2].truncate = true;

  for (const SelectCommand& cmd : sequence) {
    fx.reader->transmit_select(cmd);
    oracle.broadcast_select(cmd, epcs);
  }
  for (const util::Epc& epc : epcs) {
    const TagFlags* mirror = fx.reader->find_flags(epc);
    const TagFlags* expected = oracle.find(epc);
    ASSERT_NE(mirror, nullptr) << epc.to_hex();
    ASSERT_NE(expected, nullptr) << epc.to_hex();
    EXPECT_EQ(mirror->sl, expected->sl) << epc.to_hex();
    EXPECT_EQ(mirror->inventoried, expected->inventoried) << epc.to_hex();
    EXPECT_EQ(mirror->truncate_from, expected->truncate_from)
        << epc.to_hex();
  }
}

TEST(Gen2ReaderFlags, FlagsSurviveRemovalAndResumeOnReAdd) {
  ReaderFixture fx(10);
  // One full round flips every tag's S0 flag A -> B.
  ASSERT_EQ(fx.run_round().size(), 10u);
  const util::Epc victim = util::Epc::from_serial(4);
  const TagFlags* before = fx.reader->find_flags(victim);
  ASSERT_NE(before, nullptr);
  ASSERT_EQ(before->session_flag(Session::kS0), InvFlag::kB);

  // Removing the tag reindexes the world; the other nine keep their
  // flags (nobody answers a kA-target round) and the departed tag's
  // state stays queryable.
  ASSERT_TRUE(fx.world.remove_tag(victim));
  EXPECT_TRUE(fx.run_round().empty());
  const TagFlags* departed = fx.reader->find_flags(victim);
  ASSERT_NE(departed, nullptr);
  EXPECT_EQ(departed->session_flag(Session::kS0), InvFlag::kB);

  // Re-entry resumes the stashed flags: still on B, so the returning tag
  // does not answer a kA round either — exactly what the EPC-keyed store
  // did.
  sim::SimTag back;
  back.epc = victim;
  back.motion = std::make_shared<sim::StaticMotion>(util::Vec3{0, 0, 0});
  fx.world.add_tag(std::move(back));
  EXPECT_TRUE(fx.run_round().empty());
  QueryCommand qb;
  qb.target = InvFlag::kB;
  EXPECT_EQ(fx.run_round(qb).size(), 10u);
}

TEST(Gen2ReaderFlags, NewWorldTagsGetPowerUpFlags) {
  ReaderFixture fx(6);
  ASSERT_EQ(fx.run_round().size(), 6u);  // Everyone flips to B.

  sim::SimTag fresh;
  fresh.epc = util::Epc::from_serial(1000);
  fresh.motion = std::make_shared<sim::StaticMotion>(util::Vec3{0, 0, 0});
  fx.world.add_tag(std::move(fresh));

  const TagFlags* flags = fx.reader->find_flags(util::Epc::from_serial(1000));
  ASSERT_NE(flags, nullptr);
  EXPECT_FALSE(flags->sl);
  EXPECT_EQ(flags->session_flag(Session::kS0), InvFlag::kA);
  EXPECT_EQ(flags->truncate_from, TagFlags::kNoTruncate);

  // Only the fresh tag participates in the next kA round.
  const auto reads = fx.run_round();
  ASSERT_EQ(reads.size(), 1u);
  EXPECT_EQ(reads[0].epc, util::Epc::from_serial(1000));
}

TEST(Gen2ReaderFlags, UnknownEpcHasNoFlags) {
  ReaderFixture fx(3);
  fx.run_round();
  EXPECT_EQ(fx.reader->find_flags(util::Epc::from_serial(777)), nullptr);
}

}  // namespace
}  // namespace tagwatch::gen2
