// Tests for Gen2 link timing and tag-side flag semantics.
#include <gtest/gtest.h>

#include "flag_store.hpp"
#include "gen2/link_params.hpp"
#include "gen2/tag_runtime.hpp"

namespace tagwatch::gen2 {
namespace {

TEST(LinkParams, ValidatesRanges) {
  EXPECT_NO_THROW(LinkParams::max_throughput().validate());
  EXPECT_NO_THROW(LinkParams::dense_reader_m4().validate());
  EXPECT_NO_THROW(LinkParams::paper_testbed().validate());
  LinkParams bad = LinkParams::max_throughput();
  bad.tari_us = 3.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = LinkParams::max_throughput();
  bad.miller_m = 3;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = LinkParams::max_throughput();
  bad.blf_khz = 1000.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(LinkTiming, CommandDurationsOrdered) {
  const LinkTiming t{LinkParams::max_throughput()};
  // QueryRep (4 bits) < QueryAdjust (9) < ACK (18) < Query (22 + preamble).
  EXPECT_LT(t.query_rep(), t.query_adjust());
  EXPECT_LT(t.query_adjust(), t.ack());
  EXPECT_LT(t.ack(), t.query());
}

TEST(LinkTiming, SlotDurationsOrdered) {
  const LinkTiming t{LinkParams::paper_testbed()};
  EXPECT_LT(t.empty_slot(), t.collision_slot());
  EXPECT_LT(t.collision_slot(), t.success_slot(96));
  // A 128-bit EPC takes longer than a 96-bit one.
  EXPECT_LT(t.success_slot(96), t.success_slot(128));
}

TEST(LinkTiming, SelectGrowsWithMask) {
  const LinkTiming t{LinkParams::paper_testbed()};
  EXPECT_LT(t.select(2), t.select(96));
  // 45 fixed bits + mask at 1.5 Tari avg + frame-sync.
  EXPECT_GT(t.select(0).count(), 0);
}

TEST(LinkTiming, FasterProfileIsFaster) {
  const LinkTiming fast{LinkParams::max_throughput()};
  const LinkTiming slow{LinkParams::dense_reader_m4()};
  EXPECT_LT(fast.empty_slot(), slow.empty_slot());
  EXPECT_LT(fast.success_slot(96), slow.success_slot(96));
}

TEST(LinkTiming, PaperTestbedSlotScale) {
  // The emergent average slot (≈ e·ln(n)/e weighted mix) should be within
  // the same order as the paper's fitted τ̄ = 0.18 ms: empty slots around
  // 0.1–0.3 ms and success slots around 1–2 ms.
  const LinkTiming t{LinkParams::paper_testbed()};
  EXPECT_GT(util::to_millis(t.empty_slot()), 0.05);
  EXPECT_LT(util::to_millis(t.empty_slot()), 0.4);
  EXPECT_GT(util::to_millis(t.success_slot(96)), 0.8);
  EXPECT_LT(util::to_millis(t.success_slot(96)), 3.0);
}

TEST(LinkTiming, TrextLengthensTagPreamble) {
  LinkParams p = LinkParams::paper_testbed();
  const LinkTiming without{p};
  p.trext = true;
  const LinkTiming with{p};
  EXPECT_GT(with.rn16(), without.rn16());
  EXPECT_GT(with.epc_reply(96), without.epc_reply(96));
}

// ------------------------------------------------------------ TagFlags

TEST(SelectMatch, EpcBankPointerAndMask) {
  const util::Epc epc = util::Epc::from_serial(0b001110, 6);
  SelectCommand cmd;
  cmd.bank = MemBank::kEpc;
  cmd.pointer = 2;
  cmd.mask = util::BitString::from_binary("11");
  EXPECT_TRUE(select_matches(cmd, epc));
  cmd.pointer = 0;
  EXPECT_FALSE(select_matches(cmd, epc));
  cmd.bank = MemBank::kTid;  // only the EPC bank is modeled
  cmd.pointer = 2;
  EXPECT_FALSE(select_matches(cmd, epc));
}

TEST(SelectAction, Action0AssertsMatchedDeassertsElse) {
  SelectCommand cmd;
  cmd.target = SelectTarget::kSl;
  cmd.action = SelectAction::kAssertMatchedDeassertElse;
  TagFlags matched, unmatched;
  unmatched.sl = true;
  apply_select_action(cmd, true, matched);
  apply_select_action(cmd, false, unmatched);
  EXPECT_TRUE(matched.sl);
  EXPECT_FALSE(unmatched.sl);
}

TEST(SelectAction, SessionTargetSetsInventoriedFlag) {
  SelectCommand cmd;
  cmd.target = SelectTarget::kSessionS1;
  cmd.action = SelectAction::kAssertMatchedDeassertElse;
  TagFlags matched, unmatched;
  matched.session_flag(Session::kS1) = InvFlag::kB;
  apply_select_action(cmd, true, matched);
  apply_select_action(cmd, false, unmatched);
  EXPECT_EQ(matched.session_flag(Session::kS1), InvFlag::kA);
  EXPECT_EQ(unmatched.session_flag(Session::kS1), InvFlag::kB);
  // Other sessions untouched.
  EXPECT_EQ(matched.session_flag(Session::kS0), InvFlag::kA);
}

TEST(SelectAction, ToggleNegatesSl) {
  SelectCommand cmd;
  cmd.target = SelectTarget::kSl;
  cmd.action = SelectAction::kToggleMatched;
  TagFlags f;
  apply_select_action(cmd, true, f);
  EXPECT_TRUE(f.sl);
  apply_select_action(cmd, true, f);
  EXPECT_FALSE(f.sl);
  apply_select_action(cmd, false, f);  // non-matching: no change
  EXPECT_FALSE(f.sl);
}

TEST(SelectAction, DeassertUnmatchedOnlyIntersects) {
  // Chaining filters: second Select must not touch matching tags.
  SelectCommand cmd;
  cmd.target = SelectTarget::kSl;
  cmd.action = SelectAction::kDeassertUnmatchedOnly;
  TagFlags in, out;
  in.sl = out.sl = true;
  apply_select_action(cmd, true, in);
  apply_select_action(cmd, false, out);
  EXPECT_TRUE(in.sl);
  EXPECT_FALSE(out.sl);
}

TEST(FlagStore, DefaultsToPowerUpState) {
  FlagStore store;
  const TagFlags& f = store[util::Epc::from_serial(1)];
  EXPECT_FALSE(f.sl);
  EXPECT_EQ(f.session_flag(Session::kS0), InvFlag::kA);
  EXPECT_EQ(f.session_flag(Session::kS3), InvFlag::kA);
}

TEST(FlagStore, BroadcastSelectPartitionsPopulation) {
  FlagStore store;
  std::vector<util::Epc> epcs;
  for (std::uint64_t i = 0; i < 8; ++i) {
    epcs.push_back(util::Epc::from_serial(i, 8));  // "00000000".."00000111"
  }
  SelectCommand cmd;
  cmd.target = SelectTarget::kSl;
  cmd.action = SelectAction::kAssertMatchedDeassertElse;
  cmd.pointer = 5;
  cmd.mask = util::BitString::from_binary("1");  // serials with bit 5 set: 4..7
  store.broadcast_select(cmd, epcs);
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(store[epcs[static_cast<std::size_t>(i)]].sl, i >= 4) << i;
  }
}

TEST(FlagStore, ForgetRemovesState) {
  FlagStore store;
  store[util::Epc::from_serial(1)].sl = true;
  EXPECT_EQ(store.size(), 1u);
  store.forget(util::Epc::from_serial(1));
  EXPECT_EQ(store.size(), 0u);
  EXPECT_FALSE(store[util::Epc::from_serial(1)].sl);  // fresh power-up state
}

}  // namespace
}  // namespace tagwatch::gen2
