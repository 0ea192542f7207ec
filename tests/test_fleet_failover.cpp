// Fleet fault tolerance: the FleetHealth availability state machine, zone
// takeover (grant, budget cap, restore-on-recovery), the bounded orphan
// re-cover queue, session-aware re-inventory after takeover, and the
// chaos record→replay digest contract.  These tests carry the ctest
// `chaos-smoke` label (run under TSan in CI).
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/fleet.hpp"
#include "llrp/fault_injection.hpp"
#include "llrp/recording_reader_client.hpp"
#include "llrp/replay_reader_client.hpp"
#include "llrp/sim_reader_client.hpp"
#include "util/wall_clock.hpp"

namespace tagwatch::core {
namespace {

// ------------------------------------------------ FleetHealth state machine

FleetResilienceConfig tight_resilience() {
  FleetResilienceConfig cfg;
  cfg.suspect_after_failures = 2;
  cfg.down_after_failures = 3;
  cfg.error_window = 4;
  cfg.error_rate_threshold = 0.5;
  cfg.probe_period = 3;
  cfg.probation_cycles = 2;
  return cfg;
}

TEST(FleetHealth, ConsecutiveFailuresDriveSuspectThenDown) {
  FleetHealth h(1, tight_resilience());
  EXPECT_EQ(h.state(0), ReaderState::kHealthy);
  EXPECT_EQ(h.observe(0, true, true), FleetHealth::Transition::kNone);
  EXPECT_EQ(h.state(0), ReaderState::kHealthy);
  EXPECT_EQ(h.observe(0, true, true), FleetHealth::Transition::kWentSuspect);
  EXPECT_EQ(h.state(0), ReaderState::kSuspect);
  EXPECT_EQ(h.observe(0, true, true), FleetHealth::Transition::kWentDown);
  EXPECT_EQ(h.state(0), ReaderState::kDown);
  EXPECT_EQ(h.consecutive_failures(0), 3u);
  EXPECT_EQ(h.down_count(), 1u);
}

TEST(FleetHealth, CleanCycleResetsTheFailureStreak) {
  FleetHealth h(1, tight_resilience());
  h.observe(0, true, true);
  h.observe(0, false, false);  // One good cycle wipes the streak.
  EXPECT_EQ(h.consecutive_failures(0), 0u);
  h.observe(0, true, true);
  EXPECT_EQ(h.state(0), ReaderState::kHealthy);  // 1 < suspect_after again.
}

TEST(FleetHealth, DownReaderSkipsUntilTheProbeCycle) {
  FleetHealth h(1, tight_resilience());  // probe_period = 3
  for (int i = 0; i < 3; ++i) h.observe(0, true, true);
  ASSERT_EQ(h.state(0), ReaderState::kDown);

  // Two skips, then the third cycle is due for a probe.
  EXPECT_FALSE(h.should_run(0));
  h.observe_skip(0);
  EXPECT_FALSE(h.should_run(0));
  h.observe_skip(0);
  EXPECT_TRUE(h.should_run(0));

  // A failed probe stays Down and restarts the skip cadence.
  EXPECT_EQ(h.observe(0, true, true), FleetHealth::Transition::kNone);
  EXPECT_EQ(h.state(0), ReaderState::kDown);
  EXPECT_FALSE(h.should_run(0));
}

TEST(FleetHealth, ProbationServedRestoresHealthy) {
  FleetHealth h(1, tight_resilience());  // probation_cycles = 2
  for (int i = 0; i < 3; ++i) h.observe(0, true, true);
  h.observe_skip(0);
  h.observe_skip(0);

  // Clean probe: Probation, not yet Healthy.
  EXPECT_EQ(h.observe(0, false, false), FleetHealth::Transition::kNone);
  EXPECT_EQ(h.state(0), ReaderState::kProbation);
  // Second clean cycle serves probation.
  EXPECT_EQ(h.observe(0, false, false), FleetHealth::Transition::kRecovered);
  EXPECT_EQ(h.state(0), ReaderState::kHealthy);
  EXPECT_EQ(h.consecutive_failures(0), 0u);
  // Skips and the down-time observes were all counted.
  EXPECT_EQ(h.down_cycles(0), 4u);
}

TEST(FleetHealth, ProbationRelapseGoesBackDown) {
  FleetHealth h(1, tight_resilience());
  for (int i = 0; i < 3; ++i) h.observe(0, true, true);
  h.observe_skip(0);
  h.observe_skip(0);
  h.observe(0, false, false);
  ASSERT_EQ(h.state(0), ReaderState::kProbation);
  EXPECT_EQ(h.observe(0, true, true), FleetHealth::Transition::kNone);
  EXPECT_EQ(h.state(0), ReaderState::kDown);
  EXPECT_EQ(h.down_count(), 1u);
}

TEST(FleetHealth, ErrorRateWindowMarksSuspectWithoutBlackouts) {
  // Errored-but-alive cycles (readings still flow, failed = false) never
  // hit the consecutive-failure path; the sliding window catches them.
  FleetHealth h(1, tight_resilience());  // window 4, threshold 0.5
  h.observe(0, false, true);
  h.observe(0, false, true);
  h.observe(0, false, true);
  EXPECT_EQ(h.state(0), ReaderState::kHealthy);  // Window not full yet.
  EXPECT_EQ(h.observe(0, false, false), FleetHealth::Transition::kWentSuspect);
  EXPECT_EQ(h.state(0), ReaderState::kSuspect);

  // Clean cycles evict the errors from the window: back to Healthy.
  h.observe(0, false, false);
  EXPECT_EQ(h.state(0), ReaderState::kSuspect);  // 2/4 still at threshold.
  h.observe(0, false, false);
  EXPECT_EQ(h.state(0), ReaderState::kHealthy);  // 1/4 below threshold.
}

// --------------------------------------------------------- chaos test bed

/// A reader strip like test_fleet's FleetBed, but every reader is wrapped
/// in a FaultInjectingReaderClient so tests can script outages.  Readers
/// sit at x = 0, 4, 8, ... with radius 3; `tags_per_zone[r]` statics are
/// planted around reader r's zone center.
struct ChaosBed {
  sim::World world;
  rf::RfChannel channel{rf::ChannelPlan::single(920.625e6)};
  std::shared_ptr<gen2::TagFlagField> field;
  std::vector<std::unique_ptr<llrp::SimReaderClient>> sims;
  std::vector<std::unique_ptr<llrp::FaultInjectingReaderClient>> injectors;
  std::vector<FleetReaderSpec> specs;

  ChaosBed(std::vector<std::size_t> tags_per_zone,
           std::vector<llrp::FaultPlan> plans = {}, std::uint64_t seed = 33) {
    util::Rng rng(seed);
    field = std::make_shared<gen2::TagFlagField>(
        gen2::SessionTiming::spec_default());
    std::size_t serial = 1;
    for (std::size_t r = 0; r < tags_per_zone.size(); ++r) {
      const double cx = static_cast<double>(r) * 4.0;
      sim::Zone zone{"zone-" + std::to_string(r), {cx, 0, 0}, 3.0};
      for (std::size_t i = 0; i < tags_per_zone[r]; ++i) {
        sim::SimTag t;
        t.epc = util::Epc::from_serial(serial++);
        t.motion = std::make_shared<sim::StaticMotion>(
            util::Vec3{cx + rng.uniform(-0.5, 0.5),
                       rng.uniform(-0.5, 0.5), 0});
        t.tag_phase_rad = 0.1 * static_cast<double>(serial);
        world.add_tag(std::move(t));
      }
      gen2::ReaderConfig rc;
      rc.coverage = zone;
      sims.push_back(std::make_unique<llrp::SimReaderClient>(
          gen2::LinkTiming(gen2::LinkParams::max_throughput()), rc, world,
          channel, std::vector<rf::Antenna>{{1, {cx, 0, 2}, 8.0}},
          seed + 10 + r, field));
      injectors.push_back(std::make_unique<llrp::FaultInjectingReaderClient>(
          *sims.back(), r < plans.size() ? plans[r] : llrp::FaultPlan{}));
      specs.push_back({injectors.back().get(), zone});
    }
  }
};

FleetConfig chaos_config(TakeoverPolicy policy) {
  FleetConfig cfg;
  cfg.controller.phase2_duration = util::msec(200);
  // Real compute time on the sim clock would make every timestamp — and
  // the twin-bed outage anchoring below — depend on host speed and
  // thread count.
  cfg.controller.charge_compute_time = false;
  cfg.takeover = policy;
  cfg.resilience.suspect_after_failures = 1;
  cfg.resilience.down_after_failures = 2;
  cfg.resilience.probe_period = 2;
  cfg.resilience.probation_cycles = 1;
  return cfg;
}

/// Sim time one millisecond before fleet cycle `cycles` starts, found by
/// running a fault-free twin bed (same seed ⇒ identical pre-death clock).
/// The -1 ms matters: reader 0 runs first in the TDM rotation and the
/// injector evaluates outages at execute *start*, so an outage anchored
/// exactly at the boundary would let reader 0's first Phase I through.
util::SimTime death_before_cycle(const FleetConfig& cfg,
                                 std::vector<std::size_t> tags_per_zone,
                                 std::size_t cycles,
                                 std::uint64_t seed = 33) {
  ChaosBed probe(std::move(tags_per_zone), {}, seed);
  FleetController fleet(cfg, probe.specs);
  fleet.run_cycles(cycles);
  return probe.injectors[0]->now() - util::msec(1);
}

llrp::FaultPlan outage_plan(util::SimTime from,
                            std::optional<util::SimTime> until = {}) {
  llrp::FaultPlan plan;
  plan.outages.push_back({from, until});
  return plan;
}

// ------------------------------------------------- takeover and recovery

TEST(FleetFailover, DeathTriggersTakeoverAndRecoveryRestoresZones) {
  const FleetConfig cfg = chaos_config(TakeoverPolicy::kAdaptive);
  const std::vector<std::size_t> tags{3, 3, 3, 3};
  const util::SimTime death = death_before_cycle(cfg, tags, 2);
  ChaosBed bed(tags, {outage_plan(death, death + util::sec(2))});
  FleetController fleet(cfg, bed.specs);

  bool saw_down = false, saw_skip = false, saw_probe = false;
  bool saw_recovery = false;
  for (std::size_t c = 0; c < 24 && !saw_recovery; ++c) {
    const FleetCycleReport r = fleet.run_cycle();
    if (!r.downs.empty()) {
      saw_down = true;
      ASSERT_EQ(r.downs.size(), 1u);
      EXPECT_EQ(r.downs[0].reader, 0u);
      EXPECT_EQ(r.downs[0].zone, "zone-0");
      EXPECT_EQ(r.downs[0].consecutive_failures, 2u);
      EXPECT_EQ(r.readers[0].state, ReaderState::kDown);

      // Nearest two survivors expanded to the default budget (2× their
      // own 3 m radius), and the expansion is visible immediately.
      ASSERT_EQ(r.takeovers.size(), 2u);
      EXPECT_EQ(r.takeovers[0].from_reader, 0u);
      EXPECT_EQ(r.takeovers[0].to_reader, 1u);
      EXPECT_EQ(r.takeovers[0].radius_mm, 6000);
      EXPECT_EQ(r.takeovers[1].to_reader, 2u);
      EXPECT_EQ(r.takeovers[1].radius_mm, 6000);
      EXPECT_DOUBLE_EQ(fleet.reader_zone(1).radius_m, 6.0);
      EXPECT_DOUBLE_EQ(fleet.reader_zone(2).radius_m, 6.0);
      EXPECT_DOUBLE_EQ(fleet.reader_zone(3).radius_m, 3.0);

      // The dead reader's whole population was orphaned into the queue.
      EXPECT_EQ(r.recover.enqueued, 3u);
      EXPECT_EQ(r.recover.dropped, 0u);
    }
    if (saw_down && !saw_recovery) {
      saw_skip = saw_skip || r.readers[0].skipped;
      saw_probe = saw_probe || r.readers[0].probe;
    }
    if (!r.recoveries.empty()) {
      saw_recovery = true;
      ASSERT_EQ(r.recoveries.size(), 1u);
      EXPECT_EQ(r.recoveries[0].reader, 0u);
      EXPECT_GT(r.recoveries[0].down_for_cycles, 0u);
      EXPECT_EQ(r.readers[0].state, ReaderState::kHealthy);
    }
  }
  ASSERT_TRUE(saw_down);
  EXPECT_TRUE(saw_skip);   // probe_period 2: every other cycle skipped.
  EXPECT_TRUE(saw_probe);  // ...and the alternate cycles probed.
  ASSERT_TRUE(saw_recovery);

  // Grants dissolve on recovery: every zone back to its original radius.
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_DOUBLE_EQ(fleet.reader_zone(k).radius_m, 3.0);
  }
  // The expanded survivors re-read the orphans: queue fully drained.
  const RecoverStats rs = fleet.recover_stats();
  EXPECT_EQ(rs.enqueued, 3u);
  EXPECT_EQ(rs.recovered, 3u);
  EXPECT_EQ(rs.pending, 0u);
}

TEST(FleetFailover, TakeoverRadiusBudgetCapsTheGrant) {
  FleetConfig cfg = chaos_config(TakeoverPolicy::kAdaptive);
  cfg.resilience.takeover_radius_budget_m = 3.5;
  const std::vector<std::size_t> tags{3, 3};
  const util::SimTime death = death_before_cycle(cfg, tags, 1);
  ChaosBed bed(tags, {outage_plan(death)});
  FleetController fleet(cfg, bed.specs);

  llrp::FleetTakeoverRecord grant;
  for (std::size_t c = 0; c < 6 && grant.radius_mm == 0; ++c) {
    const FleetCycleReport r = fleet.run_cycle();
    if (!r.takeovers.empty()) grant = r.takeovers[0];
  }
  // Adaptive wants dist + radius = 4 + 3 = 7 m; the budget wins.
  ASSERT_EQ(grant.radius_mm, 3500);
  EXPECT_DOUBLE_EQ(fleet.reader_zone(1).radius_m, 3.5);
}

TEST(FleetFailover, StaticNeighborPolicyExpandsByTheFixedStep) {
  FleetConfig cfg = chaos_config(TakeoverPolicy::kStaticNeighbor);
  cfg.resilience.static_expand_m = 0.75;
  const std::vector<std::size_t> tags{3, 3};
  const util::SimTime death = death_before_cycle(cfg, tags, 1);
  ChaosBed bed(tags, {outage_plan(death)});
  FleetController fleet(cfg, bed.specs);

  llrp::FleetTakeoverRecord grant;
  for (std::size_t c = 0; c < 6 && grant.radius_mm == 0; ++c) {
    const FleetCycleReport r = fleet.run_cycle();
    if (!r.takeovers.empty()) grant = r.takeovers[0];
  }
  ASSERT_EQ(grant.radius_mm, 3750);
  EXPECT_DOUBLE_EQ(fleet.reader_zone(1).radius_m, 3.75);
}

TEST(FleetFailover, NoTakeoverPolicyStillAccountsOrphans) {
  const FleetConfig cfg = chaos_config(TakeoverPolicy::kNone);
  const std::vector<std::size_t> tags{3, 3};
  const util::SimTime death = death_before_cycle(cfg, tags, 1);
  ChaosBed bed(tags, {outage_plan(death)});
  FleetController fleet(cfg, bed.specs);

  bool saw_down = false;
  for (const FleetCycleReport& r : fleet.run_cycles(8)) {
    saw_down = saw_down || !r.downs.empty();
    EXPECT_TRUE(r.takeovers.empty());
  }
  ASSERT_TRUE(saw_down);
  EXPECT_DOUBLE_EQ(fleet.reader_zone(1).radius_m, 3.0);
  // Orphans were enqueued but nobody expanded to re-cover them.
  const RecoverStats rs = fleet.recover_stats();
  EXPECT_EQ(rs.enqueued, 3u);
  EXPECT_EQ(rs.recovered, 0u);
  EXPECT_EQ(rs.pending, 3u);
}

TEST(FleetFailover, RecoverQueueIsBoundedWithDropAccounting) {
  FleetConfig cfg = chaos_config(TakeoverPolicy::kNone);
  cfg.resilience.recover_queue_capacity = 2;
  const std::vector<std::size_t> tags{5, 3};
  const util::SimTime death = death_before_cycle(cfg, tags, 1);
  ChaosBed bed(tags, {outage_plan(death)});
  FleetController fleet(cfg, bed.specs);

  fleet.run_cycles(8);
  const RecoverStats rs = fleet.recover_stats();
  EXPECT_EQ(rs.enqueued, 2u);
  EXPECT_EQ(rs.dropped, 3u);
  EXPECT_EQ(rs.pending, 2u);
}

TEST(FleetFailover, RecoveredDeliveriesAreCountedInSinkStats) {
  const FleetConfig cfg = chaos_config(TakeoverPolicy::kAdaptive);
  const std::vector<std::size_t> tags{3, 3, 3, 3};
  const util::SimTime death = death_before_cycle(cfg, tags, 2);
  ChaosBed bed(tags, {outage_plan(death)});
  FleetController fleet(cfg, bed.specs);
  fleet.pipeline().add_sink(
      std::make_shared<CallbackSink>("app", [](const rf::TagReading&) {}));

  fleet.run_cycles(8);
  const RecoverStats rs = fleet.recover_stats();
  ASSERT_EQ(rs.recovered, 3u);

  // Every re-covered orphan delivery was flagged through ReadingContext
  // and tallied per sink.
  std::uint64_t recovered = 0;
  for (const SinkStats& s : fleet.pipeline().stats()) {
    recovered += s.recovered;
  }
  EXPECT_EQ(recovered, rs.recovered);
}

// ----------------------------------------- session-aware re-inventory

TEST(FleetFailover, TakeoverRearmsSharedSessionExactlyOnce) {
  // Shared S2, all tags in zone 0: reader 0 ACKs them to B, dies, and the
  // survivor can only see them again because the takeover arms a one-shot
  // session re-arm (S2 holds B indefinitely while energized).
  FleetConfig cfg = chaos_config(TakeoverPolicy::kAdaptive);
  cfg.policy = SessionPolicy::kShared;
  cfg.shared_session = gen2::Session::kS2;
  const std::vector<std::size_t> tags{6, 0};
  const util::SimTime death = death_before_cycle(cfg, tags, 1);
  ChaosBed bed(tags, {outage_plan(death)});
  FleetController fleet(cfg, bed.specs);

  const FleetCycleReport first = fleet.run_cycle();
  EXPECT_EQ(first.readers[0].report.phase1_readings, 6u);
  EXPECT_EQ(first.readers[1].report.phase1_readings, 0u);
  EXPECT_EQ(bed.field->count_b(bed.world, gen2::Session::kS2,
                               bed.injectors[0]->now()),
            6u);

  // Run until the takeover cycle: reader 0 fails twice, goes Down, and
  // reader 1 — later in the same TDM rotation — re-arms and re-reads the
  // whole orphaned population despite every flag sitting on B.
  FleetCycleReport down_cycle;
  for (std::size_t c = 0; c < 6 && down_cycle.takeovers.empty(); ++c) {
    down_cycle = fleet.run_cycle();
  }
  ASSERT_FALSE(down_cycle.takeovers.empty());
  EXPECT_EQ(down_cycle.readers[1].report.phase1_readings, 6u);
  EXPECT_EQ(fleet.recover_stats().recovered, 6u);

  // The re-arm was one-shot: the next cycle is back to shared-session
  // discipline and finds everything on B again.
  const FleetCycleReport after = fleet.run_cycle();
  EXPECT_EQ(after.readers[1].report.phase1_readings, 0u);
}

// --------------------------------------------------- journal D/T/R records

TEST(FleetJournal, FaultRecordsRoundTripThroughCsv) {
  llrp::FleetJournal journal;
  journal.setup.readers = 4;
  journal.setup.policy = "independent";
  journal.setup.session = gen2::Session::kS1;
  journal.setup.dedup_window = util::msec(500);
  journal.push_cycle({3, 0, "zone-0", 0, 0, 0, 0});
  journal.push_down({3, 0, "zone-0", 2});
  journal.push_takeover({3, 0, 1, 6000});
  journal.push_takeover({3, 0, 2, 3500});
  journal.push_recover({9, 0, 6});

  const std::string csv = journal.to_csv();
  const llrp::FleetJournal parsed = llrp::FleetJournal::from_csv(csv);
  EXPECT_EQ(parsed.to_csv(), csv);
  EXPECT_EQ(fleet_journal_digest(parsed), fleet_journal_digest(journal));
  ASSERT_EQ(parsed.size(), 5u);
  EXPECT_EQ(parsed.entries()[1].kind, llrp::FleetJournalEntry::Kind::kDown);
  EXPECT_EQ(parsed.entries()[1].down.zone, "zone-0");
  EXPECT_EQ(parsed.entries()[1].down.consecutive_failures, 2u);
  EXPECT_EQ(parsed.entries()[2].takeover.radius_mm, 6000);
  EXPECT_EQ(parsed.entries()[3].takeover.to_reader, 2u);
  EXPECT_EQ(parsed.entries()[4].recover.down_for_cycles, 6u);
}

TEST(FleetJournal, RejectsMalformedFaultRecords) {
  const std::string header =
      "# tagwatch-fleet-journal v1\nS,2,independent,S1,0\n";
  EXPECT_THROW(llrp::FleetJournal::from_csv(header + "D,1,0\n"),
               std::invalid_argument);
  EXPECT_THROW(llrp::FleetJournal::from_csv(header + "T,1,0,1\n"),
               std::invalid_argument);
  EXPECT_THROW(llrp::FleetJournal::from_csv(header + "R,1\n"),
               std::invalid_argument);
}

// --------------------------------------------------- record → replay

TEST(FleetFailover, ChaosRecordReplayPreservesFleetJournalDigest) {
  // Reader 0 dies permanently mid-run; readers 1-3 are flaky (random
  // execute failures).  Record everything, then replay from the reader
  // journals alone (no world, no injectors) and demand the identical
  // fleet story — downs, takeovers, and all.
  const FleetConfig base = chaos_config(TakeoverPolicy::kAdaptive);
  const std::vector<std::size_t> tags{3, 3, 3, 3};
  const util::SimTime death = death_before_cycle(base, tags, 2, /*seed=*/55);

  std::vector<llrp::FaultPlan> plans(4);
  plans[0] = outage_plan(death);
  for (std::size_t r = 1; r < 4; ++r) {
    plans[r].seed = 0xfa171 + r;
    plans[r].execute_failure_probability = 0.15;
    plans[r].weight_disconnect = 0.3;
    plans[r].weight_partial_report = 0.3;
  }
  ChaosBed bed(tags, plans, /*seed=*/55);

  std::vector<std::unique_ptr<llrp::RecordingReaderClient>> recorders;
  std::vector<FleetReaderSpec> recording_specs = bed.specs;
  for (std::size_t k = 0; k < bed.specs.size(); ++k) {
    recorders.push_back(
        std::make_unique<llrp::RecordingReaderClient>(*bed.specs[k].client));
    recording_specs[k].client = recorders[k].get();
  }

  FleetConfig cfg = base;
  util::FakeWallClock record_clock(/*auto_step=*/0.001);
  cfg.controller.wall_clock = &record_clock;
  FleetController recorded(cfg, recording_specs);
  const auto recorded_reports = recorded.run_cycles(8);

  // The chaos actually happened: a D record, takeovers, and errored
  // executes journaled as X records on the dead reader's journal.
  std::size_t downs = 0, takeovers = 0;
  for (const auto& r : recorded_reports) {
    downs += r.downs.size();
    takeovers += r.takeovers.size();
  }
  ASSERT_GE(downs, 1u);
  ASSERT_GE(takeovers, 1u);
  EXPECT_NE(recorders[0]->journal().to_csv().find("\nX,"), std::string::npos);

  std::vector<std::unique_ptr<llrp::ReplayReaderClient>> replays;
  std::vector<FleetReaderSpec> replay_specs = bed.specs;
  for (std::size_t k = 0; k < recorders.size(); ++k) {
    replays.push_back(std::make_unique<llrp::ReplayReaderClient>(
        llrp::ReaderJournal::from_csv(recorders[k]->journal().to_csv())));
    replay_specs[k].client = replays[k].get();
  }
  util::FakeWallClock replay_clock(/*auto_step=*/0.001);
  cfg.controller.wall_clock = &replay_clock;
  FleetController replayed(cfg, replay_specs);
  const auto replayed_reports = replayed.run_cycles(8);

  EXPECT_EQ(fleet_journal_digest(replayed.journal()),
            fleet_journal_digest(recorded.journal()));
  EXPECT_EQ(replayed.journal().to_csv(), recorded.journal().to_csv());
  ASSERT_EQ(replayed_reports.size(), recorded_reports.size());
  for (std::size_t c = 0; c < recorded_reports.size(); ++c) {
    SCOPED_TRACE("cycle " + std::to_string(c));
    EXPECT_EQ(replayed_reports[c].downs.size(),
              recorded_reports[c].downs.size());
    EXPECT_EQ(replayed_reports[c].takeovers.size(),
              recorded_reports[c].takeovers.size());
    EXPECT_EQ(replayed_reports[c].recoveries.size(),
              recorded_reports[c].recoveries.size());
    EXPECT_EQ(replayed_reports[c].delivered_total,
              recorded_reports[c].delivered_total);
    for (std::size_t k = 0; k < 4; ++k) {
      EXPECT_EQ(replayed_reports[c].readers[k].state,
                recorded_reports[c].readers[k].state);
      EXPECT_EQ(replayed_reports[c].readers[k].skipped,
                recorded_reports[c].readers[k].skipped);
    }
    EXPECT_EQ(replayed_reports[c].recover.recovered,
              recorded_reports[c].recover.recovered);
  }
}

// ----------------------------------------------- determinism across threads

/// Serializes everything a fleet run reported, so runs can be compared
/// byte-for-byte.
std::string describe(const std::vector<FleetCycleReport>& reports) {
  std::ostringstream out;
  for (const FleetCycleReport& r : reports) {
    out << "cycle " << r.cycle_index << ": " << r.readings_total << '/'
        << r.delivered_total << '/' << r.duplicates_total << '\n';
    for (const FleetReaderCycle& k : r.readers) {
      out << "  reader " << k.reader << ' ' << to_string(k.state)
          << (k.skipped ? " skipped" : "") << (k.probe ? " probe" : "")
          << (k.over_budget ? " over-budget" : "") << " p1="
          << k.report.phase1_readings << " p2=" << k.report.phase2_readings
          << " delivered=" << k.delivered << " faults="
          << k.health.faults_total() << '\n';
    }
    for (const auto& d : r.downs) {
      out << "  D " << d.reader << ' ' << d.zone << '\n';
    }
    for (const auto& t : r.takeovers) {
      out << "  T " << t.from_reader << "->" << t.to_reader << ' '
          << t.radius_mm << "mm\n";
    }
    for (const auto& rec : r.recoveries) {
      out << "  R " << rec.reader << " after " << rec.down_for_cycles << '\n';
    }
    out << "  queue " << r.recover.enqueued << '/' << r.recover.dropped
        << '/' << r.recover.recovered << '/' << r.recover.pending << '\n';
  }
  return out.str();
}

TEST(FleetFailover, AssessorThreadCountNeverChangesTheFaultStory) {
  const FleetConfig base = chaos_config(TakeoverPolicy::kAdaptive);
  const std::vector<std::size_t> tags{3, 3, 3, 3};
  const util::SimTime death = death_before_cycle(base, tags, 2);

  std::string journal_csv, report_text;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ChaosBed bed(tags, {outage_plan(death, death + util::sec(2))});
    FleetConfig cfg = base;
    cfg.controller.threads = threads;
    FleetController fleet(cfg, bed.specs);
    const std::string text = describe(fleet.run_cycles(12));
    const std::string csv = fleet.journal().to_csv();
    if (journal_csv.empty()) {
      journal_csv = csv;
      report_text = text;
      // The scenario is interesting: it contains a down and a takeover.
      EXPECT_NE(csv.find("\nD,"), std::string::npos);
      EXPECT_NE(csv.find("\nT,"), std::string::npos);
    } else {
      EXPECT_EQ(csv, journal_csv);
      EXPECT_EQ(text, report_text);
    }
  }
}

// ------------------------------------------------------------- watchdog

TEST(FleetFailover, WatchdogBudgetMarksSlowCyclesAsFailures) {
  FleetConfig cfg = chaos_config(TakeoverPolicy::kNone);
  // Far below any real cycle (Phase II alone is 200 ms): every cycle
  // overruns, so every reader fails its first cycle and goes Suspect.
  cfg.resilience.reader_cycle_budget = util::msec(1);
  ChaosBed bed({2, 2});
  FleetController fleet(cfg, bed.specs);

  const FleetCycleReport r = fleet.run_cycle();
  for (const FleetReaderCycle& k : r.readers) {
    EXPECT_TRUE(k.over_budget);
    EXPECT_EQ(k.state, ReaderState::kSuspect);
  }
}

}  // namespace
}  // namespace tagwatch::core
