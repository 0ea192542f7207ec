// Record → replay round trip: a RecordingReaderClient journals a live run
// and a ReplayReaderClient reproduces it bit-for-bit without the simulator.
#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "core/tagwatch.hpp"
#include "llrp/recording_reader_client.hpp"
#include "llrp/replay_reader_client.hpp"
#include "llrp/sim_reader_client.hpp"
#include "util/circular.hpp"
#include "util/wall_clock.hpp"

namespace tagwatch::llrp {
namespace {

struct RecordBed {
  sim::World world;
  rf::RfChannel channel{rf::ChannelPlan::single(920.625e6)};
  std::vector<rf::Antenna> antennas{{1, {-5, -5, 0}, 8.0},
                                    {2, {5, 5, 0}, 8.0}};
  std::optional<SimReaderClient> sim;
  std::optional<RecordingReaderClient> recorder;

  RecordBed(std::size_t n_tags, std::size_t n_movers,
            std::uint64_t seed = 33) {
    util::Rng rng(seed);
    for (std::size_t i = 0; i < n_tags; ++i) {
      sim::SimTag t;
      t.epc = util::Epc::random(rng);
      if (i < n_movers) {
        t.motion = std::make_shared<sim::CircularTrack>(
            util::Vec3{0.5, 0.5, 0}, 0.2, 0.7, static_cast<double>(i));
      } else {
        t.motion = std::make_shared<sim::StaticMotion>(
            util::Vec3{rng.uniform(-2, 2), rng.uniform(-2, 2), 0});
      }
      t.tag_phase_rad = rng.uniform(0.0, util::kTwoPi);
      world.add_tag(std::move(t));
    }
    sim.emplace(gen2::LinkTiming(gen2::LinkParams::paper_testbed()),
                gen2::ReaderConfig{}, world, channel, antennas, seed + 1);
    recorder.emplace(*sim);
  }
};

core::TagwatchConfig short_config() {
  core::TagwatchConfig cfg;
  cfg.phase2_duration = util::sec(1);
  return cfg;
}

std::vector<core::CycleReport> record_run(RecordBed& bed, std::size_t cycles) {
  core::TagwatchController ctl(short_config(), *bed.recorder);
  return ctl.run_cycles(cycles);
}

TEST(ReplayReaderClient, ReproducesRecordedRunBitForBit) {
  RecordBed bed(20, 2);
  const auto recorded = record_run(bed, 5);

  // Round-trip the journal through its CSV form, then replay.
  const ReaderJournal journal =
      ReaderJournal::from_csv(bed.recorder->journal().to_csv());
  ReplayReaderClient replay(journal);
  core::TagwatchController ctl(short_config(), replay);
  const auto replayed = ctl.run_cycles(5);

  ASSERT_EQ(replayed.size(), recorded.size());
  for (std::size_t c = 0; c < recorded.size(); ++c) {
    SCOPED_TRACE("cycle " + std::to_string(c));
    EXPECT_EQ(replayed[c].scene, recorded[c].scene);
    EXPECT_EQ(replayed[c].mobile, recorded[c].mobile);
    EXPECT_EQ(replayed[c].targets, recorded[c].targets);
    EXPECT_EQ(replayed[c].read_all_fallback, recorded[c].read_all_fallback);
    EXPECT_EQ(replayed[c].phase1_readings, recorded[c].phase1_readings);
    EXPECT_EQ(replayed[c].phase2_readings, recorded[c].phase2_readings);
    EXPECT_EQ(replayed[c].phase2_counts, recorded[c].phase2_counts);
    EXPECT_EQ(replayed[c].phase1_duration, recorded[c].phase1_duration);
    EXPECT_EQ(replayed[c].phase2_duration, recorded[c].phase2_duration);
    EXPECT_EQ(replayed[c].interphase_gap, recorded[c].interphase_gap);
    EXPECT_EQ(replayed[c].schedule.selections.size(),
              recorded[c].schedule.selections.size());
    EXPECT_EQ(replayed[c].slot_totals.slots, recorded[c].slot_totals.slots);
  }
  EXPECT_EQ(replay.remaining(), 0u);
}

TEST(ReplayReaderClient, JournalCsvRoundTripIsExact) {
  RecordBed bed(10, 1);
  record_run(bed, 3);
  const std::string csv = bed.recorder->journal().to_csv();
  const ReaderJournal parsed = ReaderJournal::from_csv(csv);
  EXPECT_EQ(parsed.size(), bed.recorder->journal().size());
  EXPECT_EQ(parsed.to_csv(), csv);
  EXPECT_EQ(parsed.capabilities.antenna_count, 2u);
  EXPECT_EQ(journal_digest(parsed), journal_digest(bed.recorder->journal()));
}

TEST(ReplayReaderClient, IdenticalSeedsProduceIdenticalJournalDigests) {
  // The whole-journal digest is the one-number determinism witness: two
  // runs from the same seed must collide, a different seed must not.
  // charge_compute_time puts *host* time on the reader clock, so the runs
  // share a FakeWallClock step to keep the charge itself deterministic.
  RecordBed a(10, 1, /*seed=*/41);
  RecordBed b(10, 1, /*seed=*/41);
  RecordBed c(10, 1, /*seed=*/42);
  for (RecordBed* bed : {&a, &b, &c}) {
    util::FakeWallClock clock(/*auto_step=*/0.001);
    core::TagwatchConfig cfg = short_config();
    cfg.wall_clock = &clock;
    core::TagwatchController ctl(cfg, *bed->recorder);
    ctl.run_cycles(3);
  }
  EXPECT_EQ(journal_digest(a.recorder->journal()),
            journal_digest(b.recorder->journal()));
  EXPECT_NE(journal_digest(a.recorder->journal()),
            journal_digest(c.recorder->journal()));
}

TEST(ReplayReaderClient, ReplayDrivenReRecordingPreservesTheDigest) {
  // Record a run, replay it into a *second* recorder: the re-recorded
  // journal must digest identically — replay is bit-exact end to end.
  // Both controllers step an identical fake clock so the journaled
  // compute-time charges match to the microsecond.
  RecordBed bed(12, 2, /*seed=*/55);
  util::FakeWallClock record_clock(/*auto_step=*/0.001);
  core::TagwatchConfig cfg = short_config();
  cfg.wall_clock = &record_clock;
  {
    core::TagwatchController ctl(cfg, *bed.recorder);
    ctl.run_cycles(3);
  }
  const std::uint64_t original = journal_digest(bed.recorder->journal());

  ReplayReaderClient replay(bed.recorder->journal());
  RecordingReaderClient rerecorder(replay);
  util::FakeWallClock replay_clock(/*auto_step=*/0.001);
  cfg.wall_clock = &replay_clock;
  core::TagwatchController ctl(cfg, rerecorder);
  ctl.run_cycles(3);

  // The capabilities line names the backend ("replay(sim-gen2)" vs
  // "sim-gen2"); the *operation stream* is what must be bit-identical.
  ReaderJournal rerecorded = rerecorder.journal();
  rerecorded.capabilities = bed.recorder->journal().capabilities;
  EXPECT_EQ(journal_digest(rerecorded), original);
}

TEST(ReplayReaderClient, StrictModeRejectsDivergingController) {
  RecordBed bed(12, 1);
  record_run(bed, 2);

  // A controller with a different Phase I Q issues different ROSpecs.
  ReplayReaderClient replay(bed.recorder->journal());
  core::TagwatchConfig diverged = short_config();
  diverged.phase1_initial_q = 7;
  core::TagwatchController ctl(diverged, replay);
  EXPECT_THROW(ctl.run_cycle(), std::runtime_error);
}

TEST(ReplayReaderClient, RunningPastTheRecordingThrows) {
  RecordBed bed(8, 0);
  record_run(bed, 2);
  ReplayReaderClient replay(bed.recorder->journal());
  core::TagwatchController ctl(short_config(), replay);
  ctl.run_cycles(2);
  EXPECT_THROW(ctl.run_cycle(), std::runtime_error);
}

TEST(ReplayReaderClient, CapabilitiesComeFromTheJournal) {
  RecordBed bed(5, 0);
  record_run(bed, 1);
  ReplayReaderClient replay(bed.recorder->journal());
  const ReaderCapabilities caps = replay.capabilities();
  EXPECT_EQ(caps.antenna_count, 2u);
  EXPECT_FALSE(caps.live);
  EXPECT_EQ(caps.model, "replay(sim-gen2)");
}

TEST(RecordingReaderClient, StreamsReadingsToListenerLive) {
  RecordBed bed(6, 0);
  std::size_t streamed = 0;
  bed.recorder->set_read_listener(
      [&streamed](const rf::TagReading&) { ++streamed; });
  ROSpec spec;
  AISpec ai;
  ai.stop = AiSpecStopTrigger::after_rounds(2);
  spec.ai_specs.push_back(ai);
  const ExecutionReport report = bed.recorder->execute(spec).report;
  EXPECT_EQ(streamed, report.readings.size());
  EXPECT_GT(streamed, 0u);
  ASSERT_EQ(bed.recorder->journal().size(), 1u);
  EXPECT_EQ(bed.recorder->journal().entries()[0].digest, rospec_digest(spec));
}

TEST(RecordingReaderClient, JournalsAdvanceCharges) {
  RecordBed bed(4, 0);
  const util::SimTime before = bed.recorder->now();
  bed.recorder->advance(util::msec(25));
  EXPECT_EQ(bed.recorder->now() - before, util::msec(25));
  ASSERT_EQ(bed.recorder->journal().size(), 1u);
  const JournalEntry& entry = bed.recorder->journal().entries()[0];
  EXPECT_EQ(entry.kind, JournalEntry::Kind::kAdvance);
  EXPECT_EQ(entry.advance, util::msec(25));
}

TEST(ReaderJournal, RejectsMalformedCsv) {
  EXPECT_THROW(ReaderJournal::from_csv("not a journal"),
               std::invalid_argument);
  EXPECT_THROW(ReaderJournal::from_csv("# tagwatch-reader-journal v1\nX,1\n"),
               std::invalid_argument);
  EXPECT_THROW(
      ReaderJournal::from_csv("# tagwatch-reader-journal v1\nE,zz\n"),
      std::invalid_argument);
  // Truncated mid-entry: the execute promises a reading that never comes.
  EXPECT_THROW(
      ReaderJournal::from_csv(
          "# tagwatch-reader-journal v1\nE,0123456789abcdef,0,10,1,1,0,0,1,"
          "0,10,1\n"),
      std::invalid_argument);
  // Hostile reading counts: negative, and far more than the input holds.
  // Both must be typed parse errors, not allocation failures.
  EXPECT_THROW(
      ReaderJournal::from_csv(
          "# tagwatch-reader-journal v1\nE,0123456789abcdef,0,10,1,1,0,0,1,"
          "0,10,-1\n"),
      std::invalid_argument);
  EXPECT_THROW(
      ReaderJournal::from_csv(
          "# tagwatch-reader-journal v1\nE,0123456789abcdef,0,10,1,1,0,0,1,"
          "0,10,1000000000000\n"),
      std::invalid_argument);
}

TEST(ReaderJournal, SaveLoadRoundTrip) {
  RecordBed bed(6, 1);
  record_run(bed, 2);
  const std::string path = ::testing::TempDir() + "tagwatch_journal.csv";
  bed.recorder->journal().save(path);
  const ReaderJournal loaded = ReaderJournal::load(path);
  EXPECT_EQ(loaded.to_csv(), bed.recorder->journal().to_csv());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tagwatch::llrp
