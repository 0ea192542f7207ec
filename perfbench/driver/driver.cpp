// perfbench driver: full Tagwatch cycles, closed loop, timed from outside.
//
//   perfbench_driver --inputs FILE --seconds S --trace 0|1 --out FILE
//   perfbench_driver --self-test
//
// One repetition builds the scene from the generated inputs, constructs
// the controller (or fleet), runs the warm-up cycles and then the
// workload's fixed number of timed cycles, each starting when the previous
// one returns.  Repetitions repeat until --seconds have passed and the
// workload's minimum number of them (at least two) has run; every
// repetition of a seed must fold the same simulated record into the same
// digest.  With --trace 1 the repetitions come in untraced/traced pairs;
// traced ones keep one span per cycle and per execute in memory, replay
// each selective cycle's plan, and write the spans next to --out at exit.
//
// The driver writes raw per-cycle records as JSON to --out; run.py turns
// them into metrics.  Exit status: 0 ok, 1 output check failed, 2 usage
// or input error.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/bitmask.hpp"
#include "core/fleet.hpp"
#include "core/setcover.hpp"
#include "core/tagwatch.hpp"
#include "gen2/flag_field.hpp"
#include "inputs.hpp"
#include "llrp/fleet_journal.hpp"
#include "llrp/sim_reader_client.hpp"
#include "timing_client.hpp"
#include "util/simd.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace tagwatch;

// ------------------------------------------------------------- records

/// FNV-1a over the simulated record of a repetition.
class Digest {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s) {
    u64(s.size());
    for (char c : s) byte(static_cast<unsigned char>(c));
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  void byte(unsigned char b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// One reader's slice of a cycle (one per cycle for a single reader).
struct ReaderCycleRecord {
  double gap_ms = -1.0;       ///< Host inter-phase gap (-1: not measured).
  double gap_sink_ms = 0.0;   ///< Sink dispatch inside the gap (traced).
  double planner_ms = -1.0;   ///< Traced replay (-1: cycle read all).
};

struct SinkDelta {
  double seconds = 0.0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t exceptions = 0;
};

struct CycleRecord {
  std::size_t index = 0;
  bool timed = false;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double sim_s = 0.0;
  double exec_ms = 0.0;
  std::size_t executes = 0;
  std::size_t errors = 0;
  std::size_t readings = 0;
  std::size_t reader_cycles = 0;
  std::size_t selective = 0;
  std::size_t mobile = 0;
  std::size_t targets = 0;
  std::size_t scene = 0;
  double irr_sel_reads = 0.0, irr_sel_tag_s = 0.0;
  double irr_all_reads = 0.0, irr_all_tag_s = 0.0;
  std::size_t live_tags = 0, arrivals = 0, departures = 0;
  std::vector<ReaderCycleRecord> readers;
  // Traced only.
  std::array<double, kSpecClasses> class_s{};
  std::array<std::size_t, kSpecClasses> class_calls{};
  std::size_t slots = 0, success = 0, collisions = 0;
  std::size_t candidates = 0, selections = 0;
  std::map<std::string, SinkDelta> sinks;
  // Fleet only.
  std::size_t fleet_readings = 0, fleet_duplicates = 0, handoffs = 0;
};

struct RepResult {
  bool traced = false;
  double setup_s = 0.0;
  std::size_t warmup_cycles = 0;
  std::uint64_t digest = 0;
  std::size_t journal_records = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<CycleRecord> cycles;
  std::vector<std::string> failures;
};

struct CycleSpan {
  std::size_t rep = 0;
  std::size_t cycle = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Per-sink counters of every pipeline in `pipes`, summed by sink name.
std::map<std::string, SinkDelta> snapshot(
    const std::vector<std::pair<std::string, const core::ReadingPipeline*>>&
        pipes) {
  std::map<std::string, SinkDelta> out;
  for (const auto& [prefix, p] : pipes) {
    for (const core::SinkStats& s : p->stats()) {
      SinkDelta& d = out[prefix + s.name];
      d.seconds += s.dispatch_seconds;
      d.delivered += s.delivered;
      d.dropped += s.dropped;
      d.exceptions += s.exceptions;
    }
  }
  return out;
}

std::map<std::string, SinkDelta> minus(std::map<std::string, SinkDelta> a,
                                       const std::map<std::string, SinkDelta>&
                                           b) {
  for (auto& [name, d] : a) {
    const auto it = b.find(name);
    if (it == b.end()) continue;
    d.seconds -= it->second.seconds;
    d.delivered -= it->second.delivered;
    d.dropped -= it->second.dropped;
    d.exceptions -= it->second.exceptions;
  }
  return a;
}

bool same_schedule(const core::Schedule& a, const core::Schedule& b) {
  if (a.selections.size() != b.selections.size()) return false;
  for (std::size_t i = 0; i < a.selections.size(); ++i) {
    const core::ScheduledBitmask& x = a.selections[i];
    const core::ScheduledBitmask& y = b.selections[i];
    if (!(x.bitmask == y.bitmask) || x.covered_total != y.covered_total ||
        x.covered_targets != y.covered_targets) {
      return false;
    }
  }
  return a.estimated_cost_s == b.estimated_cost_s &&
         a.used_naive_fallback == b.used_naive_fallback;
}

// ------------------------------------------------------------ harness

/// State shared by both workload kinds within one repetition.
class Repetition {
 public:
  Repetition(std::size_t rep, bool traced, std::vector<ExecuteSpan>* spans,
             std::vector<CycleSpan>* roots)
      : rep_(rep), traced_(traced), spans_(traced ? spans : nullptr),
        roots_(roots) {
    result_.traced = traced;
  }

  std::vector<ExecuteSpan>* spans() const noexcept { return spans_; }
  bool traced() const noexcept { return traced_; }
  RepResult& result() noexcept { return result_; }
  Digest& digest() noexcept { return digest_; }

  void fail(std::string what) { result_.failures.push_back(std::move(what)); }

  /// Folds one reader's cycle into the record and the digest; traced
  /// repetitions also replay its plan through the configured planner.
  void account(const core::CycleReport& r, const TimingReaderClient& client,
               const core::TagwatchConfig& config,
               const std::unordered_set<util::Epc>& movers, CycleRecord& rec) {
    const ReaderCycleTotals& t = client.totals();
    ++rec.reader_cycles;
    if (!r.read_all_fallback) ++rec.selective;
    rec.exec_ms += static_cast<double>(t.exec_ns) / 1e6;
    rec.executes += t.executes;
    rec.errors += t.errors;
    rec.readings += t.readings;
    rec.mobile += r.mobile.size();
    rec.targets += r.targets.size();
    rec.scene += r.scene.size();
    reported_readings_ += r.phase1_readings + r.phase2_readings;

    // Mover IRR: Phase-II reads of movers in the Phase-I scene, per mover,
    // per Phase-II second.
    std::size_t scene_movers = 0;
    double mover_reads = 0.0;
    for (const util::Epc& epc : r.scene) {
      if (!movers.contains(epc)) continue;
      ++scene_movers;
      const auto it = r.phase2_counts.find(epc);
      if (it != r.phase2_counts.end()) {
        mover_reads += static_cast<double>(it->second);
      }
    }
    const double tag_s = static_cast<double>(scene_movers) *
                         util::to_seconds(r.phase2_duration);
    (r.read_all_fallback ? rec.irr_all_reads : rec.irr_sel_reads) +=
        mover_reads;
    (r.read_all_fallback ? rec.irr_all_tag_s : rec.irr_sel_tag_s) += tag_s;

    Digest& d = digest_;
    d.u64(r.cycle_index);
    d.u64(r.scene.size());
    d.u64(r.targets.size());
    d.u64(r.mobile.size());
    d.u64(r.read_all_fallback ? 1 : 0);
    for (const core::ScheduledBitmask& s : r.schedule.selections) {
      d.u64(s.bitmask.pointer);
      d.str(s.bitmask.mask.to_binary_string());
      d.u64(s.covered_total);
      d.u64(s.covered_targets);
    }
    d.f64(r.schedule.estimated_cost_s);
    std::vector<std::pair<util::Epc, std::size_t>> counts(
        r.phase2_counts.begin(), r.phase2_counts.end());
    std::sort(counts.begin(), counts.end());
    for (const auto& [epc, n] : counts) {
      d.str(epc.to_hex());
      d.u64(n);
    }
    const gen2::RoundStats& st = r.slot_totals;
    d.u64(st.slots);
    d.u64(st.empty_slots);
    d.u64(st.collision_slots);
    d.u64(st.success_slots);
    d.u64(st.lost_slots);
    d.u64(static_cast<std::uint64_t>(st.duration.count()));
    d.u64(r.phase1_readings);
    d.u64(r.phase2_readings);
    d.u64(static_cast<std::uint64_t>(r.phase1_duration.count()));
    d.u64(static_cast<std::uint64_t>(r.phase2_duration.count()));

    ReaderCycleRecord rr;
    rr.gap_ms = t.gap_ms();
    if (traced_) {
      rr.gap_sink_ms = t.gap_sink_s * 1e3;
      for (std::size_t c = 0; c < kSpecClasses; ++c) {
        rec.class_s[c] += static_cast<double>(t.class_ns[c]) / 1e9;
        rec.class_calls[c] += t.class_calls[c];
      }
      rec.slots += t.slots;
      rec.success += t.success;
      rec.collisions += t.collisions;
      if (!r.read_all_fallback) replay_plan(r, config, rr, rec);
    }
    rec.readers.push_back(rr);
  }

  /// Times the configured planner (BitmaskIndex + lazy greedy cover, the
  /// TagwatchConfig{} default) on the cycle's (scene, targets) and checks
  /// it reproduces the controller's schedule.
  void replay_plan(const core::CycleReport& r,
                   const core::TagwatchConfig& config, ReaderCycleRecord& rr,
                   CycleRecord& rec) {
    const std::int64_t start = host_ns();
    const core::BitmaskIndex index(r.scene);
    const util::IndicatorBitmap targets = index.bitmap_of(r.targets);
    const core::GreedyCoverScheduler scheduler(config.cost_model,
                                               config.greedy_evaluation);
    const core::Schedule plan = scheduler.plan(index, targets, nullptr);
    rr.planner_ms = static_cast<double>(host_ns() - start) / 1e6;
    rec.candidates += index.candidates_for(targets).size();
    rec.selections += plan.selections.size();
    if (!same_schedule(plan, r.schedule)) {
      fail("planner replay differs from CycleReport::schedule in cycle " +
           std::to_string(r.cycle_index));
    }
  }

  /// Runs cycles until the timed window is complete.  `step` runs one
  /// cycle and fills the record; the first timed cycle is the first one
  /// (timed_from first) or the first selective one.
  template <class Step>
  void run_cycles(const Inputs& in, std::int64_t rep_start, Step&& step) {
    std::optional<std::size_t> first_timed;
    if (!in.timed_from_selective) first_timed = 0;
    for (std::size_t c = 0;; ++c) {
      if (first_timed && c >= *first_timed + in.timed_cycles) break;
      if (!first_timed && c >= in.max_warmup_cycles) {
        throw std::runtime_error("no selective cycle within " +
                                 std::to_string(in.max_warmup_cycles) +
                                 " warm-up cycles");
      }
      CycleRecord rec;
      rec.index = c;
      std::map<std::string, SinkDelta> before;
      if (traced_) before = snapshot(pipes_);
      step(c, rec);
      if (traced_) {
        rec.sinks = minus(snapshot(pipes_), before);
        roots_->push_back({rep_, c, rec.start_ns, rec.end_ns});
      }
      if (!first_timed && rec.selective > 0) first_timed = c;
      rec.timed = first_timed.has_value();
      if (rec.timed && c == *first_timed) {
        result_.setup_s = static_cast<double>(rec.start_ns - rep_start) / 1e9;
        result_.warmup_cycles = c;
      }
      result_.cycles.push_back(std::move(rec));
    }
  }

  /// Pipelines whose sinks are snapshotted per cycle (traced) and checked
  /// for exact accounting at the end of the repetition.
  void add_pipeline(std::string prefix, const core::ReadingPipeline* p) {
    pipes_.emplace_back(std::move(prefix), p);
  }

  /// Exact-accounting checks and the attempted/failed tally.
  /// `expected[i]` is the readings dispatched into pipeline i.
  void finish(const std::vector<std::uint64_t>& expected,
              std::uint64_t decorator_readings) {
    std::uint64_t executes = 0, errors = 0;
    for (const CycleRecord& c : result_.cycles) {
      executes += c.executes;
      errors += c.errors;
    }
    result_.attempted = executes;
    result_.failed = errors;
    for (std::size_t i = 0; i < pipes_.size(); ++i) {
      const core::ReadingPipeline& p = *pipes_[i].second;
      if (p.dispatched_total() != expected[i]) {
        fail(pipes_[i].first + "pipeline dispatched " +
             std::to_string(p.dispatched_total()) + " readings, expected " +
             std::to_string(expected[i]));
      }
      for (const core::SinkStats& s : p.stats()) {
        result_.attempted += s.delivered + s.dropped;
        result_.failed += s.dropped;  // dropped already counts exceptions
        if (s.source_id != 0) continue;  // fleet rows: summed below
        std::uint64_t seen = 0;
        for (const core::SinkStats& t : p.stats()) {
          if (t.name == s.name) seen += t.delivered + t.dropped;
        }
        if (seen != expected[i]) {
          fail("sink " + pipes_[i].first + s.name + ": delivered + dropped " +
               std::to_string(seen) + " != dispatched " +
               std::to_string(expected[i]));
        }
      }
    }
    if (decorator_readings != reported_readings_) {
      fail("executes returned " + std::to_string(decorator_readings) +
           " readings, cycle reports count " +
           std::to_string(reported_readings_));
    }
    result_.digest = digest_.value();
  }

 private:
  std::size_t rep_;
  bool traced_;
  std::vector<ExecuteSpan>* spans_;
  std::vector<CycleSpan>* roots_;
  RepResult result_;
  Digest digest_;
  std::uint64_t reported_readings_ = 0;
  std::vector<std::pair<std::string, const core::ReadingPipeline*>> pipes_;
};

core::TagwatchConfig controller_config() {
  core::TagwatchConfig cfg;
  // The one deviation from the defaults: host compute time stays off the
  // simulated clock, so a faster planner cannot change any reading.
  cfg.charge_compute_time = false;
  return cfg;
}

sim::SimTag make_tag(const TagSpec& t) {
  sim::SimTag tag;
  tag.epc = t.epc;
  if (t.mover) {
    tag.motion = std::make_shared<sim::CircularTrack>(t.pos, t.radius_m,
                                                      t.speed_mps,
                                                      t.phase0_rad);
  } else {
    tag.motion = std::make_shared<sim::StaticMotion>(t.pos);
  }
  tag.tag_phase_rad = t.tag_phase_rad;
  return tag;
}

RepResult run_single(const std::string& path, Repetition& rep) {
  const std::int64_t rep_start = host_ns();
  const Inputs in = load_inputs(path);
  sim::World world;
  std::unordered_set<util::Epc> movers;
  for (const TagSpec& t : in.tags) {
    if (t.mover) movers.insert(t.epc);
    world.add_tag(make_tag(t));
  }
  rf::RfChannel channel(rf::ChannelPlan::single(920.625e6));
  std::vector<rf::Antenna> antennas;
  for (const AntennaSpec& a : in.antennas) {
    antennas.push_back({a.id, a.pos, a.gain_dbi});
  }
  llrp::SimReaderClient sim(
      gen2::LinkTiming(gen2::LinkParams::paper_testbed()),
      gen2::ReaderConfig{}, world, channel, antennas, in.reader_seed);
  TimingReaderClient client(sim, 0, rep.spans());
  const core::TagwatchConfig config = controller_config();
  core::TagwatchController controller(config, client);
  controller.set_read_listener([](const rf::TagReading&) {});
  if (rep.traced()) client.watch(&controller.pipeline());
  rep.add_pipeline("", &controller.pipeline());

  std::uint64_t dispatched = 0;
  std::uint64_t decorator_readings = 0;
  rep.run_cycles(in, rep_start, [&](std::size_t c, CycleRecord& rec) {
    rec.live_tags = world.tags().size();
    client.begin_cycle(c);
    const util::SimTime sim_start = world.now();
    rec.start_ns = host_ns();
    const core::CycleReport report = controller.run_cycle();
    rec.end_ns = host_ns();
    rec.sim_s = util::to_seconds(world.now() - sim_start);
    dispatched += report.phase1_readings + report.phase2_readings;
    decorator_readings += client.totals().readings;
    rep.account(report, client, config, movers, rec);
  });
  rep.finish({dispatched}, decorator_readings);
  return std::move(rep.result());
}

RepResult run_fleet(const std::string& path, Repetition& rep) {
  const std::int64_t rep_start = host_ns();
  const Inputs in = load_inputs(path);
  sim::World world;
  std::unordered_set<util::Epc> movers;
  for (const TagSpec& t : in.tags) {
    if (t.mover) movers.insert(t.epc);
    world.add_tag(make_tag(t));
  }
  for (const ParcelSpec& p : in.parcels) movers.insert(p.epc);
  rf::RfChannel channel(rf::ChannelPlan::single(920.625e6));
  auto field = std::make_shared<gen2::TagFlagField>(
      gen2::SessionTiming::spec_default());
  std::vector<std::unique_ptr<llrp::SimReaderClient>> sims;
  std::vector<std::unique_ptr<TimingReaderClient>> clients;
  std::vector<core::FleetReaderSpec> specs;
  for (std::size_t r = 0; r < in.readers.size(); ++r) {
    const ReaderSpec& rs = in.readers[r];
    const sim::Zone zone{rs.zone, rs.center, rs.radius_m};
    gen2::ReaderConfig rc;
    rc.coverage = zone;
    sims.push_back(std::make_unique<llrp::SimReaderClient>(
        gen2::LinkTiming(gen2::LinkParams::paper_testbed()), rc, world,
        channel, std::vector<rf::Antenna>{{1, rs.antenna, rs.gain_dbi}},
        rs.seed, field));
    clients.push_back(
        std::make_unique<TimingReaderClient>(*sims.back(), r, rep.spans()));
    specs.push_back({clients.back().get(), zone});
  }
  core::FleetConfig fcfg;
  fcfg.controller = controller_config();
  core::FleetController fleet(fcfg, specs, &world);
  fleet.pipeline().add_sink(std::make_shared<core::CallbackSink>(
      "app", [](const rf::TagReading&) {}));
  for (std::size_t r = 0; r < clients.size(); ++r) {
    if (rep.traced()) clients[r]->watch(&fleet.controller(r).pipeline());
    rep.add_pipeline("", &fleet.controller(r).pipeline());
  }
  rep.add_pipeline("fleet.", &fleet.pipeline());

  // Parcels are added `lookahead` ahead of arrival (SimTag::arrives keeps
  // them silent until then) and removed once departed, so the world holds
  // the live population plus at most one cycle of upcoming arrivals.
  const util::SimDuration lookahead = util::sec(30);
  std::size_t next_parcel = 0;
  std::vector<std::pair<util::SimTime, util::Epc>> live_parcels;
  std::vector<std::uint64_t> dispatched(clients.size() + 1, 0);
  std::uint64_t decorator_readings = 0;

  rep.run_cycles(in, rep_start, [&](std::size_t c, CycleRecord& rec) {
    const util::SimTime now = world.now();
    while (next_parcel < in.parcels.size() &&
           util::from_seconds(in.parcels[next_parcel].start_s) <
               now + lookahead) {
      const ParcelSpec& p = in.parcels[next_parcel++];
      const util::SimTime start = util::from_seconds(p.start_s);
      auto motion = std::make_shared<sim::LinearConveyor>(
          p.origin, p.velocity, start, p.travel_m);
      sim::SimTag tag;
      tag.epc = p.epc;
      tag.arrives = start;
      tag.departs = motion->end_time();
      tag.motion = std::move(motion);
      tag.tag_phase_rad = p.tag_phase_rad;
      live_parcels.emplace_back(*tag.departs, p.epc);
      world.add_tag(std::move(tag));
      ++rec.arrivals;
    }
    if (next_parcel == in.parcels.size()) {
      throw std::runtime_error("conveyor schedule exhausted at cycle " +
                               std::to_string(c));
    }
    rec.live_tags = world.tags().size();
    for (auto& client : clients) client->begin_cycle(c);

    const util::SimTime sim_start = world.now();
    rec.start_ns = host_ns();
    const core::FleetCycleReport fr = fleet.run_cycle();
    rec.end_ns = host_ns();
    rec.sim_s = util::to_seconds(world.now() - sim_start);

    std::erase_if(live_parcels, [&](const auto& lp) {
      if (lp.first > world.now()) return false;
      world.remove_tag(lp.second);
      ++rec.departures;
      return true;
    });

    Digest& d = rep.digest();
    for (const core::FleetReaderCycle& row : fr.readers) {
      d.u64(row.skipped ? 1 : 0);
      if (row.skipped) continue;
      rep.account(row.report, *clients[row.reader], fcfg.controller, movers,
                  rec);
      dispatched[row.reader] +=
          row.report.phase1_readings + row.report.phase2_readings;
      decorator_readings += clients[row.reader]->totals().readings;
      d.u64(row.delivered);
      d.u64(row.duplicates);
    }
    dispatched.back() += fr.delivered_total;
    for (const llrp::FleetHandoffRecord& h : fr.handoffs) {
      d.str(h.epc.to_hex());
      d.u64(h.from_reader);
      d.u64(h.to_reader);
    }
    rec.fleet_readings = fr.readings_total;
    rec.fleet_duplicates = fr.duplicates_total;
    rec.handoffs = fr.handoffs.size();
  });
  rep.digest().u64(llrp::fleet_journal_digest(fleet.journal()));
  rep.result().journal_records = fleet.journal().size();
  rep.finish(dispatched, decorator_readings);
  return std::move(rep.result());
}

// --------------------------------------------------------------- output

void write_json(const std::string& path, const Inputs& in,
                const std::vector<RepResult>& reps,
                const std::vector<std::string>& failures, double peak_rss_mb) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "{\"workload\": \"%s\", \"fleet\": %s,\n",
               in.workload.c_str(), in.fleet ? "true" : "false");
  std::fprintf(f,
               " \"provenance\": {\"build_type\": \"%s\", \"compiler\": "
               "\"%s\", \"isa_detected\": \"%s\", \"isa_active\": \"%s\"},\n",
               PERFBENCH_BUILD_TYPE, __VERSION__,
               util::simd::isa_name(util::simd::detected_isa()),
               util::simd::isa_name(util::simd::active_isa()));
  std::fprintf(f, " \"peak_rss_mb\": %.17g,\n \"failures\": [", peak_rss_mb);
  for (std::size_t i = 0; i < failures.size(); ++i) {
    std::string s = failures[i];
    std::replace(s.begin(), s.end(), '"', '\'');
    std::fprintf(f, "%s\"%s\"", i ? ", " : "", s.c_str());
  }
  std::fprintf(f, "],\n \"reps\": [\n");
  for (std::size_t r = 0; r < reps.size(); ++r) {
    const RepResult& rep = reps[r];
    std::fprintf(f,
                 "  {\"traced\": %s, \"setup_s\": %.17g, \"warmup_cycles\": "
                 "%zu, \"digest\": \"%016llx\", \"journal_records\": %zu, "
                 "\"attempted\": %llu, \"failed\": %llu, \"cycles\": [\n",
                 rep.traced ? "true" : "false", rep.setup_s,
                 rep.warmup_cycles,
                 static_cast<unsigned long long>(rep.digest),
                 rep.journal_records,
                 static_cast<unsigned long long>(rep.attempted),
                 static_cast<unsigned long long>(rep.failed));
    for (std::size_t i = 0; i < rep.cycles.size(); ++i) {
      const CycleRecord& c = rep.cycles[i];
      std::fprintf(
          f,
          "   {\"index\": %zu, \"timed\": %s, \"host_ms\": %.17g, "
          "\"exec_ms\": %.17g, \"executes\": %zu, \"errors\": %zu, "
          "\"readings\": %zu, \"sim_s\": %.17g, \"reader_cycles\": %zu, "
          "\"selective\": %zu, \"mobile\": %zu, \"targets\": %zu, "
          "\"scene\": %zu, \"irr_sel_reads\": %.17g, \"irr_sel_tag_s\": "
          "%.17g, \"irr_all_reads\": %.17g, \"irr_all_tag_s\": %.17g, "
          "\"live_tags\": %zu, \"arrivals\": %zu, \"departures\": %zu, "
          "\"fleet_readings\": %zu, \"fleet_duplicates\": %zu, "
          "\"handoffs\": %zu, \"readers\": [",
          c.index, c.timed ? "true" : "false",
          static_cast<double>(c.end_ns - c.start_ns) / 1e6, c.exec_ms,
          c.executes, c.errors, c.readings, c.sim_s, c.reader_cycles,
          c.selective, c.mobile, c.targets, c.scene, c.irr_sel_reads,
          c.irr_sel_tag_s, c.irr_all_reads, c.irr_all_tag_s, c.live_tags,
          c.arrivals, c.departures, c.fleet_readings, c.fleet_duplicates,
          c.handoffs);
      for (std::size_t k = 0; k < c.readers.size(); ++k) {
        const ReaderCycleRecord& rr = c.readers[k];
        std::fprintf(f, "%s[%.17g, %.17g, %.17g]", k ? ", " : "", rr.gap_ms,
                     rr.gap_sink_ms, rr.planner_ms);
      }
      std::fprintf(f, "]");
      if (rep.traced) {
        std::fprintf(f, ", \"class_s\": [%.17g, %.17g, %.17g], "
                        "\"class_calls\": [%zu, %zu, %zu], \"slots\": %zu, "
                        "\"success\": %zu, \"collisions\": %zu, "
                        "\"candidates\": %zu, \"selections\": %zu, "
                        "\"sinks\": {",
                     c.class_s[0], c.class_s[1], c.class_s[2],
                     c.class_calls[0], c.class_calls[1], c.class_calls[2],
                     c.slots, c.success, c.collisions, c.candidates,
                     c.selections);
        bool first = true;
        for (const auto& [name, d] : c.sinks) {
          std::fprintf(f, "%s\"%s\": [%.17g, %llu, %llu, %llu]",
                       first ? "" : ", ", name.c_str(), d.seconds,
                       static_cast<unsigned long long>(d.delivered),
                       static_cast<unsigned long long>(d.dropped),
                       static_cast<unsigned long long>(d.exceptions));
          first = false;
        }
        std::fprintf(f, "}");
      }
      std::fprintf(f, "}%s\n", i + 1 < rep.cycles.size() ? "," : "");
    }
    std::fprintf(f, "  ]}%s\n", r + 1 < reps.size() ? "," : "");
  }
  std::fprintf(f, " ]}\n");
  std::fclose(f);
}

void write_spans(const std::string& path, const std::vector<CycleSpan>& roots,
                 const std::vector<std::vector<ExecuteSpan>>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::size_t root = 0;
  for (std::size_t rep = 0; rep < spans.size(); ++rep) {
    for (; root < roots.size() && roots[root].rep == rep; ++root) {
      const CycleSpan& c = roots[root];
      std::fprintf(f,
                   "{\"span\": \"cycle\", \"id\": \"%zu.%zu\", \"start_ns\": "
                   "%lld, \"end_ns\": %lld}\n",
                   c.rep, c.cycle, static_cast<long long>(c.start_ns),
                   static_cast<long long>(c.end_ns));
    }
    for (const ExecuteSpan& s : spans[rep]) {
      std::fprintf(f,
                   "{\"span\": \"execute\", \"parent\": \"%zu.%zu\", "
                   "\"reader\": %zu, \"class\": \"%s\", \"start_ns\": %lld, "
                   "\"end_ns\": %lld, \"slots\": %zu, \"success\": %zu, "
                   "\"collisions\": %zu, \"readings\": %zu, \"error\": %s, "
                   "\"sink_s_start\": %.17g, \"sink_s_end\": %.17g}\n",
                   rep, s.cycle, s.reader, to_string(s.cls),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.slots, s.success,
                   s.collisions, s.readings, s.error ? "true" : "false",
                   s.sink_s_start, s.sink_s_end);
    }
  }
  std::fclose(f);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ------------------------------------------------------------ self-test

int self_test() {
  int failures = 0;
  auto expect = [&failures](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "self-test FAILED: %s\n", what);
      ++failures;
    }
  };

  llrp::AISpec rounds;
  rounds.stop = llrp::AiSpecStopTrigger::after_rounds(4);
  llrp::AISpec duration;
  duration.stop = llrp::AiSpecStopTrigger::after_duration(util::sec(5));
  llrp::AISpec filtered = rounds;
  filtered.filters.push_back(
      {gen2::MemBank::kEpc, 32, util::BitString::from_binary("1011"), false});
  llrp::ROSpec spec;
  expect(classify(spec) == SpecClass::kPhase1, "empty ROSpec is phase1");
  spec.ai_specs = {rounds};
  expect(classify(spec) == SpecClass::kPhase1, "rounds stop is phase1");
  spec.ai_specs = {duration};
  expect(classify(spec) == SpecClass::kPhase2All, "duration stop is all");
  spec.ai_specs = {filtered};
  expect(classify(spec) == SpecClass::kPhase2Select, "filter is select");
  filtered.stop = duration.stop;
  spec.ai_specs = {rounds, filtered};
  expect(classify(spec) == SpecClass::kPhase2Select,
         "any filtered AISpec makes the ROSpec select");

  // The controller's own ROSpecs, seen through the decorator: one Phase-I
  // execute per cycle, then one read-all execute or only selective ones.
  sim::World world;
  util::Rng rng(7);
  std::unordered_set<util::Epc> movers;
  for (std::size_t i = 0; i < 120; ++i) {
    TagSpec t;
    t.epc = util::Epc::random(rng);
    t.mover = i < 6;
    t.pos = t.mover ? util::Vec3{0.5, 0.5, 0.0}
                    : util::Vec3{rng.uniform(-3, 3), rng.uniform(-3, 3), 0.0};
    t.radius_m = 0.2;
    t.speed_mps = 0.7;
    t.phase0_rad = rng.uniform(0.0, 6.28);
    t.tag_phase_rad = rng.uniform(0.0, 6.28);
    if (t.mover) movers.insert(t.epc);
    world.add_tag(make_tag(t));
  }
  rf::RfChannel channel(rf::ChannelPlan::single(920.625e6));
  llrp::SimReaderClient sim(
      gen2::LinkTiming(gen2::LinkParams::paper_testbed()),
      gen2::ReaderConfig{}, world, channel,
      {{1, {-5, -5, 0}, 8.0}, {2, {5, -5, 0}, 8.0}, {3, {-5, 5, 0}, 8.0},
       {4, {5, 5, 0}, 8.0}},
      8);
  std::vector<ExecuteSpan> spans;
  TimingReaderClient client(sim, 0, &spans);
  core::TagwatchController controller(controller_config(), client);
  client.watch(&controller.pipeline());
  std::size_t selective = 0;
  for (std::size_t c = 0; c < 10; ++c) {
    client.begin_cycle(c);
    const core::CycleReport r = controller.run_cycle();
    const ReaderCycleTotals& t = client.totals();
    expect(t.class_calls[0] == 1, "exactly one phase1 execute per cycle");
    if (r.read_all_fallback) {
      expect(t.class_calls[2] == 1 && t.class_calls[1] == 0,
             "read-all cycle issues one phase2_all execute");
    } else {
      ++selective;
      expect(t.class_calls[1] >= 1 && t.class_calls[2] == 0,
             "selective cycle issues only phase2_select executes");
    }
    expect(t.readings == r.phase1_readings + r.phase2_readings,
           "decorator sees every reading the cycle reports");
    expect(t.gap_ms() >= 0.0, "inter-phase gap measured");
  }
  expect(selective > 0, "a selective cycle within 10 cycles at 120 tags");
  expect(!spans.empty() && spans.front().cls == SpecClass::kPhase1,
         "spans recorded in execute order");
  std::printf("self-test: %s (%zu selective cycles)\n",
              failures == 0 ? "ok" : "FAILED", selective);
  return failures == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --inputs FILE --seconds S "
               "--trace 0|1 --out FILE\n       perfbench_driver --self-test\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string inputs_path, out_path;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return self_test();
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (arg == "--inputs") {
      inputs_path = value;
    } else if (arg == "--out") {
      out_path = value;
    } else if (arg == "--seconds") {
      seconds = std::stod(value);
    } else if (arg == "--trace") {
      trace = std::stoi(value);
    } else {
      return usage();
    }
  }
  if (inputs_path.empty() || out_path.empty() || seconds < 0 ||
      (trace != 0 && trace != 1)) {
    return usage();
  }

  try {
    const Inputs in = load_inputs(inputs_path);
    std::vector<RepResult> reps;
    std::vector<std::vector<ExecuteSpan>> spans;
    std::vector<CycleSpan> roots;
    std::vector<std::string> failures;
    const std::int64_t start = host_ns();
    // Traced runs make whole untraced/traced pairs, at least three, and
    // swap which of the two runs first from one pair to the next, so the
    // tracing overhead is measured against the same invocation without a
    // bias from run order.
    const std::size_t min_reps = trace == 0 ? in.repetitions : 6;
    for (std::size_t r = 0;; ++r) {
      const double elapsed = static_cast<double>(host_ns() - start) / 1e9;
      if (r >= min_reps && elapsed >= seconds && (trace == 0 || r % 2 == 0)) {
        break;
      }
      const bool traced = trace == 1 && (r % 2 == 1) != ((r / 2) % 2 == 1);
      spans.emplace_back();
      Repetition rep(r, traced, &spans.back(), &roots);
      reps.push_back(in.fleet ? run_fleet(inputs_path, rep)
                              : run_single(inputs_path, rep));
      for (const std::string& f : reps.back().failures) {
        failures.push_back("rep " + std::to_string(r) + ": " + f);
      }
      if (reps.back().digest != reps.front().digest) {
        failures.push_back("rep " + std::to_string(r) +
                           ": digest differs from rep 0");
      }
    }
    write_json(out_path, in, reps, failures, peak_rss_mb());
    if (trace == 1) write_spans(out_path + ".spans.jsonl", roots, spans);
    for (const std::string& f : failures) {
      std::fprintf(stderr, "perfbench_driver: %s\n", f.c_str());
    }
    return failures.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
}
