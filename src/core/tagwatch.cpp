#include "core/tagwatch.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "core/metrics.hpp"

namespace tagwatch::core {

namespace {

/// Initial Q sized to the expected selected population: f = 2^Q ≈ n.
std::uint8_t q_for_population(std::size_t n) {
  std::uint8_t q = 0;
  while ((std::size_t{1} << q) < n && q < 15) ++q;
  return q;
}

}  // namespace

TagwatchController::TagwatchController(TagwatchConfig config,
                                       llrp::ReaderClient& client)
    : config_(std::move(config)), client_(&client),
      pool_(config_.threads),
      assessor_(config_.assessor, pool_),
      jitter_rng_(config_.resilience.retry.jitter_seed) {
  // Built-in consumers (Fig. 5): model training first, then the history
  // database; application and telemetry sinks append behind them.
  pipeline_.add_sink(std::make_shared<ParallelAssessorSink>(assessor_));
  pipeline_.add_sink(std::make_shared<HistorySink>(history_));
  if (config_.wall_clock != nullptr) {
    pipeline_.set_wall_clock(*config_.wall_clock);
  }
}

void TagwatchController::set_read_listener(gen2::ReadCallback listener) {
  if (!listener) {
    pipeline_.remove_sink("app");
    return;
  }
  pipeline_.set_sink(
      std::make_shared<CallbackSink>("app", std::move(listener)));
}

void TagwatchController::deliver_batch(
    const std::vector<rf::TagReading>& readings, CycleReport& report,
    ReadPhase phase) {
  if (readings.empty()) return;
  if (phase == ReadPhase::kPhase2) {
    report.phase2_readings += readings.size();
    for (const rf::TagReading& r : readings) ++report.phase2_counts[r.epc];
  } else {
    report.phase1_readings += readings.size();
  }
  pipeline_.dispatch_batch(
      readings, ReadingContext{report.cycle_index, phase, config_.source_id});
}

std::shared_ptr<PipelineMetrics> attach_metrics(
    TagwatchController& controller) {
  auto metrics = std::make_shared<PipelineMetrics>();
  metrics->observe(controller.pipeline());
  controller.pipeline().set_sink(metrics);
  return metrics;
}

llrp::ROSpec TagwatchController::make_read_all_rospec(
    util::SimDuration duration) const {
  llrp::ROSpec spec;
  llrp::AISpec ai;
  if (!quarantined_.empty()) ai.antenna_indexes = healthy_antennas();
  ai.session = config_.session;
  ai.target = config_.query_target;
  ai.rearm_session = config_.rearm_session;
  ai.initial_q = config_.phase1_initial_q;
  ai.stop = llrp::AiSpecStopTrigger::after_duration(duration);
  spec.ai_specs.push_back(std::move(ai));
  return spec;
}

std::vector<std::size_t> TagwatchController::healthy_antennas() const {
  const std::size_t n =
      std::max<std::size_t>(client_->capabilities().antenna_count, 1);
  std::vector<std::size_t> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!quarantined_.contains(i)) out.push_back(i);
  }
  return out;
}

bool TagwatchController::strip_quarantined(llrp::ROSpec& spec) const {
  bool any_drivable = false;
  for (llrp::AISpec& ai : spec.ai_specs) {
    if (ai.antenna_indexes.empty()) ai.antenna_indexes = healthy_antennas();
    std::erase_if(ai.antenna_indexes, [this](std::size_t a) {
      return quarantined_.contains(a);
    });
    if (!ai.antenna_indexes.empty()) any_drivable = true;
  }
  return any_drivable;
}

llrp::ExecutionResult TagwatchController::execute_resilient(
    llrp::ROSpec spec, util::SimTime watchdog_deadline, CycleReport& report,
    bool& gave_up) {
  gave_up = false;
  const RetryPolicy& retry = config_.resilience.retry;
  const std::size_t max_attempts =
      std::max<std::size_t>(retry.max_attempts, 1);
  std::vector<rf::TagReading> salvage;
  util::SimDuration backoff = retry.initial_backoff;

  for (std::size_t attempt = 0;; ++attempt) {
    llrp::ExecutionResult result = client_->execute(spec);
    if (result.ok()) {
      if (!salvage.empty()) {
        // Salvaged readings happened on earlier (failed) attempts.
        result.report.readings.insert(result.report.readings.begin(),
                                      salvage.begin(), salvage.end());
      }
      return result;
    }

    const llrp::ReaderError err = *result.error;
    health_.count_fault(err.kind);
    ++report.execute_failures;

    if (config_.resilience.salvage_partial_reports &&
        !result.report.readings.empty()) {
      ++health_.partial_salvages;
      health_.salvaged_readings += result.report.readings.size();
      report.salvaged_readings += result.report.readings.size();
      salvage.insert(salvage.end(), result.report.readings.begin(),
                     result.report.readings.end());
    }

    if (err.kind == llrp::ReaderErrorKind::kPartialReport) {
      // The inventory itself ran to completion — only report delivery was
      // lossy.  Keep the salvage instead of re-spending the air time.
      result.report.readings = std::move(salvage);
      return result;
    }

    if (err.kind == llrp::ReaderErrorKind::kAntennaLost) {
      if (quarantined_.insert(err.antenna).second) {
        health_.quarantined_antennas = quarantined_.size();
      }
      const bool drivable = strip_quarantined(spec);
      if (drivable && attempt + 1 < max_attempts &&
          client_->now() < watchdog_deadline) {
        // Re-issue immediately on the surviving ports: the failure is
        // instantaneous and deterministic, so backing off buys nothing.
        ++health_.retries;
        ++report.retries;
        continue;
      }
      gave_up = true;
      ++health_.giveups;
      result.report.readings = std::move(salvage);
      return result;
    }

    // Timeout / Disconnected / ProtocolError: transient — back off and
    // retry while the attempt and watchdog budgets allow.
    if (attempt + 1 >= max_attempts || client_->now() >= watchdog_deadline) {
      gave_up = true;
      ++health_.giveups;
      result.report.readings = std::move(salvage);
      return result;
    }
    util::SimDuration wait = backoff;
    if (retry.jitter_fraction > 0.0) {
      const double factor =
          1.0 + retry.jitter_fraction * jitter_rng_.uniform(-1.0, 1.0);
      wait = util::from_seconds(util::to_seconds(backoff) * factor);
    }
    client_->advance(wait);
    health_.backoff_total += wait;
    report.backoff_time += wait;
    ++health_.retries;
    ++report.retries;
    backoff = std::min(
        util::from_seconds(util::to_seconds(backoff) *
                           retry.backoff_multiplier),
        retry.max_backoff);
  }
}

void TagwatchController::run_phase2_selected(const Schedule& schedule,
                                             util::SimTime t_end,
                                             util::SimTime watchdog_deadline,
                                             CycleReport& report,
                                             bool& phase2_failed) {
  std::size_t pass = 0;
  while (client_->now() < t_end && client_->now() < watchdog_deadline) {
    const util::SimTime pass_start = client_->now();
    const std::vector<std::size_t> antennas = healthy_antennas();
    if (antennas.empty()) {
      phase2_failed = true;
      return;
    }
    const std::size_t antenna = antennas[pass % antennas.size()];
    for (const auto& sel : schedule.selections) {
      if (client_->now() >= t_end || client_->now() >= watchdog_deadline) {
        break;
      }
      llrp::ROSpec spec;
      llrp::AISpec ai;
      ai.antenna_indexes = {antenna};
      ai.session = config_.session;
      ai.initial_q =
          q_for_population(std::max<std::size_t>(sel.covered_total, 1));
      ai.stop = llrp::AiSpecStopTrigger::after_rounds(1);
      llrp::C1G2Filter filter{gen2::MemBank::kEpc, sel.bitmask.pointer,
                              sel.bitmask.mask};
      filter.truncate = config_.use_truncation;
      ai.filters.push_back(std::move(filter));
      spec.ai_specs.push_back(std::move(ai));
      bool gave_up = false;
      const llrp::ExecutionResult exec =
          execute_resilient(std::move(spec), watchdog_deadline, report,
                            gave_up);
      if (gave_up) phase2_failed = true;
      report.slot_totals += exec.report.slot_totals;
      if (!exec.report.readings.empty() && !first_read_) {
        first_read_ = exec.report.readings.front().timestamp;
      }
      deliver_batch(exec.report.readings, report, ReadPhase::kPhase2);
    }
    // A fully failing pass that charges no time (e.g. retries disabled)
    // would loop forever on a dead reader: bail once the clock stalls.
    if (client_->now() == pass_start) {
      phase2_failed = true;
      return;
    }
    ++pass;
  }
}

void TagwatchController::update_degradation(bool phase2_failed) {
  if (phase2_failed) {
    healthy_streak_ = 0;
    ++consecutive_phase2_failures_;
    if (!degraded_ && consecutive_phase2_failures_ >=
                          config_.resilience.degrade_after_failures) {
      degraded_ = true;
      ++health_.degraded_entries;
    }
    return;
  }
  consecutive_phase2_failures_ = 0;
  if (degraded_) {
    ++healthy_streak_;
    if (healthy_streak_ >= config_.resilience.restore_after_healthy) {
      degraded_ = false;
      healthy_streak_ = 0;
      ++health_.degraded_exits;
    }
  }
}

CycleReport TagwatchController::run_cycle() {
  CycleReport report;
  report.cycle_index = cycle_counter_++;
  report.degraded_mode = degraded_;
  if (degraded_) ++health_.degraded_cycles;

  const util::SimTime cycle_start = client_->now();
  const bool watchdog_enabled =
      config_.resilience.cycle_watchdog_budget > util::SimDuration::zero();
  const util::SimTime watchdog_deadline =
      watchdog_enabled ? cycle_start + config_.resilience.cycle_watchdog_budget
                       : util::SimTime::max();
  bool phase2_failed = false;

  // ----------------------------------------------------------- Phase I
  assessor_.begin_window();
  llrp::ROSpec phase1;
  {
    const std::size_t n_antennas =
        std::max<std::size_t>(healthy_antennas().size(), 1);
    llrp::AISpec ai;
    if (!quarantined_.empty()) ai.antenna_indexes = healthy_antennas();
    ai.session = config_.session;
    ai.target = config_.query_target;
    ai.rearm_session = config_.rearm_session || rearm_once_;
    rearm_once_ = false;
    ai.initial_q = config_.phase1_initial_q;
    ai.stop = llrp::AiSpecStopTrigger::after_rounds(
        n_antennas * config_.phase1_rounds_per_antenna);
    phase1.ai_specs.push_back(std::move(ai));
  }
  // A Phase I giveup is survivable: an empty scene forces the read-all
  // path below, which re-inventories everything anyway.
  bool phase1_gave_up = false;
  const llrp::ExecutionResult phase1_exec = execute_resilient(
      std::move(phase1), watchdog_deadline, report, phase1_gave_up);
  (void)phase1_gave_up;
  // Elapsed reader time, retries and backoff included.
  report.phase1_duration = client_->now() - cycle_start;
  report.slot_totals += phase1_exec.report.slot_totals;

  util::SimTime last_phase1_read{0};
  std::unordered_set<util::Epc> scene_set;
  for (const auto& r : phase1_exec.report.readings) {
    scene_set.insert(r.epc);
    last_phase1_read = std::max(last_phase1_read, r.timestamp);
  }
  deliver_batch(phase1_exec.report.readings, report, ReadPhase::kPhase1);
  report.scene.assign(scene_set.begin(), scene_set.end());
  std::sort(report.scene.begin(), report.scene.end());

  // ------------------------------------------- Assessment + scheduling
  util::WallClock& wall = config_.wall_clock != nullptr
                              ? *config_.wall_clock
                              : util::WallClock::system();
  const double wall_start = wall.now_seconds();

  report.mobile = assessor_.mobile_tags(client_->now());
  std::unordered_set<util::Epc> target_set(report.mobile.begin(),
                                           report.mobile.end());
  for (const auto& pinned : config_.pinned_targets) {
    if (scene_set.contains(pinned)) target_set.insert(pinned);
  }
  for (const auto& extra : extra_targets_) {
    if (scene_set.contains(extra)) target_set.insert(extra);
  }
  report.targets.assign(target_set.begin(), target_set.end());
  std::sort(report.targets.begin(), report.targets.end());

  bool read_all = degraded_ || config_.mode == ScheduleMode::kReadAll ||
                  report.scene.empty() || report.targets.empty();
  if (!read_all) {
    const double fraction = static_cast<double>(report.targets.size()) /
                            static_cast<double>(report.scene.size());
    if (fraction > config_.mobile_fraction_threshold) read_all = true;
  }

  if (!read_all) {
    // The plan is a pure function of (scene, targets): the cost model,
    // mode and evaluation are fixed per controller, and threads and ISA
    // never change a plan.  A cycle repeating the last planned inputs
    // reuses that plan; any other plans from scratch.
    if (last_plan_ && last_plan_->scene == report.scene &&
        last_plan_->targets == report.targets) {
      report.schedule = last_plan_->schedule;
      report.plan_reused = true;
    } else {
      BitmaskIndex index(report.scene);
      const util::IndicatorBitmap targets = index.bitmap_of(report.targets);
      GreedyCoverScheduler scheduler(config_.cost_model,
                                     config_.greedy_evaluation);
      report.schedule = config_.mode == ScheduleMode::kNaiveEpcMasks
                            ? scheduler.naive_plan(index, targets)
                            : scheduler.plan(index, targets, &pool_);
      last_plan_ = LastPlan{report.scene, report.targets, report.schedule};
    }
  }
  report.read_all_fallback = read_all;

  report.schedule_compute_ms = (wall.now_seconds() - wall_start) * 1e3;
  if (config_.charge_compute_time) {
    // Put the host compute time on the reader clock so the inter-phase
    // gap reflects it, as the paper's Fig. 17 measurement does.
    client_->advance(util::from_seconds(report.schedule_compute_ms / 1e3));
  }

  // ----------------------------------------------------------- Phase II
  util::SimDuration phase2_length = config_.phase2_duration;
  if (config_.phase2_policy) {
    phase2_length = std::clamp(
        config_.phase2_policy(report.targets.size(), report.scene.size()),
        util::msec(100), util::sec(60));
  }
  if (watchdog_enabled) {
    // A read-all Phase II is one long execute the watchdog cannot interrupt
    // from outside — cap its length at the remaining budget up front.
    const util::SimTime now = client_->now();
    const util::SimDuration remaining =
        now < watchdog_deadline ? watchdog_deadline - now
                                : util::SimDuration::zero();
    phase2_length = std::min(phase2_length, remaining);
  }
  const util::SimTime phase2_start = client_->now();
  const util::SimTime t_end = phase2_start + phase2_length;
  first_read_.reset();

  if (read_all) {
    bool gave_up = false;
    const llrp::ExecutionResult exec =
        execute_resilient(make_read_all_rospec(phase2_length),
                          watchdog_deadline, report, gave_up);
    if (gave_up) phase2_failed = true;
    report.slot_totals += exec.report.slot_totals;
    if (!exec.report.readings.empty() && !first_read_) {
      first_read_ = exec.report.readings.front().timestamp;
    }
    deliver_batch(exec.report.readings, report, ReadPhase::kPhase2);
  } else {
    run_phase2_selected(report.schedule, t_end, watchdog_deadline, report,
                        phase2_failed);
  }

  report.phase2_duration = client_->now() - phase2_start;

  if (watchdog_enabled && client_->now() >= watchdog_deadline) {
    report.watchdog_tripped = true;
    ++health_.watchdog_trips;
  }

  update_degradation(phase2_failed);

  // Inter-phase gap (Fig. 17): last Phase I reading → first Phase II one.
  if (first_read_ && last_phase1_read.count() > 0) {
    report.interphase_gap = *first_read_ - last_phase1_read;
  } else {
    report.interphase_gap.reset();
  }

  report.quarantined_antennas.assign(quarantined_.begin(), quarantined_.end());
  report.health = health_;

  pipeline_.end_cycle(report);
  return report;
}

std::vector<CycleReport> TagwatchController::run_cycles(std::size_t n) {
  std::vector<CycleReport> reports;
  reports.reserve(n);
  for (std::size_t i = 0; i < n; ++i) reports.push_back(run_cycle());
  return reports;
}

}  // namespace tagwatch::core
