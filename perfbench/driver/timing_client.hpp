// TimingReaderClient: times every ReaderClient::execute from outside.
//
// The decorator sits between a controller and its SimReaderClient, so the
// host time spent inside the Gen2/RF/sim layers is measured without
// touching the program.  Each ROSpec is sorted into one of the three
// classes a Tagwatch cycle issues:
//
//   phase1        — unfiltered, stopped after N rounds (Phase I);
//   phase2_select — carries C1G2 filters (selective Phase II);
//   phase2_all    — unfiltered, stopped after a duration (read-all
//                   Phase II fallback).
//
// Untraced, the decorator reads the clock twice per execute and keeps
// per-cycle totals.  Traced, it also records one span per execute and
// snapshots the watched pipeline's sink counters at both boundaries.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

#include "core/pipeline.hpp"
#include "llrp/reader_client.hpp"

namespace perfbench {

enum class SpecClass : std::uint8_t { kPhase1, kPhase2Select, kPhase2All };
inline constexpr std::size_t kSpecClasses = 3;

inline const char* to_string(SpecClass c) {
  switch (c) {
    case SpecClass::kPhase1: return "phase1";
    case SpecClass::kPhase2Select: return "phase2_select";
    case SpecClass::kPhase2All: return "phase2_all";
  }
  return "?";
}

/// Any filter makes a ROSpec selective; otherwise a duration stop trigger
/// marks the read-all Phase II and a rounds trigger marks Phase I.
inline SpecClass classify(const tagwatch::llrp::ROSpec& spec) {
  bool duration = false;
  for (const tagwatch::llrp::AISpec& ai : spec.ai_specs) {
    if (!ai.filters.empty()) return SpecClass::kPhase2Select;
    if (ai.stop.kind == tagwatch::llrp::AiSpecStopTrigger::Kind::kDuration) {
      duration = true;
    }
  }
  return duration ? SpecClass::kPhase2All : SpecClass::kPhase1;
}

inline std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Summed dispatch seconds over every sink of a pipeline.
inline double sink_seconds(const tagwatch::core::ReadingPipeline& p) {
  double s = 0.0;
  for (const tagwatch::core::SinkStats& st : p.stats()) {
    s += st.dispatch_seconds;
  }
  return s;
}

/// One traced execute.
struct ExecuteSpan {
  std::size_t cycle = 0;
  std::size_t reader = 0;
  SpecClass cls = SpecClass::kPhase1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::size_t slots = 0;
  std::size_t success = 0;
  std::size_t collisions = 0;
  std::size_t readings = 0;
  bool error = false;
  /// Watched pipeline's summed sink seconds at start and end.
  double sink_s_start = 0.0;
  double sink_s_end = 0.0;
};

/// What one reader did during one cycle, as seen from outside.
struct ReaderCycleTotals {
  std::int64_t exec_ns = 0;
  std::size_t executes = 0;
  std::size_t errors = 0;
  std::size_t readings = 0;
  /// Return of the Phase-I execute and start of the first Phase-II one
  /// (-1 until seen): the inter-phase gap's host-time boundaries.
  std::int64_t phase1_end_ns = -1;
  std::int64_t phase2_start_ns = -1;
  // Traced only.
  std::array<std::int64_t, kSpecClasses> class_ns{};
  std::array<std::size_t, kSpecClasses> class_calls{};
  std::size_t slots = 0;
  std::size_t success = 0;
  std::size_t collisions = 0;
  /// Sink seconds spent between the two gap boundaries.
  double gap_sink_s = 0.0;

  double gap_ms() const {
    return phase1_end_ns < 0 || phase2_start_ns < 0
               ? -1.0
               : static_cast<double>(phase2_start_ns - phase1_end_ns) / 1e6;
  }
};

class TimingReaderClient final : public tagwatch::llrp::ReaderClient {
 public:
  /// `inner` must outlive the decorator.  `spans` (traced runs only)
  /// collects every execute span in memory.
  TimingReaderClient(tagwatch::llrp::ReaderClient& inner, std::size_t reader,
                     std::vector<ExecuteSpan>* spans)
      : inner_(&inner), reader_(reader), spans_(spans) {}

  /// Traced runs: the pipeline whose sink counters are snapshotted at
  /// every execute boundary (the controller owning this reader).
  void watch(const tagwatch::core::ReadingPipeline* pipeline) {
    pipeline_ = pipeline;
  }

  /// Starts a new cycle's totals.
  void begin_cycle(std::size_t cycle) {
    cycle_ = cycle;
    totals_ = {};
    phase1_end_sink_s_ = 0.0;
  }
  const ReaderCycleTotals& totals() const noexcept { return totals_; }

  tagwatch::llrp::ExecutionResult execute(
      const tagwatch::llrp::ROSpec& spec) override {
    const SpecClass cls = classify(spec);
    const bool traced = spans_ != nullptr;
    const double sink_start =
        traced && pipeline_ != nullptr ? sink_seconds(*pipeline_) : 0.0;
    const std::int64_t start = host_ns();
    tagwatch::llrp::ExecutionResult result = inner_->execute(spec);
    const std::int64_t end = host_ns();

    totals_.exec_ns += end - start;
    ++totals_.executes;
    if (!result.ok()) ++totals_.errors;
    totals_.readings += result.report.readings.size();
    if (cls == SpecClass::kPhase1) {
      totals_.phase1_end_ns = end;
    } else if (totals_.phase2_start_ns < 0) {
      totals_.phase2_start_ns = start;
      if (traced) totals_.gap_sink_s = sink_start - phase1_end_sink_s_;
    }
    if (traced) {
      const double sink_end =
          pipeline_ != nullptr ? sink_seconds(*pipeline_) : 0.0;
      if (cls == SpecClass::kPhase1) phase1_end_sink_s_ = sink_end;
      const auto c = static_cast<std::size_t>(cls);
      const tagwatch::gen2::RoundStats& slots = result.report.slot_totals;
      totals_.class_ns[c] += end - start;
      ++totals_.class_calls[c];
      totals_.slots += slots.slots;
      totals_.success += slots.success_slots;
      totals_.collisions += slots.collision_slots;
      spans_->push_back({cycle_, reader_, cls, start, end, slots.slots,
                         slots.success_slots, slots.collision_slots,
                         result.report.readings.size(), !result.ok(),
                         sink_start, sink_end});
    }
    return result;
  }

  tagwatch::util::SimTime now() const override { return inner_->now(); }
  void set_read_listener(tagwatch::gen2::ReadCallback listener) override {
    inner_->set_read_listener(std::move(listener));
  }
  tagwatch::llrp::ReaderCapabilities capabilities() const override {
    return inner_->capabilities();
  }
  void advance(tagwatch::util::SimDuration d) override { inner_->advance(d); }
  bool set_coverage_zone(const tagwatch::sim::Zone& zone) override {
    return inner_->set_coverage_zone(zone);
  }

 private:
  tagwatch::llrp::ReaderClient* inner_;
  std::size_t reader_;
  std::vector<ExecuteSpan>* spans_;
  const tagwatch::core::ReadingPipeline* pipeline_ = nullptr;
  std::size_t cycle_ = 0;
  ReaderCycleTotals totals_;
  double phase1_end_sink_s_ = 0.0;
};

}  // namespace perfbench
