// The reference serial motion assessor; see motion_assessor_reference.hpp.
#include "motion_assessor_reference.hpp"

#include <algorithm>

namespace tagwatch::core::reference {

MotionAssessor::MotionAssessor(AssessorConfig config)
    : config_(std::move(config)) {}

void MotionAssessor::begin_window() {
  window_open_ = true;
  ++window_epoch_;
  last_window_.clear();
}

void MotionAssessor::ingest(const rf::TagReading& reading) {
  auto it = tags_.find(reading.epc);
  if (it == tags_.end()) {
    TagState state;
    state.detector = make_detector(config_.detector_kind, config_.detector);
    it = tags_.emplace(reading.epc, std::move(state)).first;
  }
  TagState& state = it->second;
  const MotionVerdict verdict = state.detector->update(reading);
  state.last_seen = reading.timestamp;
  if (window_open_) {
    if (state.window_epoch != window_epoch_) {
      // First reading of this tag in the current window: its counters
      // still belong to an earlier window.
      state.window_epoch = window_epoch_;
      state.window_readings = 0;
      state.moving_votes = 0;
    }
    ++state.window_readings;
    if (verdict == MotionVerdict::kMoving) ++state.moving_votes;
  }
}

const std::vector<TagAssessment>& MotionAssessor::assess(util::SimTime now) {
  if (!window_open_) {
    // The window is already closed: replay its cached result instead of
    // re-applying forget_after eviction at a later `now` (which would
    // silently drop tags the window did assess).
    return last_window_;
  }
  window_open_ = false;
  std::vector<TagAssessment> out;
  for (auto it = tags_.begin(); it != tags_.end();) {
    TagState& state = it->second;
    if (now - state.last_seen > config_.forget_after) {
      // §4.3: a tag gone for a long while has its models removed; if it
      // returns it is treated as new (and initially presumed mobile).
      it = tags_.erase(it);
      continue;
    }
    // Counters from an older epoch mean the tag was not read this window.
    if (state.window_epoch == window_epoch_ && state.window_readings > 0) {
      TagAssessment a;
      a.epc = it->first;
      a.window_readings = state.window_readings;
      a.moving_votes = state.moving_votes;
      a.mobile = state.moving_votes >= config_.mobile_vote_threshold;
      out.push_back(std::move(a));
    }
    ++it;
  }
  std::sort(out.begin(), out.end(),
            [](const TagAssessment& a, const TagAssessment& b) {
              return a.epc < b.epc;
            });
  last_window_ = std::move(out);
  return last_window_;
}

std::vector<util::Epc> MotionAssessor::mobile_tags(util::SimTime now) {
  std::vector<util::Epc> mobile;
  for (const TagAssessment& a : assess(now)) {
    if (a.mobile) mobile.push_back(a.epc);
  }
  return mobile;
}

}  // namespace tagwatch::core::reference
