// Reference Phase-I motion assessor: the straightforward serial loop that
// core::ParallelAssessor must reproduce field for field.
//
// One MotionDetector per tag in a hash map, each reading applied on
// arrival; per-window vote counters; a sorted assessment vector; the §4.3
// "reading exceptions" policy (tags unseen for forget_after are dropped,
// unknown tags are admitted and initially presumed mobile).  The
// differential tests (test_parallel_assessor.cpp, test_assessor.cpp) and
// bench_phase1_scaling drive it side by side with the production engine.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/assessor.hpp"
#include "core/detectors.hpp"
#include "rf/measurement.hpp"
#include "util/epc.hpp"
#include "util/sim_time.hpp"

namespace tagwatch::core::reference {

class MotionAssessor {
 public:
  explicit MotionAssessor(AssessorConfig config = {});

  /// Opens an assessment window.  O(1): vote counters are invalidated by
  /// bumping the window epoch, not by walking every tracked tag.
  void begin_window();

  /// Updates the tag's detector.  Readings between begin_window/assess
  /// also vote; readings at other times only train the models.
  void ingest(const rf::TagReading& reading);

  /// Ends the window: per-tag assessments for tags read in it, sorted by
  /// EPC, evicting tags unseen since `now - forget_after`.  Repeat calls
  /// replay the cached result until the next begin_window().
  const std::vector<TagAssessment>& assess(util::SimTime now);

  /// EPCs assessed mobile in the last window (convenience over assess()).
  std::vector<util::Epc> mobile_tags(util::SimTime now);

  /// Tags currently tracked (have detector state).
  std::size_t tracked_count() const noexcept { return tags_.size(); }

 private:
  struct TagState {
    std::unique_ptr<MotionDetector> detector;
    util::SimTime last_seen{0};
    /// Which window the counters below belong to; counters from an older
    /// epoch are stale and reset lazily on the next in-window reading.
    std::uint64_t window_epoch = 0;
    std::size_t window_readings = 0;
    std::size_t moving_votes = 0;
  };

  AssessorConfig config_;
  bool window_open_ = false;
  /// Current window identity; 0 means "no window opened yet" (TagState
  /// epochs start at 0 and the first open window is epoch 1).
  std::uint64_t window_epoch_ = 0;
  /// Result of the last closed window, replayed by repeat assess() calls.
  std::vector<TagAssessment> last_window_;
  std::unordered_map<util::Epc, TagState> tags_;
};

}  // namespace tagwatch::core::reference
