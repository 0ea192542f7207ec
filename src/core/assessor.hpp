// Phase-I assessment vocabulary: the assessor's tuning and its per-tag,
// per-window verdict.  core::ParallelAssessor (core/parallel_assessor.hpp)
// is the assessor; it aggregates per-reading detector verdicts into the
// mobile-tag set handed to Phase II and implements the §4.3 "reading
// exceptions" policy: state for tags that leave the field for a long time
// is dropped; unknown tags are admitted (and initially presumed mobile) on
// their first reading.
#pragma once

#include <cstddef>

#include "core/detectors.hpp"
#include "util/epc.hpp"
#include "util/sim_time.hpp"

namespace tagwatch::core {

/// Assessor tuning.
struct AssessorConfig {
  DetectorKind detector_kind = DetectorKind::kPhaseMog;
  DetectorConfig detector = {};
  /// Tags unseen for longer than this are forgotten (models removed).
  util::SimDuration forget_after = util::sec(60);
  /// A tag is assessed mobile when at least this many of its readings in
  /// the window were flagged as motion.  1 maximizes sensitivity (a single
  /// unexplained phase on any antenna/channel marks the tag).
  std::size_t mobile_vote_threshold = 1;
};

/// Per-tag assessment summary for one window.
struct TagAssessment {
  util::Epc epc;
  std::size_t window_readings = 0;
  std::size_t moving_votes = 0;
  bool mobile = false;
};

}  // namespace tagwatch::core
