// Self-learning immobility model (paper §4.1–4.2).
//
// Each tag's stationary appearance is modeled by a stack of up to K
// Gaussian components over its RF phase (or RSS).  A component corresponds
// to one multipath superposition state (one Fresnel-zone configuration of
// the environment, Fig. 7); the Stauffer–Grimson-style online update keeps
// the stack adapted to environmental change without offline training:
//
//   matched (stationary):  w ← (1-α)w + α
//                          μ ← (1-ρ)μ + ρθ        (shortest-arc for phase)
//                          σ ← sqrt((1-ρ)σ² + ρ(θ-μ)²)
//   unmatched components:  w ← (1-α)w
//   no match (moving):     push {μ=θ, large σ, tiny w}, evicting the
//                          lowest-priority component (r = w/σ) if full.
//
// Two standard refinements from the background-modeling literature are
// applied (documented deviations from the paper's abbreviated pseudo-code,
// which degenerates as written because a fresh σ≈2π component matches every
// subsequent value):
//   1. warm-up: a young component uses ρ = 1/(count+1) (running average) so
//      its μ/σ converge to sample statistics quickly, then switches to the
//      slow rate ρ = α·η̂;
//   2. trust: an observation is declared *stationary* only when the matched
//      component is mature — weight ≥ trust_weight AND σ ≤ trust_stddev —
//      i.e. a persistent, tight multipath state.  Immature matches still
//      update the mixture but classify as moving, which realizes the
//      paper's "initially assume all tags are in motion, then immediately
//      learn their immobility".
//
// The per-observation math lives in the inline mog_* free functions below,
// shared verbatim between ImmobilityModel (the readable per-model class)
// and the pooled component banks of core::ParallelAssessor — one
// definition is what makes the parallel ingestion engine bit-identical to
// the serial path by construction.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "util/circular.hpp"

namespace tagwatch::core {

/// Distance semantics for the observed scalar.
enum class Metric {
  kCircular,  ///< mod-2π minimum distance (RF phase).
  kLinear,    ///< absolute difference (RSS in dBm).
};

/// Tuning parameters (paper §6 defaults: α=0.001, K=8, ξ=3).
struct ImmobilityConfig {
  double learning_rate = 0.001;   ///< α
  std::size_t max_components = 8; ///< K
  double match_threshold = 3.0;   ///< ξ (match if |θ-μ| < ξσ)
  /// σ for a freshly pushed component.  Also caps σ during updates: an
  /// immobility state is by definition tight, so a component absorbing
  /// far-fringe samples must not balloon into a catch-all.
  double initial_stddev = 0.35;
  double initial_weight = 1e-4;   ///< w for a freshly pushed component
  /// Floor on σ during matching so that a run of identical quantized values
  /// cannot collapse the acceptance band to zero width.
  double min_match_stddev = 0.03;
  /// Warm-up length: below this many absorbed samples a component estimates
  /// μ/σ by running average instead of the slow exponential update.
  std::size_t warmup_count = 40;
  /// Maturity requirements for a match to count as immobility evidence: the
  /// component must have absorbed at least trust_count samples, be tight
  /// (σ ≤ trust_stddev), and carry at least trust_weight.
  std::size_t trust_count = 8;
  double trust_weight = 0.002;
  double trust_stddev = 0.30;

  /// Defaults scaled for RSS (dBm) instead of phase (radians).
  static ImmobilityConfig for_rss() {
    ImmobilityConfig c;
    c.initial_stddev = 4.0;
    c.min_match_stddev = 0.4;
    c.trust_stddev = 2.5;
    return c;
  }
};

/// One Gaussian component of the mixture.
struct GaussianComponent {
  double weight = 0.0;
  double mean = 0.0;
  double stddev = 0.0;
  std::size_t count = 0;  ///< Samples absorbed (drives warm-up).

  /// Priority r = w/σ: high weight and low spread ranks first (§4.2).
  double priority() const noexcept {
    return stddev > 0.0 ? weight / stddev : weight / 1e-9;
  }
};

/// Classification of one observation.
enum class MotionVerdict {
  kStationary,  ///< Matched a trusted immobility component.
  kMoving,      ///< Matched nothing trusted: state change or new tag.
};

// ----------------------------------------------------- shared MoG math
// The per-observation kernel over a raw component array, used by BOTH
// ImmobilityModel::observe/classify and the pooled banks of
// core::ParallelAssessor.  Both paths therefore evaluate the same
// expression trees in the same order, which is what the bit-identity
// guarantee of the parallel ingestion engine rests on — change the math
// here and every consumer moves together.

/// mog_find_match() return value when no component matches.
inline constexpr std::size_t kMogNoMatch = static_cast<std::size_t>(-1);

inline double mog_distance(Metric metric, double a, double b) {
  return metric == Metric::kCircular ? util::circular_distance(a, b)
                                     : std::abs(a - b);
}

inline double mog_blend(Metric metric, double mean, double value,
                        double rho) {
  return metric == Metric::kCircular
             ? util::circular_lerp(mean, value, rho)
             : mean + rho * (value - mean);
}

inline bool mog_matches(const ImmobilityConfig& config, Metric metric,
                        const GaussianComponent& c, double value) {
  const double band =
      config.match_threshold * std::max(c.stddev, config.min_match_stddev);
  return mog_distance(metric, value, c.mean) < band;
}

inline bool mog_trusted(const ImmobilityConfig& config,
                        const GaussianComponent& c) noexcept {
  return c.count >= config.trust_count && c.weight >= config.trust_weight &&
         c.stddev <= config.trust_stddev;
}

/// Index of the highest-priority matching component in comps[0..n), or
/// kMogNoMatch.  comps is kept sorted by descending priority, so the first
/// hit is the best.
inline std::size_t mog_find_match(const GaussianComponent* comps,
                                  std::size_t n,
                                  const ImmobilityConfig& config,
                                  Metric metric, double value) {
  for (std::size_t i = 0; i < n; ++i) {
    if (mog_matches(config, metric, comps[i], value)) return i;
  }
  return kMogNoMatch;
}

/// Stable descending-priority sort of comps[0..n).  Insertion sort: for
/// n ≤ K it is the fastest option, needs no temporary buffer (unlike
/// std::stable_sort, which allocates one per call), and being stable it
/// produces exactly the permutation std::stable_sort would.
inline void mog_sort_by_priority(GaussianComponent* comps, std::size_t n) {
  for (std::size_t i = 1; i < n; ++i) {
    const GaussianComponent key = comps[i];
    const double priority = key.priority();
    std::size_t j = i;
    while (j > 0 && comps[j - 1].priority() < priority) {
      comps[j] = comps[j - 1];
      --j;
    }
    comps[j] = key;
  }
}

/// Classifies `value` against comps[0..n) without learning.
inline MotionVerdict mog_classify(const GaussianComponent* comps,
                                  std::size_t n,
                                  const ImmobilityConfig& config,
                                  Metric metric, double value) {
  const std::size_t match = mog_find_match(comps, n, config, metric, value);
  if (match == kMogNoMatch) return MotionVerdict::kMoving;
  return mog_trusted(config, comps[match]) ? MotionVerdict::kStationary
                                           : MotionVerdict::kMoving;
}

/// Classifies and then applies the self-learning update to comps[0..n)
/// in place, growing n on a no-match push.  `comps` must have room for
/// config.max_components elements.  Returns the pre-update classification.
inline MotionVerdict mog_observe(GaussianComponent* comps, std::size_t& n,
                                 const ImmobilityConfig& config,
                                 Metric metric, double value) {
  const std::size_t match = mog_find_match(comps, n, config, metric, value);
  const double alpha = config.learning_rate;

  if (match == kMogNoMatch) {
    // Case 2: no component explains the observation — the tag (or the
    // environment) changed state.  Seed a new low-confidence component.
    const GaussianComponent fresh{config.initial_weight, value,
                                  config.initial_stddev, 1};
    if (n < config.max_components) {
      comps[n++] = fresh;
    } else {
      // Replace the lowest-priority component (comps sorted descending).
      comps[n - 1] = fresh;
    }
    mog_sort_by_priority(comps, n);
    return MotionVerdict::kMoving;
  }

  const MotionVerdict verdict = mog_trusted(config, comps[match])
                                    ? MotionVerdict::kStationary
                                    : MotionVerdict::kMoving;

  // Case 1: matched — reinforce it, decay the rest (Eqn. 11).
  for (std::size_t i = 0; i < n; ++i) {
    if (i != match) comps[i].weight = (1.0 - alpha) * comps[i].weight;
  }
  {
    GaussianComponent& c = comps[match];
    c.weight = (1.0 - alpha) * c.weight + alpha;
    ++c.count;
    double rho;
    if (c.count <= config.warmup_count) {
      // Warm-up: converge to the sample statistics of absorbed values.
      rho = 1.0 / static_cast<double>(c.count + 1);
    } else {
      // Steady state: ρ = α·η̂ with a unit-peak kernel so that samples in
      // the component core adapt at rate α and fringe samples slower.
      const double sigma = std::max(c.stddev, config.min_match_stddev);
      const double z = mog_distance(metric, value, c.mean) / sigma;
      rho = alpha * std::exp(-0.5 * z * z);
    }
    c.mean = mog_blend(metric, c.mean, value, rho);
    const double residual = mog_distance(metric, value, c.mean);
    c.stddev = std::min(std::sqrt((1.0 - rho) * c.stddev * c.stddev +
                                  rho * residual * residual),
                        config.initial_stddev);
  }
  mog_sort_by_priority(comps, n);
  return verdict;
}

/// The per-(tag, antenna, channel) Gaussian-mixture immobility model.
class ImmobilityModel {
 public:
  explicit ImmobilityModel(ImmobilityConfig config = {},
                           Metric metric = Metric::kCircular);

  /// Classifies without learning.
  MotionVerdict classify(double value) const;

  /// Classifies and then applies the self-learning update (the per-reading
  /// step of Phase I).  Returns the pre-update classification.
  MotionVerdict observe(double value);

  /// Learns from `value` without using the verdict (absorbs Phase II
  /// readings into the model, §4.3 "when do we learn Gaussian models").
  void learn(double value) { (void)observe(value); }

  /// Components ordered by descending priority (diagnostics/tests).
  const std::vector<GaussianComponent>& components() const noexcept {
    return components_;
  }
  std::size_t component_count() const noexcept { return components_.size(); }
  /// True if any component is mature enough to certify immobility.
  bool has_trusted_component() const noexcept;
  const ImmobilityConfig& config() const noexcept { return config_; }
  Metric metric() const noexcept { return metric_; }

 private:
  ImmobilityConfig config_;
  Metric metric_;
  std::vector<GaussianComponent> components_;
};

}  // namespace tagwatch::core
