// The simulated scene: tags, environmental reflectors, and the clock.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "rf/propagation.hpp"
#include "sim/motion.hpp"
#include "util/epc.hpp"
#include "util/geometry.hpp"
#include "util/sim_time.hpp"

namespace tagwatch::sim {

/// A physical tag in the scene.
struct SimTag {
  util::Epc epc;
  std::shared_ptr<const MotionModel> motion;
  /// Intrinsic backscatter phase offset θ_tag of this tag's IC/antenna —
  /// constant per tag, random across tags.
  double tag_phase_rad = 0.0;
  /// Time window during which the tag is in reader range.  Tags outside
  /// their window do not respond (§4.3 "reading exceptions": tags may come
  /// in, go out, or be temporarily blocked).
  util::SimTime arrives{0};
  std::optional<util::SimTime> departs;
  /// Temporarily blocked (detuned/occluded) intervals are modeled with a
  /// per-read blocking probability.
  double block_probability = 0.0;
};

/// A moving scatterer (person, forklift) generating multipath.
struct SimReflector {
  std::shared_ptr<const MotionModel> motion;
  double reflection_coefficient = 0.2;
};

/// A reader's nominal coverage region: a named disc (cylinder — z ignored)
/// on the warehouse floor.  Fleet deployments register one zone per reader;
/// zones may overlap, which is exactly the case cross-reader dedup and
/// session coordination exist for.
struct Zone {
  std::string name;
  util::Vec3 center;
  double radius_m = 0.0;

  /// True when `p` lies inside the zone footprint (boundary inclusive; the
  /// z coordinate is ignored — antennas mount overhead).
  bool contains(util::Vec3 p) const noexcept {
    const double dx = p.x - center.x;
    const double dy = p.y - center.y;
    return dx * dx + dy * dy <= radius_m * radius_m;
  }
};

/// A tag leaving the scene via World::remove_tag(), with the clock reading
/// at removal.  Flag mirrors consume this to apply Gen2 power-loss
/// persistence (a removed tag is de-energized from that instant).
struct TagDeparture {
  util::Epc epc;
  util::SimTime at{0};
};

/// Scene container plus the simulation clock.
///
/// The Gen2 reader advances the clock as it executes protocol operations;
/// everything else (positions, reflections) is evaluated lazily at the
/// current time.
class World {
 public:
  /// Adds a tag; returns its dense index (used by benches for bookkeeping).
  std::size_t add_tag(SimTag tag);

  /// Adds an environmental reflector.
  void add_reflector(SimReflector reflector);

  /// Removes a tag by EPC and logs it in departures(); returns true if it
  /// existed.  Later tags keep their order and move down one index.
  bool remove_tag(const util::Epc& epc);

  const std::vector<SimTag>& tags() const noexcept { return tags_; }
  std::vector<SimTag>& tags() noexcept { return tags_; }

  /// Looks up a tag by EPC (index into tags()), or nullopt.
  std::optional<std::size_t> find_tag(const util::Epc& epc) const;

  /// True if the tag indexed by `i` is in range at time `t`.
  bool tag_present(std::size_t i, util::SimTime t) const;

  /// tag_present() without the index lookup, for callers already iterating
  /// tags() (the Gen2 hot loops).
  static bool is_present(const SimTag& tag, util::SimTime t) noexcept {
    if (t < tag.arrives) return false;
    if (tag.departs && t >= *tag.departs) return false;
    return true;
  }

  /// Registers a named coverage zone (fleet deployments: one per reader).
  /// Returns its index into zones().  Duplicate names throw.
  std::size_t add_zone(Zone zone);

  const std::vector<Zone>& zones() const noexcept { return zones_; }

  /// Looks up a zone by name, or nullptr.
  const Zone* find_zone(std::string_view name) const;

  /// Append-only log of remove_tag() events, oldest first.  remove_tag()
  /// shifts every later tag down one index; index-keyed mirrors (the Gen2
  /// flag field) keep a cursor into this log to learn which tags left,
  /// and when they were de-energized.
  const std::vector<TagDeparture>& departures() const noexcept {
    return departures_;
  }

  /// Snapshot of all reflector positions at time `t` for the RF channel.
  std::vector<rf::Reflector> reflectors_at(util::SimTime t) const;

  util::SimTime now() const noexcept { return now_; }

  /// Advances the clock; `dt` must be non-negative.
  void advance(util::SimDuration dt);

  /// Jumps the clock forward to `t` (no-op if t is in the past).
  void advance_to(util::SimTime t);

 private:
  std::vector<SimTag> tags_;
  std::vector<SimReflector> reflectors_;
  std::vector<Zone> zones_;
  std::vector<TagDeparture> departures_;
  std::unordered_map<util::Epc, std::size_t> index_;
  util::SimTime now_{0};
};

}  // namespace tagwatch::sim
