// TagFlagField: the dense per-tag-index session-flag mirror, shareable
// across readers.
//
// Session flags live on the *tag*, not on any reader: when several readers
// energize overlapping zones of one World, an ACK by reader 1 flips the
// same S2 flag reader 2 queries a moment later.  N readers can be
// constructed over one shared field, while a single-reader setup keeps a
// private field.
//
// The mirror is indexed like World::tags() (hot path: no hashing per slot)
// and follows the world through World::departures(): a removal erases the
// departed tag's entry and the survivors close ranks in order, as they do
// in tags(); growth appends.  Departed tags stash their flags by EPC
// together with the removal time; on re-entry the stash is restored
// through TagFlags::power_cycle(), which applies the Gen2 persistence
// table to the de-energized gap.
#pragma once

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "gen2/tag_runtime.hpp"
#include "sim/world.hpp"
#include "util/epc.hpp"

namespace tagwatch::gen2 {

class TagFlagField {
 public:
  /// Default timing is persistent() — the legacy immortal-flag semantics.
  explicit TagFlagField(SessionTiming timing = SessionTiming::persistent())
      : timing_(timing) {}

  const SessionTiming& timing() const noexcept { return timing_; }

  /// Brings the mirror up to date with `world`: drops the tags that
  /// World::departures() lists since the last sync (stashing their flags
  /// by EPC with their de-energize time) and grows it for newly added
  /// tags, resuming stashed flags through power_cycle().  Cheap no-op when
  /// nothing changed.
  void sync(const sim::World& world);

  /// Flags of the tag at dense index `i` (valid after sync()).
  TagFlags& at(std::size_t i) { return flags_[i]; }
  const TagFlags& at(std::size_t i) const { return flags_[i]; }

  std::size_t size() const noexcept { return flags_.size(); }

  /// Flags of a tag by EPC — in the field or stashed as departed — or
  /// nullptr if the field has never covered it.  Syncs first.
  const TagFlags* find(const sim::World& world, const util::Epc& epc);

  /// Number of departed-tag stash entries (diagnostics/tests).
  std::size_t departed_count() const noexcept { return departed_.size(); }

  /// Census: how many present tags read B on `session` at `now` (decay
  /// applied).  B tags are invisible to target-A queries until re-armed or
  /// decayed — the quantity zone takeover's session-aware re-inventory
  /// exists to drive back down.  Syncs the mirror against `world` first.
  std::size_t count_b(const sim::World& world, Session session,
                      util::SimTime now);

 private:
  struct DepartedEntry {
    TagFlags flags;
    /// When the tag was de-energized (its latest World::departures() entry).
    util::SimTime departed_at;
  };

  SessionTiming timing_;
  std::vector<TagFlags> flags_;
  /// EPC of each mirrored tag, so departures can be found by EPC.
  std::vector<util::Epc> epcs_;
  std::unordered_map<util::Epc, DepartedEntry> departed_;
  /// Consumed prefix of World::departures().
  std::size_t departure_cursor_ = 0;
};

}  // namespace tagwatch::gen2
