#include "gen2/flag_field.hpp"

namespace tagwatch::gen2 {

void TagFlagField::sync(const sim::World& world) {
  const std::vector<sim::TagDeparture>& log = world.departures();
  if (departure_cursor_ < log.size()) {
    // remove_tag() erased tags and shifted the ones behind them.  Stash the
    // flags of every mirrored tag that departed since the last sync, with
    // its latest power-loss time, and close the gaps: survivors keep their
    // relative order, exactly like World::tags().  A tag that departed and
    // came back in between is stashed too, so it still goes through
    // power_cycle() when the growth loop below re-adds it.
    std::unordered_map<util::Epc, util::SimTime> departed_at;
    for (; departure_cursor_ < log.size(); ++departure_cursor_) {
      const sim::TagDeparture& d = log[departure_cursor_];
      departed_at.insert_or_assign(d.epc, d.at);
    }
    std::size_t kept = 0;
    for (std::size_t i = 0; i < flags_.size(); ++i) {
      if (const auto it = departed_at.find(epcs_[i]);
          it != departed_at.end()) {
        departed_.insert_or_assign(epcs_[i],
                                   DepartedEntry{flags_[i], it->second});
      } else {
        flags_[kept] = flags_[i];
        epcs_[kept] = epcs_[i];
        ++kept;
      }
    }
    flags_.resize(kept);
    epcs_.resize(kept);
  }
  // Tags behind the survivors were added since: resume a stashed tag
  // through the Gen2 persistence table for the de-energized gap
  // [departed_at, now); a new one starts in the power-up state.
  const std::vector<sim::SimTag>& tags = world.tags();
  for (std::size_t i = flags_.size(); i < tags.size(); ++i) {
    const util::Epc& epc = tags[i].epc;
    const auto it = departed_.find(epc);
    if (it != departed_.end()) {
      TagFlags flags = it->second.flags;
      flags.power_cycle(it->second.departed_at, world.now(), timing_);
      flags_.push_back(flags);
      departed_.erase(it);
    } else {
      flags_.emplace_back();  // Power-up state: ~SL, all sessions A.
    }
    epcs_.push_back(epc);
  }
}

std::size_t TagFlagField::count_b(const sim::World& world, Session session,
                                  util::SimTime now) {
  sync(world);
  std::size_t count = 0;
  for (const TagFlags& flags : flags_) {
    if (flags.session_flag_at(session, now) == InvFlag::kB) ++count;
  }
  return count;
}

const TagFlags* TagFlagField::find(const sim::World& world,
                                   const util::Epc& epc) {
  sync(world);
  if (const auto idx = world.find_tag(epc)) return &flags_[*idx];
  const auto it = departed_.find(epc);
  return it == departed_.end() ? nullptr : &it->second.flags;
}

}  // namespace tagwatch::gen2
