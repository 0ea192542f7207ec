// EPC-keyed flag store: the differential oracle for gen2::TagFlagField.
//
// Every tag's flags live in one hash map keyed by EPC, so there is no
// dense index to keep in step with World::tags().  The session and reader
// tests apply the same Select and inventory events to this store and to
// the production mirror and require identical flags.
#pragma once

#include <cstddef>
#include <unordered_map>

#include "gen2/tag_runtime.hpp"
#include "util/epc.hpp"
#include "util/sim_time.hpp"

namespace tagwatch::gen2 {

/// Flag store for the whole population.  Operator[] default-constructs the
/// power-up state (SL deasserted, all sessions A), which is what a tag
/// entering the field presents.
class FlagStore {
 public:
  TagFlags& operator[](const util::Epc& epc) { return flags_[epc]; }

  const TagFlags* find(const util::Epc& epc) const {
    const auto it = flags_.find(epc);
    return it == flags_.end() ? nullptr : &it->second;
  }

  /// Broadcasts a Select to every tag in `epcs`.
  template <typename EpcRange>
  void broadcast_select(const SelectCommand& cmd, const EpcRange& epcs) {
    for (const auto& epc : epcs) {
      apply_select_action(cmd, select_matches(cmd, epc), (*this)[epc]);
    }
  }

  /// Timed broadcast: stamps decay deadlines per `timing`.
  template <typename EpcRange>
  void broadcast_select(const SelectCommand& cmd, const EpcRange& epcs,
                        util::SimTime now, const SessionTiming& timing) {
    for (const auto& epc : epcs) {
      apply_select_action(cmd, select_matches(cmd, epc), (*this)[epc], now,
                          timing);
    }
  }

  /// Drops state for tags that left the field.
  void forget(const util::Epc& epc) { flags_.erase(epc); }
  void clear() { flags_.clear(); }
  std::size_t size() const noexcept { return flags_.size(); }

 private:
  std::unordered_map<util::Epc, TagFlags> flags_;
};

}  // namespace tagwatch::gen2
