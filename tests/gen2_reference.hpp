// Reference Gen2 slot engine: the straightforward O(n)-per-slot inventory
// loop that Gen2Reader::run_inventory_round must reproduce bit for bit.
//
// Every participant carries its own slot counter; each slot scans all of
// them for zeros, and each QueryRep decrements every un-parked counter —
// the protocol exactly as Gen2 words it.  It covers the ALOHA policies
// (kFixedQ, kIdealDfsa, kQAdaptive) and the reader state they touch:
// channel hopping, session flags, the RF observation of each read, and
// the random stream.  The differential test (test_gen2_oracle.cpp) and
// bench_gen2_round drive it side by side with the production engine over
// identically built worlds.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "gen2/reader.hpp"

namespace tagwatch::gen2::reference {

class ReferenceReader {
 public:
  /// Same arguments and meaning as Gen2Reader's constructor.
  ReferenceReader(LinkTiming timing, ReaderConfig config, sim::World& world,
                  const rf::RfChannel& channel,
                  std::vector<rf::Antenna> antennas, util::Rng rng,
                  std::shared_ptr<TagFlagField> flags = nullptr);

  void transmit_select(const SelectCommand& cmd);
  RoundStats run_inventory_round(const QueryCommand& query,
                                 const ReadCallback& on_read);
  void set_active_antenna(std::size_t index) { antenna_idx_ = index; }

  const util::Rng& rng() const noexcept { return rng_; }
  /// Slot-counter draws (below() calls) made so far.
  std::uint64_t slot_draws() const noexcept { return slot_draws_; }

 private:
  struct Participant {
    std::size_t tag_index;
    std::uint32_t slot;
    bool parked = false;
  };

  bool in_field(const sim::SimTag& tag, util::SimTime t) const;
  std::vector<Participant> gather_participants(const QueryCommand& query);
  void redraw_slots(std::vector<Participant>& parts, std::uint32_t frame_size);
  void hop_if_due();
  std::size_t reply_bits(const util::Epc& epc, const TagFlags& flags) const;
  rf::TagReading make_reading(std::size_t tag_index);

  LinkTiming timing_;
  ReaderConfig config_;
  sim::World* world_;
  const rf::RfChannel* channel_;
  std::vector<rf::Antenna> antennas_;
  util::Rng rng_;
  std::shared_ptr<TagFlagField> flags_;
  std::size_t antenna_idx_ = 0;
  std::size_t channel_idx_ = 0;
  std::size_t hop_counter_ = 0;
  util::SimTime next_hop_{0};
  std::optional<double> persisted_qfp_;
  std::uint64_t slot_draws_ = 0;
};

}  // namespace tagwatch::gen2::reference
