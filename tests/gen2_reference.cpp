// The reference O(n)-per-slot Gen2 engine; see gen2_reference.hpp.
#include "gen2_reference.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace tagwatch::gen2::reference {

namespace {

/// Sentinel slot value for collided tags: per Gen2, a tag whose counter is 0
/// and that receives QueryRep without having been acknowledged wraps its
/// counter and effectively leaves the frame until the next Query/QueryAdjust.
constexpr std::uint32_t kParkedSlot = 0x7FFF;

std::uint8_t clamp_q(double qfp) {
  return static_cast<std::uint8_t>(std::lround(std::clamp(qfp, 0.0, 15.0)));
}

}  // namespace

ReferenceReader::ReferenceReader(LinkTiming timing, ReaderConfig config,
                       sim::World& world, const rf::RfChannel& channel,
                       std::vector<rf::Antenna> antennas, util::Rng rng,
                       std::shared_ptr<TagFlagField> flags)
    : timing_(std::move(timing)), config_(config), world_(&world),
      channel_(&channel), antennas_(std::move(antennas)), rng_(rng),
      flags_(std::move(flags)) {
  if (antennas_.empty()) {
    throw std::invalid_argument("ReferenceReader: need at least one antenna");
  }
  if (config_.q_step <= 0.0) {
    throw std::invalid_argument("ReferenceReader: q_step must be positive");
  }
  if (!flags_) {
    flags_ = std::make_shared<TagFlagField>(config_.session_timing);
  }
  next_hop_ = world_->now() + config_.channel_dwell;
}

bool ReferenceReader::in_field(const sim::SimTag& tag, util::SimTime t) const {
  if (!sim::World::is_present(tag, t)) return false;
  if (!config_.coverage) return true;
  return config_.coverage->contains(tag.motion->position(t));
}

void ReferenceReader::transmit_select(const SelectCommand& cmd) {
  hop_if_due();
  world_->advance(timing_.select(cmd.mask.size()));
  flags_->sync(*world_);
  const util::SimTime t = world_->now();
  const SessionTiming& st = flags_->timing();
  const std::vector<sim::SimTag>& tags = world_->tags();
  for (std::size_t i = 0; i < tags.size(); ++i) {
    const sim::SimTag& tag = tags[i];
    if (!in_field(tag, t)) continue;
    apply_select_action(cmd, select_matches(cmd, tag.epc), flags_->at(i), t,
                        st);
  }
}

std::vector<ReferenceReader::Participant> ReferenceReader::gather_participants(
    const QueryCommand& query) {
  flags_->sync(*world_);
  std::vector<Participant> parts;
  const util::SimTime t = world_->now();
  const std::vector<sim::SimTag>& tags = world_->tags();
  for (std::size_t i = 0; i < tags.size(); ++i) {
    const sim::SimTag& tag = tags[i];
    if (!in_field(tag, t)) continue;
    const TagFlags& f = flags_->at(i);
    if (query.sel == QuerySel::kSl && !f.sl) continue;
    if (query.sel == QuerySel::kNotSl && f.sl) continue;
    if (f.session_flag_at(query.session, t) != query.target) continue;
    // Temporarily blocked/occluded tags miss the whole round (§4.3).
    if (tag.block_probability > 0.0 && rng_.chance(tag.block_probability)) {
      continue;
    }
    parts.push_back({i, 0, false});
  }
  return parts;
}

void ReferenceReader::redraw_slots(std::vector<Participant>& parts,
                              std::uint32_t frame_size) {
  for (auto& p : parts) {
    p.slot = rng_.below(std::max<std::uint32_t>(frame_size, 1));
    ++slot_draws_;
    p.parked = false;
  }
}

void ReferenceReader::hop_if_due() {
  while (world_->now() >= next_hop_) {
    ++hop_counter_;
    channel_idx_ = channel_->plan().hop_channel(hop_counter_);
    next_hop_ += config_.channel_dwell;
  }
}

std::size_t ReferenceReader::reply_bits(const util::Epc& epc,
                                   const TagFlags& flags) const {
  // Truncated replies (Select Truncate=1): the tag transmits only the EPC
  // bits following the matched mask; the reader reconstructs the rest from
  // the mask it sent.
  if (flags.truncate_from != TagFlags::kNoTruncate &&
      flags.truncate_from < epc.size()) {
    return epc.size() - flags.truncate_from;
  }
  return epc.size();
}

rf::TagReading ReferenceReader::make_reading(std::size_t tag_index) {
  const sim::SimTag& tag = world_->tags()[tag_index];
  const util::SimTime t = world_->now();
  const rf::RfObservation obs = channel_->observe(
      antennas_[antenna_idx_], tag.motion->position(t), tag.tag_phase_rad,
      world_->reflectors_at(t), channel_idx_, rng_);
  return rf::TagReading{tag.epc, antennas_[antenna_idx_].id, channel_idx_,
                        obs.phase_rad, obs.rssi_dbm, t};
}

RoundStats ReferenceReader::run_inventory_round(const QueryCommand& query,
                                           const ReadCallback& on_read) {
  RoundStats stats;
  const util::SimTime round_start = world_->now();
  hop_if_due();

  // τ0: carrier ramp, settling, host turnaround — then the opening Query.
  world_->advance(config_.round_overhead);
  world_->advance(timing_.query());

  auto parts = gather_participants(query);

  double qfp = (config_.persist_q && persisted_qfp_)
                   ? *persisted_qfp_
                   : static_cast<double>(query.q);
  std::uint8_t q = clamp_q(qfp);
  if (config_.policy == AntiCollisionPolicy::kIdealDfsa) {
    // Oracle: frame length equals the number of competing tags.
    redraw_slots(parts, static_cast<std::uint32_t>(
                            std::max<std::size_t>(parts.size(), 1)));
  } else {
    redraw_slots(parts, 1u << q);
  }

  std::size_t slots_left_in_frame =
      (config_.policy == AntiCollisionPolicy::kIdealDfsa)
          ? std::max<std::size_t>(parts.size(), 1)
          : (std::size_t{1} << q);

  const auto remaining_active = [&parts] {
    return static_cast<std::size_t>(
        std::count_if(parts.begin(), parts.end(),
                      [](const Participant& p) { return !p.parked; }));
  };

  while (stats.slots < config_.max_slots_per_round) {
    // Round termination.
    if (parts.empty()) {
      if (config_.policy == AntiCollisionPolicy::kQAdaptive) {
        // The reader does not know the population is exhausted: it keeps
        // issuing slots, decaying Q on each empty one, until Q reaches 0 and
        // a final empty slot convinces it the round is over.
        while (qfp > 0.0 && stats.slots < config_.max_slots_per_round) {
          world_->advance(timing_.empty_slot());
          ++stats.slots;
          ++stats.empty_slots;
          qfp = std::max(0.0, qfp - config_.q_step);
        }
        world_->advance(timing_.empty_slot());
        ++stats.slots;
        ++stats.empty_slots;
      }
      break;
    }
    // FSA/Q-adaptive can deadlock if every remaining tag is parked; a frame
    // restart (new Query) un-parks them.
    if (remaining_active() == 0 || slots_left_in_frame == 0) {
      switch (config_.policy) {
        case AntiCollisionPolicy::kFixedQ:
          world_->advance(timing_.query());
          redraw_slots(parts, 1u << q);
          slots_left_in_frame = 1u << q;
          break;
        case AntiCollisionPolicy::kIdealDfsa: {
          const auto f = static_cast<std::uint32_t>(parts.size());
          world_->advance(timing_.query());
          redraw_slots(parts, std::max(f, 1u));
          slots_left_in_frame = std::max(f, 1u);
          break;
        }
        case AntiCollisionPolicy::kQAdaptive:
          world_->advance(timing_.query_adjust());
          q = clamp_q(qfp);
          redraw_slots(parts, 1u << q);
          slots_left_in_frame = config_.max_slots_per_round;  // no frame bound
          break;
        case AntiCollisionPolicy::kBinaryTree:
          break;  // not modelled by the reference
      }
      continue;
    }

    hop_if_due();

    // Identify this slot's responders.
    std::vector<std::size_t> responders;  // indexes into parts
    for (std::size_t i = 0; i < parts.size(); ++i) {
      if (!parts[i].parked && parts[i].slot == 0) responders.push_back(i);
    }

    ++stats.slots;
    --slots_left_in_frame;

    if (responders.empty()) {
      world_->advance(timing_.empty_slot());
      ++stats.empty_slots;
      if (config_.policy == AntiCollisionPolicy::kQAdaptive) {
        qfp = std::max(0.0, qfp - config_.q_step);
      }
    } else if (responders.size() == 1) {
      const std::size_t pi = responders.front();
      const bool lost = config_.slot_error_rate > 0.0 &&
                        rng_.chance(config_.slot_error_rate);
      if (lost) {
        // RN16/EPC decode failure: costs a collision-like slot; the tag saw
        // no valid ACK, so it parks like a collided tag.
        world_->advance(timing_.collision_slot());
        ++stats.lost_slots;
        parts[pi].slot = kParkedSlot;
        parts[pi].parked = true;
      } else {
        const std::size_t tag_index = parts[pi].tag_index;
        TagFlags& flags = flags_->at(tag_index);
        const util::Epc& epc = world_->tags()[tag_index].epc;
        world_->advance(timing_.success_slot(reply_bits(epc, flags)));
        ++stats.success_slots;
        // Acknowledged tag inverts its inventoried flag for this session.
        flags.toggle_session_flag(query.session, world_->now(),
                                  flags_->timing());
        if (on_read) on_read(make_reading(tag_index));
        parts.erase(parts.begin() + static_cast<std::ptrdiff_t>(pi));
      }
    } else {
      // Capture effect: the receiver may still lock onto the strongest
      // (nearest) responder and read it as if the slot were singular.
      bool captured = false;
      if (config_.capture_probability > 0.0 &&
          rng_.chance(config_.capture_probability)) {
        std::size_t strongest = responders.front();
        double best_d = std::numeric_limits<double>::infinity();
        const util::SimTime t = world_->now();
        const std::vector<sim::SimTag>& tags = world_->tags();
        for (const std::size_t pi : responders) {
          const double d = util::distance(
              antennas_[antenna_idx_].position,
              tags[parts[pi].tag_index].motion->position(t));
          if (d < best_d) {
            best_d = d;
            strongest = pi;
          }
        }
        const std::size_t tag_index = parts[strongest].tag_index;
        TagFlags& flags = flags_->at(tag_index);
        const util::Epc& epc = tags[tag_index].epc;
        world_->advance(timing_.success_slot(reply_bits(epc, flags)));
        ++stats.success_slots;
        flags.toggle_session_flag(query.session, world_->now(),
                                  flags_->timing());
        if (on_read) on_read(make_reading(tag_index));
        // The captured tag leaves; the losers park as in a plain collision.
        for (const std::size_t pi : responders) {
          if (pi == strongest) continue;
          parts[pi].slot = kParkedSlot;
          parts[pi].parked = true;
        }
        parts.erase(parts.begin() + static_cast<std::ptrdiff_t>(strongest));
        captured = true;
      }
      if (!captured) {
        world_->advance(timing_.collision_slot());
        ++stats.collision_slots;
        for (const std::size_t pi : responders) {
          parts[pi].slot = kParkedSlot;
          parts[pi].parked = true;
        }
      }
      if (config_.policy == AntiCollisionPolicy::kQAdaptive) {
        qfp = std::min(15.0, qfp + config_.q_step);
      }
    }

    // QueryRep: every un-parked, un-read tag decrements its counter.
    for (auto& p : parts) {
      if (!p.parked && p.slot > 0) --p.slot;
    }

    // Q-adaptive mid-round adjustment: when round(Qfp) drifts from Q, the
    // reader issues QueryAdjust and all arbitrating tags (parked included)
    // re-draw from the new frame.
    if (config_.policy == AntiCollisionPolicy::kQAdaptive &&
        clamp_q(qfp) != q && !parts.empty()) {
      world_->advance(timing_.query_adjust());
      q = clamp_q(qfp);
      redraw_slots(parts, 1u << q);
    }
    // Ideal DFSA restarts the frame after every success so that f always
    // equals the remaining population (§2.2's optimal scheme).
    if (config_.policy == AntiCollisionPolicy::kIdealDfsa &&
        !responders.empty() && !parts.empty()) {
      const auto f = static_cast<std::uint32_t>(parts.size());
      world_->advance(timing_.query());
      redraw_slots(parts, std::max(f, 1u));
      slots_left_in_frame = std::max(f, 1u);
    }
  }

  // Population estimate for the next round (persist_q): frames sized to
  // the count just inventoried, the way COTS AutoSet modes carry state.
  if (config_.policy == AntiCollisionPolicy::kQAdaptive) {
    persisted_qfp_ =
        std::log2(static_cast<double>(std::max<std::size_t>(
            stats.success_slots, 1)));
  }

  stats.duration = world_->now() - round_start;
  return stats;
}

}  // namespace tagwatch::gen2::reference
