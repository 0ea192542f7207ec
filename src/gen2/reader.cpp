#include "gen2/reader.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>

#include "util/simd.hpp"

namespace tagwatch::gen2 {

namespace {

std::uint8_t clamp_q(double qfp) {
  return static_cast<std::uint8_t>(std::lround(std::clamp(qfp, 0.0, 15.0)));
}

/// The arbitrating participants of one ALOHA round and their slot
/// counters, indexed so that a slot costs O(1 + responders).
///
/// A Gen2 tag decrements its counter on every QueryRep and replies at
/// zero.  Rather than decrementing every counter each slot, a draw records
/// each participant's counter once and `pos_` counts the QueryReps since:
/// a participant replies in the slot where pos_ equals its counter.  A
/// collided tag that was not acknowledged wraps its counter and is silent
/// until the next Query/QueryAdjust ("parked"); here that needs no state,
/// because its counter is already behind pos_.
///
/// Only the counters in a short window [base_, base_ + kWindow) are
/// bucketed, sorted by (counter, participant index) — the responder order
/// the capture tie-break relies on.  Q-adaptive rounds redraw every few
/// slots, so the window is refilled only when a frame outlives it.  A read
/// tag is tombstoned and removed, in order, at the next draw; swap-removal
/// would reorder the next draw's counters.
class SlotFrame {
 public:
  static constexpr std::uint32_t kWindow = 32;

  explicit SlotFrame(std::vector<std::size_t> tags)
      : tags_(std::move(tags)), live_(tags_.size()) {}

  /// Participants not yet read.
  std::size_t live() const noexcept { return live_; }
  /// Participants not yet read whose slot is still ahead (not parked).
  std::size_t active() const noexcept { return active_; }
  /// World tag index of participant `part`.
  std::size_t tag(std::uint32_t part) const { return tags_[part]; }

  /// Draws a counter in [0, frame) for every unread participant, parked
  /// ones included, in participant order; opens the frame at slot 0.
  void draw(util::Rng& rng, std::uint32_t frame) {
    if (live_ != tags_.size()) {
      tags_.erase(std::remove(tags_.begin(), tags_.end(), kRead),
                  tags_.end());
    }
    counter_.resize(tags_.size());
    rng.below_n(counter_.data(), counter_.size(), frame);
    pos_ = 0;
    active_ = live_;
    fill_window();
  }

  /// The participants replying in the current slot, ascending.
  std::span<const std::uint32_t> responders() {
    if (pos_ - base_ >= kWindow) fill_window();
    const std::uint32_t b = pos_ - base_;
    return {window_.data() + start_[b], window_.data() + start_[b + 1]};
  }

  /// Acknowledges participant `part`: it leaves the round.
  void mark_read(std::uint32_t part) {
    tags_[part] = kRead;
    --live_;
  }

  /// QueryRep: closes the current slot, whose `responders` were each
  /// either read or parked.
  void next_slot(std::size_t responders) {
    active_ -= responders;
    ++pos_;
  }

 private:
  static constexpr std::size_t kRead = std::numeric_limits<std::size_t>::max();

  /// Buckets the counters in [pos_, pos_ + kWindow).  Read and parked
  /// participants have counters behind pos_ and drop out by themselves.
  void fill_window() {
    base_ = pos_;
    hits_.resize(counter_.size());
    hits_.resize(util::simd::window_indices_u32(
        counter_.data(), counter_.size(), base_, kWindow, hits_.data()));
    // Stable counting sort of the hits by counter.
    start_.fill(0);
    for (const std::uint32_t i : hits_) ++start_[counter_[i] - base_ + 1];
    for (std::uint32_t b = 0; b < kWindow; ++b) start_[b + 1] += start_[b];
    std::array<std::uint32_t, kWindow> cursor{};
    std::copy(start_.begin(), start_.end() - 1, cursor.begin());
    window_.resize(hits_.size());
    for (const std::uint32_t i : hits_) {
      window_[cursor[counter_[i] - base_]++] = i;
    }
  }

  std::vector<std::size_t> tags_;       ///< World tag index, or kRead.
  std::vector<std::uint32_t> counter_;  ///< Slot drawn at the last draw.
  std::size_t live_;
  std::size_t active_ = 0;
  std::uint32_t pos_ = 0;   ///< QueryReps since the last draw.
  std::uint32_t base_ = 0;  ///< First frame position the window covers.
  std::vector<std::uint32_t> hits_;    ///< fill_window() workspace.
  std::vector<std::uint32_t> window_;  ///< Participants by (counter, index).
  std::array<std::uint32_t, kWindow + 1> start_{};  ///< Bucket offsets.
};

}  // namespace

Gen2Reader::Gen2Reader(LinkTiming timing, ReaderConfig config,
                       sim::World& world, const rf::RfChannel& channel,
                       std::vector<rf::Antenna> antennas, util::Rng rng,
                       std::shared_ptr<TagFlagField> flags)
    : timing_(std::move(timing)), config_(config), world_(&world),
      channel_(&channel), antennas_(std::move(antennas)), rng_(rng),
      flags_(std::move(flags)) {
  if (antennas_.empty()) {
    throw std::invalid_argument("Gen2Reader: need at least one antenna");
  }
  if (config_.q_step <= 0.0) {
    throw std::invalid_argument("Gen2Reader: q_step must be positive");
  }
  if (!flags_) {
    flags_ = std::make_shared<TagFlagField>(config_.session_timing);
  }
  next_hop_ = world_->now() + config_.channel_dwell;
}

bool Gen2Reader::in_field(const sim::SimTag& tag, util::SimTime t) const {
  if (!sim::World::is_present(tag, t)) return false;
  if (!config_.coverage) return true;
  return config_.coverage->contains(tag.motion->position(t));
}

void Gen2Reader::transmit_select(const SelectCommand& cmd) {
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

const TagFlags* Gen2Reader::find_flags(const util::Epc& epc) {
  return flags_->find(*world_, epc);
}

void Gen2Reader::set_active_antenna(std::size_t index) {
  if (index >= antennas_.size()) {
    throw std::out_of_range("Gen2Reader::set_active_antenna");
  }
  antenna_idx_ = index;
}

std::vector<std::size_t> Gen2Reader::gather_participants(
    const QueryCommand& query) {
  flags_->sync(*world_);
  std::vector<std::size_t> parts;
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
    parts.push_back(i);
  }
  return parts;
}

void Gen2Reader::hop_if_due() {
  while (world_->now() >= next_hop_) {
    ++hop_counter_;
    channel_idx_ = channel_->plan().hop_channel(hop_counter_);
    next_hop_ += config_.channel_dwell;
  }
}

std::size_t Gen2Reader::reply_bits(const util::Epc& epc,
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

rf::TagReading Gen2Reader::make_reading(std::size_t tag_index) {
  const sim::SimTag& tag = world_->tags()[tag_index];
  const util::SimTime t = world_->now();
  const rf::RfObservation obs = channel_->observe(
      antennas_[antenna_idx_], tag.motion->position(t), tag.tag_phase_rad,
      world_->reflectors_at(t), channel_idx_, rng_);
  return rf::TagReading{tag.epc, antennas_[antenna_idx_].id, channel_idx_,
                        obs.phase_rad, obs.rssi_dbm, t};
}

void Gen2Reader::acknowledge(std::size_t tag_index, const QueryCommand& query,
                             const ReadCallback& on_read,
                             RoundStats& stats) {
  TagFlags& flags = flags_->at(tag_index);
  const util::Epc& epc = world_->tags()[tag_index].epc;
  world_->advance(timing_.success_slot(reply_bits(epc, flags)));
  ++stats.success_slots;
  // Acknowledged tag inverts its inventoried flag for this session.
  flags.toggle_session_flag(query.session, world_->now(), flags_->timing());
  if (on_read) on_read(make_reading(tag_index));
}

void Gen2Reader::run_binary_tree(const QueryCommand& query,
                                 std::vector<std::size_t> parts,
                                 const ReadCallback& on_read,
                                 RoundStats& stats) {
  // Capetanakis-style tree splitting: the whole population answers the
  // first slot; every collision splits the colliding set uniformly at
  // random into two subsets resolved depth-first.  Slot air times are the
  // same as for ALOHA (probe + reply windows).
  std::vector<std::vector<std::size_t>> stack;  // groups of tag indexes
  stack.push_back(std::move(parts));
  while (!stack.empty() && stats.slots < config_.max_slots_per_round) {
    std::vector<std::size_t> group = std::move(stack.back());
    stack.pop_back();
    ++stats.slots;
    hop_if_due();
    if (group.empty()) {
      world_->advance(timing_.empty_slot());
      ++stats.empty_slots;
      continue;
    }
    if (group.size() == 1) {
      const bool lost = config_.slot_error_rate > 0.0 &&
                        rng_.chance(config_.slot_error_rate);
      if (lost) {
        // Decode failure: the reader re-probes the same singleton set.
        world_->advance(timing_.collision_slot());
        ++stats.lost_slots;
        stack.push_back(std::move(group));
        continue;
      }
      acknowledge(group.front(), query, on_read, stats);
      continue;
    }
    world_->advance(timing_.collision_slot());
    ++stats.collision_slots;
    std::vector<std::size_t> left, right;
    for (const std::size_t idx : group) {
      (rng_.chance(0.5) ? left : right).push_back(idx);
    }
    stack.push_back(std::move(right));
    stack.push_back(std::move(left));
  }
}

RoundStats Gen2Reader::run_inventory_round(const QueryCommand& query,
                                           const ReadCallback& on_read) {
  RoundStats stats;
  const util::SimTime round_start = world_->now();
  hop_if_due();

  // τ0: carrier ramp, settling, host turnaround — then the opening Query.
  world_->advance(config_.round_overhead);
  world_->advance(timing_.query());

  std::vector<std::size_t> parts = gather_participants(query);

  if (config_.policy == AntiCollisionPolicy::kBinaryTree) {
    run_binary_tree(query, std::move(parts), on_read, stats);
    stats.duration = world_->now() - round_start;
    return stats;
  }

  double qfp = (config_.persist_q && persisted_qfp_)
                   ? *persisted_qfp_
                   : static_cast<double>(query.q);
  std::uint8_t q = clamp_q(qfp);
  SlotFrame frame(std::move(parts));
  // Oracle DFSA: frame length equals the number of competing tags.
  const auto dfsa_frame = [&frame] {
    return static_cast<std::uint32_t>(std::max<std::size_t>(frame.live(), 1));
  };
  std::size_t slots_left_in_frame;
  if (config_.policy == AntiCollisionPolicy::kIdealDfsa) {
    slots_left_in_frame = dfsa_frame();
    frame.draw(rng_, dfsa_frame());
  } else {
    slots_left_in_frame = std::size_t{1} << q;
    frame.draw(rng_, 1u << q);
  }

  while (stats.slots < config_.max_slots_per_round) {
    // Round termination.
    if (frame.live() == 0) {
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
    if (frame.active() == 0 || slots_left_in_frame == 0) {
      switch (config_.policy) {
        case AntiCollisionPolicy::kFixedQ:
          world_->advance(timing_.query());
          frame.draw(rng_, 1u << q);
          slots_left_in_frame = 1u << q;
          break;
        case AntiCollisionPolicy::kIdealDfsa:
          world_->advance(timing_.query());
          frame.draw(rng_, dfsa_frame());
          slots_left_in_frame = dfsa_frame();
          break;
        case AntiCollisionPolicy::kQAdaptive:
          world_->advance(timing_.query_adjust());
          q = clamp_q(qfp);
          frame.draw(rng_, 1u << q);
          slots_left_in_frame = config_.max_slots_per_round;  // no frame bound
          break;
        case AntiCollisionPolicy::kBinaryTree:
          break;  // handled by run_binary_tree; unreachable here
      }
      continue;
    }

    hop_if_due();

    const std::span<const std::uint32_t> responders = frame.responders();
    const std::size_t n_responders = responders.size();

    ++stats.slots;
    --slots_left_in_frame;

    if (n_responders == 0) {
      world_->advance(timing_.empty_slot());
      ++stats.empty_slots;
      if (config_.policy == AntiCollisionPolicy::kQAdaptive) {
        qfp = std::max(0.0, qfp - config_.q_step);
      }
    } else if (n_responders == 1) {
      const bool lost = config_.slot_error_rate > 0.0 &&
                        rng_.chance(config_.slot_error_rate);
      if (lost) {
        // RN16/EPC decode failure: costs a collision-like slot; the tag saw
        // no valid ACK, so it parks like a collided tag.
        world_->advance(timing_.collision_slot());
        ++stats.lost_slots;
      } else {
        acknowledge(frame.tag(responders.front()), query, on_read, stats);
        frame.mark_read(responders.front());
      }
    } else {
      // Capture effect: the receiver may still lock onto the strongest
      // (nearest) responder and read it as if the slot were singular; the
      // losers park as in a plain collision.
      if (config_.capture_probability > 0.0 &&
          rng_.chance(config_.capture_probability)) {
        std::uint32_t strongest = responders.front();
        double best_d = std::numeric_limits<double>::infinity();
        const util::SimTime t = world_->now();
        const std::vector<sim::SimTag>& tags = world_->tags();
        for (const std::uint32_t pi : responders) {
          const double d =
              util::distance(antennas_[antenna_idx_].position,
                             tags[frame.tag(pi)].motion->position(t));
          if (d < best_d) {
            best_d = d;
            strongest = pi;
          }
        }
        acknowledge(frame.tag(strongest), query, on_read, stats);
        frame.mark_read(strongest);
      } else {
        world_->advance(timing_.collision_slot());
        ++stats.collision_slots;
      }
      if (config_.policy == AntiCollisionPolicy::kQAdaptive) {
        qfp = std::min(15.0, qfp + config_.q_step);
      }
    }

    // QueryRep: every un-parked, un-read tag decrements its counter.
    frame.next_slot(n_responders);

    // Q-adaptive mid-round adjustment: when round(Qfp) drifts from Q, the
    // reader issues QueryAdjust and all arbitrating tags (parked included)
    // re-draw from the new frame.
    if (config_.policy == AntiCollisionPolicy::kQAdaptive &&
        clamp_q(qfp) != q && frame.live() > 0) {
      world_->advance(timing_.query_adjust());
      q = clamp_q(qfp);
      frame.draw(rng_, 1u << q);
    }
    // Ideal DFSA restarts the frame after every success so that f always
    // equals the remaining population (§2.2's optimal scheme).
    if (config_.policy == AntiCollisionPolicy::kIdealDfsa &&
        n_responders > 0 && frame.live() > 0) {
      world_->advance(timing_.query());
      frame.draw(rng_, dfsa_frame());
      slots_left_in_frame = dfsa_frame();
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

}  // namespace tagwatch::gen2
