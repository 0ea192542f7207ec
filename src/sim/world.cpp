#include "sim/world.hpp"

#include <stdexcept>

namespace tagwatch::sim {

std::size_t World::add_tag(SimTag tag) {
  if (!tag.motion) throw std::invalid_argument("World::add_tag: null motion");
  if (index_.contains(tag.epc)) {
    throw std::invalid_argument("World::add_tag: duplicate EPC " +
                                tag.epc.to_hex());
  }
  const std::size_t idx = tags_.size();
  index_.emplace(tag.epc, idx);
  tags_.push_back(std::move(tag));
  return idx;
}

void World::add_reflector(SimReflector reflector) {
  if (!reflector.motion) {
    throw std::invalid_argument("World::add_reflector: null motion");
  }
  reflectors_.push_back(std::move(reflector));
}

std::size_t World::add_zone(Zone zone) {
  if (zone.radius_m <= 0.0) {
    throw std::invalid_argument("World::add_zone: non-positive radius");
  }
  for (const Zone& z : zones_) {
    if (z.name == zone.name) {
      throw std::invalid_argument("World::add_zone: duplicate zone " +
                                  zone.name);
    }
  }
  zones_.push_back(std::move(zone));
  return zones_.size() - 1;
}

const Zone* World::find_zone(std::string_view name) const {
  for (const Zone& z : zones_) {
    if (z.name == name) return &z;
  }
  return nullptr;
}

bool World::remove_tag(const util::Epc& epc) {
  const auto it = index_.find(epc);
  if (it == index_.end()) return false;
  const std::size_t idx = it->second;
  index_.erase(it);
  departures_.push_back({epc, now_});
  tags_.erase(tags_.begin() + static_cast<std::ptrdiff_t>(idx));
  // Reindex the tail.
  for (std::size_t i = idx; i < tags_.size(); ++i) {
    index_[tags_[i].epc] = i;
  }
  return true;
}

std::optional<std::size_t> World::find_tag(const util::Epc& epc) const {
  const auto it = index_.find(epc);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

bool World::tag_present(std::size_t i, util::SimTime t) const {
  return is_present(tags_.at(i), t);
}

std::vector<rf::Reflector> World::reflectors_at(util::SimTime t) const {
  std::vector<rf::Reflector> out;
  out.reserve(reflectors_.size());
  for (const auto& r : reflectors_) {
    out.push_back({r.motion->position(t), r.reflection_coefficient});
  }
  return out;
}

void World::advance(util::SimDuration dt) {
  if (dt < util::SimDuration::zero()) {
    throw std::invalid_argument("World::advance: negative dt");
  }
  now_ += dt;
}

void World::advance_to(util::SimTime t) {
  if (t > now_) now_ = t;
}

}  // namespace tagwatch::sim
