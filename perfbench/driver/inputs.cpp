#include "inputs.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw std::runtime_error("inputs line " + std::to_string(line) + ": " +
                           what);
}

tagwatch::util::Vec3 read_vec(std::istringstream& in) {
  tagwatch::util::Vec3 v;
  in >> v.x >> v.y >> v.z;
  return v;
}

tagwatch::util::Epc read_epc(std::istringstream& in) {
  std::string hex;
  in >> hex;
  return tagwatch::util::Epc::from_hex(hex);
}

}  // namespace

Inputs load_inputs(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot open inputs file " + path);
  Inputs inputs;
  bool ended = false;
  std::string text;
  std::size_t line = 0;
  while (std::getline(file, text)) {
    ++line;
    if (text.empty() || text[0] == '#') continue;
    if (ended) fail(line, "content after 'end'");
    std::istringstream in(text);
    std::string key;
    in >> key;
    try {
      if (key == "workload") {
        in >> inputs.workload;
      } else if (key == "fleet") {
        int v = 0;
        in >> v;
        inputs.fleet = v != 0;
      } else if (key == "timed_from") {
        std::string from;
        in >> from;
        if (from != "selective" && from != "first") fail(line, from);
        inputs.timed_from_selective = from == "selective";
      } else if (key == "timed_cycles") {
        in >> inputs.timed_cycles;
      } else if (key == "repetitions") {
        in >> inputs.repetitions;
      } else if (key == "max_warmup_cycles") {
        in >> inputs.max_warmup_cycles;
      } else if (key == "reader_seed") {
        in >> inputs.reader_seed;
      } else if (key == "antenna") {
        AntennaSpec a;
        unsigned id = 0;
        in >> id;
        if (id == 0 || id > 255) fail(line, "antenna id out of range");
        a.id = static_cast<std::uint8_t>(id);
        a.pos = read_vec(in);
        in >> a.gain_dbi;
        inputs.antennas.push_back(a);
      } else if (key == "reader") {
        ReaderSpec r;
        in >> r.zone >> r.center.x >> r.center.y >> r.radius_m;
        r.antenna = read_vec(in);
        in >> r.gain_dbi >> r.seed;
        inputs.readers.push_back(std::move(r));
      } else if (key == "static") {
        TagSpec t;
        t.epc = read_epc(in);
        t.pos = read_vec(in);
        in >> t.tag_phase_rad;
        inputs.tags.push_back(std::move(t));
      } else if (key == "turntable") {
        TagSpec t;
        t.mover = true;
        t.epc = read_epc(in);
        t.pos = read_vec(in);
        in >> t.radius_m >> t.speed_mps >> t.phase0_rad >> t.tag_phase_rad;
        inputs.tags.push_back(std::move(t));
      } else if (key == "parcel") {
        ParcelSpec p;
        p.epc = read_epc(in);
        in >> p.start_s;
        p.origin = read_vec(in);
        p.velocity = read_vec(in);
        in >> p.travel_m >> p.tag_phase_rad;
        if (!inputs.parcels.empty() &&
            p.start_s < inputs.parcels.back().start_s) {
          fail(line, "parcels out of arrival order");
        }
        inputs.parcels.push_back(std::move(p));
      } else if (key == "end") {
        ended = true;
      } else {
        fail(line, "unknown key '" + key + "'");
      }
    } catch (const std::invalid_argument& e) {
      fail(line, e.what());
    }
    if (in.fail()) fail(line, "malformed '" + key + "' record");
  }
  if (!ended) throw std::runtime_error("inputs file truncated (no 'end')");
  if (inputs.timed_cycles == 0) {
    throw std::runtime_error("inputs: timed_cycles must be positive");
  }
  if (inputs.repetitions < 2) {
    throw std::runtime_error("inputs: repetitions must be at least 2");
  }
  if (inputs.fleet ? inputs.readers.empty() : inputs.antennas.empty()) {
    throw std::runtime_error("inputs: no readers/antennas");
  }
  return inputs;
}

}  // namespace perfbench
