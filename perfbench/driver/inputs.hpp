// Workload inputs as written by perfbench/gen_inputs.py.
//
// The driver never draws a random scene itself: every tag, antenna,
// reader zone and conveyor parcel comes from the generated file, so the
// same seed gives the same inputs and the program under test only sees
// their result.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/epc.hpp"
#include "util/geometry.hpp"

namespace perfbench {

/// A tag present from the start of the run.
struct TagSpec {
  tagwatch::util::Epc epc;
  bool mover = false;           ///< On the turntable (ground-truth mover).
  tagwatch::util::Vec3 pos;     ///< Static position, or turntable center.
  double radius_m = 0.0;        ///< Turntable radius (movers).
  double speed_mps = 0.0;       ///< Tangential speed (movers).
  double phase0_rad = 0.0;      ///< Starting angle (movers).
  double tag_phase_rad = 0.0;   ///< Intrinsic backscatter phase offset.
};

/// One reader of a fleet: its zone and its single overhead antenna.
struct ReaderSpec {
  std::string zone;
  tagwatch::util::Vec3 center;
  double radius_m = 0.0;
  tagwatch::util::Vec3 antenna;
  double gain_dbi = 8.0;
  std::uint64_t seed = 0;
};

/// A parcel riding the conveyor: present on [start_s, start_s + travel /
/// speed), added to the world ahead of arrival and removed after departure.
struct ParcelSpec {
  tagwatch::util::Epc epc;
  double start_s = 0.0;
  tagwatch::util::Vec3 origin;
  tagwatch::util::Vec3 velocity;
  double travel_m = 0.0;
  double tag_phase_rad = 0.0;
};

struct AntennaSpec {
  std::uint8_t id = 1;
  tagwatch::util::Vec3 pos;
  double gain_dbi = 8.0;
};

struct Inputs {
  std::string workload;
  bool fleet = false;
  /// Timing starts at the first cycle with a selective Phase II (the
  /// read-all warm-up counts as set-up) instead of at the first cycle.
  bool timed_from_selective = false;
  std::size_t timed_cycles = 0;
  /// Fewest repetitions an untraced run makes.
  std::size_t repetitions = 0;
  std::size_t max_warmup_cycles = 0;
  std::uint64_t reader_seed = 0;
  std::vector<AntennaSpec> antennas;  ///< Single-reader workloads.
  std::vector<ReaderSpec> readers;    ///< Fleet workloads.
  std::vector<TagSpec> tags;
  std::vector<ParcelSpec> parcels;    ///< Sorted by start_s.
};

/// Parses the generator's text format; throws std::runtime_error with the
/// offending line number on anything malformed.
Inputs load_inputs(const std::string& path);

}  // namespace perfbench
