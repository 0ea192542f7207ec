// Gen2 slot engine: one Q-adaptive inventory round (the COTS default
// policy, Q = 4) over 500, 2k, 8k and 32k static tags, timed for the
// production Gen2Reader and for the reference O(n)-per-slot loop
// (tests/gen2_reference.hpp) on twin worlds.
//
// Recorded per population N:
//   * ns_per_slot_at_N — production host time per slot (best of 5 rounds).
//   * ref_ns_per_slot_at_N — the reference loop's, one round.
//   * speedup_at_N — their ratio, from the same run.
//   * draws_per_slot_at_N — slot-counter draws per slot (the QueryAdjust
//     redraw load that bounds the production engine).
//   * slots_at_N — slots in the round.
//
// In-bench oracle: the two engines must agree on RoundStats, every
// reading (EPC, antenna, channel, phase, RSSI, time), the clock, and the
// next random output; any divergence FAILS the run (exit 2).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_report.hpp"
#include "gen2/reader.hpp"
#include "gen2_reference.hpp"
#include "util/circular.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

using namespace tagwatch;

namespace {

constexpr std::uint64_t kReaderSeed = 0x6e2;
constexpr int kReps = 5;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// N static tags scattered over a 6 m x 6 m floor under one antenna.
struct Scene {
  sim::World world;
  rf::RfChannel channel{rf::ChannelPlan::china_920_926()};
  std::vector<rf::Antenna> antennas{{1, {0, 0, 2}, 8.0}};

  explicit Scene(std::size_t n) {
    util::Rng rng(0x5ce7e + n);
    for (std::size_t i = 0; i < n; ++i) {
      sim::SimTag t;
      t.epc = util::Epc::from_serial(i + 1);
      t.motion = std::make_shared<sim::StaticMotion>(
          util::Vec3{rng.uniform(-3, 3), rng.uniform(-3, 3), 0});
      t.tag_phase_rad = rng.uniform(0.0, util::kTwoPi);
      world.add_tag(std::move(t));
    }
  }
};

struct RoundResult {
  gen2::RoundStats stats;
  std::vector<rf::TagReading> readings;
  util::SimTime end{0};
  std::uint64_t next_output = 0;
  double seconds = 0.0;
  std::uint64_t slot_draws = 0;
};

template <typename Reader>
RoundResult run_round(Reader& reader, Scene& scene) {
  RoundResult r;
  r.readings.reserve(scene.world.tags().size());
  const double t0 = now_seconds();
  r.stats = reader.run_inventory_round(
      gen2::QueryCommand{},
      [&r](const rf::TagReading& reading) { r.readings.push_back(reading); });
  r.seconds = now_seconds() - t0;
  r.end = scene.world.now();
  util::Rng rest = reader.rng();
  r.next_output = rest.engine()();
  return r;
}

RoundResult production_round(std::size_t n) {
  Scene scene(n);
  gen2::Gen2Reader reader(gen2::LinkTiming(gen2::LinkParams::max_throughput()),
                          gen2::ReaderConfig{}, scene.world, scene.channel,
                          scene.antennas, util::Rng(kReaderSeed));
  return run_round(reader, scene);
}

RoundResult reference_round(std::size_t n) {
  Scene scene(n);
  gen2::reference::ReferenceReader reader(
      gen2::LinkTiming(gen2::LinkParams::max_throughput()),
      gen2::ReaderConfig{}, scene.world, scene.channel, scene.antennas,
      util::Rng(kReaderSeed));
  RoundResult r = run_round(reader, scene);
  r.slot_draws = reader.slot_draws();
  return r;
}

bool identical(const RoundResult& a, const RoundResult& b) {
  const gen2::RoundStats& x = a.stats;
  const gen2::RoundStats& y = b.stats;
  if (x.slots != y.slots || x.empty_slots != y.empty_slots ||
      x.collision_slots != y.collision_slots ||
      x.success_slots != y.success_slots || x.lost_slots != y.lost_slots ||
      x.duration != y.duration || a.end != b.end ||
      a.next_output != b.next_output ||
      a.readings.size() != b.readings.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.readings.size(); ++i) {
    const rf::TagReading& p = a.readings[i];
    const rf::TagReading& q = b.readings[i];
    if (p.epc != q.epc || p.antenna != q.antenna || p.channel != q.channel ||
        p.phase_rad != q.phase_rad || p.rssi_dbm != q.rssi_dbm ||
        p.timestamp != q.timestamp) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  bench::BenchReport report("gen2_round", kReaderSeed);
  std::printf("gen2 round bench (ISA: %s)\n",
              util::simd::isa_name(util::simd::active_isa()));
  std::printf("  %6s %8s %12s %12s %9s %13s\n", "tags", "slots", "ns/slot",
              "ref ns/slot", "speedup", "draws/slot");
  for (const std::size_t n : {std::size_t{500}, std::size_t{2000},
                              std::size_t{8000}, std::size_t{32000}}) {
    RoundResult best = production_round(n);
    for (int rep = 1; rep < kReps; ++rep) {
      RoundResult r = production_round(n);
      if (r.seconds < best.seconds) best = std::move(r);
    }
    const RoundResult ref = reference_round(n);
    if (!identical(best, ref)) {
      std::fprintf(stderr,
                   "FAIL: production and reference rounds diverge at %zu "
                   "tags\n",
                   n);
      return 2;
    }
    const double slots = static_cast<double>(best.stats.slots);
    const double ns = best.seconds * 1e9 / slots;
    const double ref_ns = ref.seconds * 1e9 / slots;
    const double draws = static_cast<double>(ref.slot_draws) / slots;
    std::printf("  %6zu %8zu %12.1f %12.1f %8.1fx %13.2f\n", n,
                best.stats.slots, ns, ref_ns, ref_ns / ns, draws);
    const std::string at = "_at_" + std::to_string(n);
    report.add("ns_per_slot" + at, ns, "ns");
    report.add("ref_ns_per_slot" + at, ref_ns, "ns");
    report.add("speedup" + at, ref_ns / ns, "ratio");
    report.add("draws_per_slot" + at, draws, "count");
    report.add("slots" + at, slots, "count");
  }
  report.add("rounds_identical", 1.0, "bool");
  std::printf("  rounds oracle-identical; wrote %s\n", report.write().c_str());
  return 0;
}
