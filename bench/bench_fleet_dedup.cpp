// Fleet dedup harness: cross-reader duplicate suppression on a warehouse
// strip of four overlapping reader zones.
//
// Four readers tile the strip at 4 m pitch with 3 m radii, so adjacent
// zones share a 2 m seam; statics sit at zone centers and on every seam,
// and movers orbit across several zones.  Each fleet cycle every reader
// re-inventories its zone (independent policy), so every seam tag is
// sighted by two readers per cycle — the raw stream double-counts it, and
// the dedup window decides how much of that the application sees.
//
// Expected shape: cross_reader_dup_ratio is 0 with the window off, rises
// with the window until it covers a whole fleet cycle, then saturates at
// the seam population's share of the raw stream.  Handoffs appear once
// suppression stops pinning seam tags to their first owner.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "core/fleet.hpp"
#include "llrp/sim_reader_client.hpp"
#include "util/circular.hpp"

using namespace tagwatch;

namespace {

constexpr std::size_t kReaders = 4;
constexpr std::size_t kTagsPerZone = 12;
constexpr std::size_t kSeamTags = 4;  // per seam (3 seams)
constexpr std::size_t kMovers = 3;
constexpr std::size_t kCycles = 6;

struct Strip {
  sim::World world;
  rf::RfChannel channel{rf::ChannelPlan::single(920.625e6)};
  std::shared_ptr<gen2::TagFlagField> field;
  std::vector<std::unique_ptr<llrp::SimReaderClient>> clients;
  std::vector<core::FleetReaderSpec> specs;

  explicit Strip(std::uint64_t seed) {
    util::Rng rng(seed);
    field = std::make_shared<gen2::TagFlagField>(
        gen2::SessionTiming::spec_default());
    std::size_t serial = 1;
    for (std::size_t r = 0; r < kReaders; ++r) {
      const double cx = static_cast<double>(r) * 4.0;
      sim::Zone zone{"zone-" + std::to_string(r), {cx, 0, 0}, 3.0};
      for (std::size_t i = 0; i < kTagsPerZone; ++i) {
        add_static(serial++, {cx + rng.uniform(-0.5, 0.5),
                              rng.uniform(-0.5, 0.5), 0});
      }
      if (r + 1 < kReaders) {
        for (std::size_t i = 0; i < kSeamTags; ++i) {
          add_static(serial++, {cx + 2.0, rng.uniform(-0.3, 0.3), 0});
        }
      }
      gen2::ReaderConfig rc;
      rc.coverage = zone;
      clients.push_back(std::make_unique<llrp::SimReaderClient>(
          gen2::LinkTiming(gen2::LinkParams::max_throughput()), rc, world,
          channel, std::vector<rf::Antenna>{{1, {cx, 0, 2}, 8.0}},
          seed + 10 + r, field));
      specs.push_back({clients.back().get(), zone});
    }
    for (std::size_t i = 0; i < kMovers; ++i) {
      sim::SimTag t;
      t.epc = util::Epc::from_serial(serial++);
      t.motion = std::make_shared<sim::CircularTrack>(
          util::Vec3{6, 0, 0}, 2.5, 1.2, static_cast<double>(i) * 2.0);
      t.tag_phase_rad = rng.uniform(0.0, util::kTwoPi);
      world.add_tag(std::move(t));
    }
  }

  void add_static(std::size_t serial, util::Vec3 pos) {
    sim::SimTag t;
    t.epc = util::Epc::from_serial(serial);
    t.motion = std::make_shared<sim::StaticMotion>(pos);
    t.tag_phase_rad = 0.1 * static_cast<double>(serial);
    world.add_tag(std::move(t));
  }
};

struct Point {
  double window_ms = 0.0;
  double dup_ratio = 0.0;
  std::size_t readings = 0;
  std::size_t delivered = 0;
  std::size_t handoffs = 0;
};

Point run_window(util::SimDuration window, std::uint64_t seed) {
  Strip strip(seed);
  core::FleetConfig cfg;
  cfg.controller.phase2_duration = util::msec(200);
  // Host compute time must not leak onto the simulated timeline: every
  // sweep point then sees the identical raw reading stream, and only the
  // window moves the delivered/duplicate split.
  cfg.controller.charge_compute_time = false;
  cfg.policy = core::SessionPolicy::kIndependent;
  cfg.dedup_window = window;
  core::FleetController fleet(cfg, strip.specs);

  Point p;
  p.window_ms = util::to_millis(window);
  for (const core::FleetCycleReport& r : fleet.run_cycles(kCycles)) {
    p.readings += r.readings_total;
    p.delivered += r.delivered_total;
    p.handoffs += r.handoffs.size();
  }
  p.dup_ratio = p.readings == 0
                    ? 0.0
                    : static_cast<double>(p.readings - p.delivered) /
                          static_cast<double>(p.readings);
  return p;
}

}  // namespace

int main() {
  constexpr std::uint64_t kSeed = 7117;
  const std::vector<util::SimDuration> windows{
      util::SimDuration::zero(), util::msec(100), util::msec(500),
      util::sec(2), util::sec(10)};

  std::printf("fleet dedup — cross-reader duplicate suppression vs window\n"
              "(%zu readers at 4 m pitch / 3 m radius, %zu statics per zone, "
              "%zu per seam, %zu movers, %zu cycles)\n\n",
              kReaders, kTagsPerZone, kSeamTags, kMovers, kCycles);
  std::printf("%10s  %9s  %10s  %10s  %9s\n", "window ms", "dup %",
              "readings", "delivered", "handoffs");

  bench::BenchReport report("fleet_dedup", kSeed);
  std::vector<Point> points;
  for (const util::SimDuration w : windows) {
    const Point p = run_window(w, kSeed);
    points.push_back(p);
    std::printf("%10.0f  %8.2f%%  %10zu  %10zu  %9zu\n", p.window_ms,
                p.dup_ratio * 100.0, p.readings, p.delivered, p.handoffs);
    const std::string at = "_at_" + std::to_string(static_cast<long long>(
                               p.window_ms)) + "ms";
    report.add("cross_reader_dup_ratio" + at, p.dup_ratio, "ratio");
    report.add("handoffs" + at, static_cast<double>(p.handoffs), "count");
  }

  // Headline: the default 500 ms window's suppression ratio, plus the
  // monotone sanity that a wider window never suppresses less.
  report.add("cross_reader_dup_ratio", points[2].dup_ratio, "ratio");
  bool monotone = true;
  for (std::size_t i = 1; i < points.size(); ++i) {
    if (points[i].dup_ratio + 1e-12 < points[i - 1].dup_ratio) {
      monotone = false;
    }
  }
  report.add("dup_ratio_monotone_in_window", monotone ? 1.0 : 0.0, "bool");

  std::printf("\nexpected: 0%% with the window off, saturating near the seam "
              "share as the window covers a fleet cycle; handoffs collapse "
              "once suppression pins seam owners.\n");
  std::printf("wrote %s\n", report.write().c_str());
  return 0;
}
