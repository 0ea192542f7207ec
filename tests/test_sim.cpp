// Tests for motion models and the world container.
#include <gtest/gtest.h>

#include <cmath>

#include "sim/motion.hpp"
#include "sim/world.hpp"
#include "util/circular.hpp"

namespace tagwatch::sim {
namespace {

using util::Vec3;
using util::msec;
using util::sec;
using util::SimTime;

TEST(StaticMotion, NeverMoves) {
  StaticMotion m({1.0, 2.0, 3.0});
  EXPECT_EQ(m.position(SimTime{0}), (Vec3{1.0, 2.0, 3.0}));
  EXPECT_EQ(m.position(SimTime{0} + sec(100)), (Vec3{1.0, 2.0, 3.0}));
  EXPECT_FALSE(m.is_mobile());
  EXPECT_FALSE(m.moved_between(SimTime{0}, SimTime{0} + sec(10)));
}

TEST(CircularTrack, PaperTrainParameters) {
  // §7.1: toy train, r = 20 cm, 0.7 m/s.
  CircularTrack train({0, 0, 0}, 0.2, 0.7);
  EXPECT_TRUE(train.is_mobile());
  // Always on the circle.
  for (int ms = 0; ms <= 5000; ms += 250) {
    const Vec3 p = train.position(SimTime{0} + msec(ms));
    EXPECT_NEAR(std::hypot(p.x, p.y), 0.2, 1e-9);
  }
  // Period = 2πr/v ≈ 1.795 s: position repeats.
  const double period_s = util::kTwoPi * 0.2 / 0.7;
  const Vec3 a = train.position(SimTime{0});
  const Vec3 b = train.position(util::from_seconds(period_s));
  EXPECT_NEAR(util::distance(a, b), 0.0, 1e-4);
}

TEST(CircularTrack, SpeedMatchesArcLength) {
  CircularTrack track({0, 0, 0}, 0.5, 1.0);
  const Vec3 p0 = track.position(SimTime{0});
  const Vec3 p1 = track.position(msec(10));
  EXPECT_NEAR(util::distance(p0, p1) / 0.01, 1.0, 0.01);  // ~1 m/s chord speed
}

TEST(CircularTrack, ZeroSpeedIsStationaryTurntable) {
  CircularTrack stopped({0, 0, 0}, 0.3, 0.0, 1.0);
  EXPECT_FALSE(stopped.is_mobile());
  EXPECT_EQ(stopped.position(SimTime{0}), stopped.position(sec(9)));
}

TEST(CircularTrack, RejectsBadRadius) {
  EXPECT_THROW(CircularTrack({0, 0, 0}, 0.0, 1.0), std::invalid_argument);
}

TEST(LinearConveyor, TransitsAndStops) {
  LinearConveyor belt({0, 0, 0}, {1.0, 0, 0}, sec(10), 4.0);
  EXPECT_EQ(belt.position(sec(5)), (Vec3{0, 0, 0}));       // before start
  EXPECT_EQ(belt.position(sec(12)), (Vec3{2.0, 0, 0}));    // mid-transit
  EXPECT_EQ(belt.position(sec(14)), (Vec3{4.0, 0, 0}));    // arrival
  EXPECT_EQ(belt.position(sec(100)), (Vec3{4.0, 0, 0}));   // parked after
  EXPECT_EQ(belt.end_time(), sec(14));
  EXPECT_TRUE(belt.is_mobile());
}

TEST(LinearConveyor, RejectsDegenerate) {
  EXPECT_THROW(LinearConveyor({0, 0, 0}, {0, 0, 0}, SimTime{0}, 1.0),
               std::invalid_argument);
  EXPECT_THROW(LinearConveyor({0, 0, 0}, {1, 0, 0}, SimTime{0}, 0.0),
               std::invalid_argument);
}

TEST(RandomWaypoint, StaysInBoxAndMoves) {
  util::Rng rng(21);
  RandomWaypoint walker({0, 0, 0}, {4, 3, 0}, 1.2, sec(60), rng);
  EXPECT_TRUE(walker.is_mobile());
  Vec3 prev = walker.position(SimTime{0});
  bool moved = false;
  for (int ms = 0; ms <= 60000; ms += 500) {
    const Vec3 p = walker.position(msec(ms));
    EXPECT_GE(p.x, -1e-9);
    EXPECT_LE(p.x, 4.0 + 1e-9);
    EXPECT_GE(p.y, -1e-9);
    EXPECT_LE(p.y, 3.0 + 1e-9);
    if (util::distance(p, prev) > 0.01) moved = true;
    prev = p;
  }
  EXPECT_TRUE(moved);
}

TEST(RandomWaypoint, DeterministicFunctionOfTime) {
  util::Rng rng(22);
  RandomWaypoint walker({0, 0, 0}, {4, 3, 0}, 1.0, sec(30), rng);
  const Vec3 a = walker.position(sec(7));
  const Vec3 b = walker.position(sec(20));
  // Re-querying earlier times gives identical answers (pure function).
  EXPECT_EQ(walker.position(sec(7)), a);
  EXPECT_EQ(walker.position(sec(20)), b);
}

TEST(RandomWaypoint, SpeedNeverExceedsConfigured) {
  util::Rng rng(23);
  const double speed = 1.5;
  RandomWaypoint walker({0, 0, 0}, {5, 5, 0}, speed, sec(30), rng);
  for (int ms = 0; ms < 30000; ms += 100) {
    const Vec3 a = walker.position(msec(ms));
    const Vec3 b = walker.position(msec(ms + 100));
    EXPECT_LE(util::distance(a, b), speed * 0.1 + 1e-6);
  }
}

TEST(StepDisplacement, JumpsOnceAtStepTime) {
  // §7.1 sensitivity experiment: displace by 1–5 cm at a known instant.
  StepDisplacement step({1, 1, 0}, {0.03, 0, 0}, sec(10));
  EXPECT_EQ(step.position(sec(9)), (Vec3{1, 1, 0}));
  EXPECT_EQ(step.position(sec(10)), (Vec3{1.03, 1, 0}));
  EXPECT_EQ(step.position(sec(99)), (Vec3{1.03, 1, 0}));
  EXPECT_TRUE(step.moved_between(sec(9), sec(11)));
  EXPECT_FALSE(step.moved_between(sec(11), sec(99)));
}

// ----------------------------------------------------------------- World

sim::SimTag make_tag(std::uint64_t serial, Vec3 pos) {
  sim::SimTag t;
  t.epc = util::Epc::from_serial(serial);
  t.motion = std::make_shared<StaticMotion>(pos);
  return t;
}

TEST(World, AddFindRemove) {
  World w;
  const auto idx = w.add_tag(make_tag(1, {0, 0, 0}));
  EXPECT_EQ(idx, 0u);
  w.add_tag(make_tag(2, {1, 0, 0}));
  EXPECT_EQ(w.tags().size(), 2u);
  EXPECT_EQ(w.find_tag(util::Epc::from_serial(2)), 1u);
  EXPECT_TRUE(w.remove_tag(util::Epc::from_serial(1)));
  EXPECT_FALSE(w.remove_tag(util::Epc::from_serial(1)));
  // Index is repaired after removal.
  EXPECT_EQ(w.find_tag(util::Epc::from_serial(2)), 0u);
}

TEST(World, RejectsDuplicatesAndNullMotion) {
  World w;
  w.add_tag(make_tag(1, {0, 0, 0}));
  EXPECT_THROW(w.add_tag(make_tag(1, {1, 0, 0})), std::invalid_argument);
  sim::SimTag bad;
  bad.epc = util::Epc::from_serial(9);
  EXPECT_THROW(w.add_tag(std::move(bad)), std::invalid_argument);
}

TEST(World, PresenceWindows) {
  World w;
  auto tag = make_tag(1, {0, 0, 0});
  tag.arrives = sec(10);
  tag.departs = sec(20);
  const auto idx = w.add_tag(std::move(tag));
  EXPECT_FALSE(w.tag_present(idx, sec(5)));
  EXPECT_TRUE(w.tag_present(idx, sec(10)));
  EXPECT_TRUE(w.tag_present(idx, sec(19)));
  EXPECT_FALSE(w.tag_present(idx, sec(20)));
}

TEST(World, ClockAdvances) {
  World w;
  EXPECT_EQ(w.now(), SimTime{0});
  w.advance(msec(5));
  EXPECT_EQ(w.now(), msec(5));
  w.advance_to(msec(3));  // no-op backwards
  EXPECT_EQ(w.now(), msec(5));
  w.advance_to(msec(9));
  EXPECT_EQ(w.now(), msec(9));
  EXPECT_THROW(w.advance(msec(-1)), std::invalid_argument);
}

TEST(World, ReflectorsTrackTheirMotion) {
  World w;
  w.add_reflector(
      {std::make_shared<LinearConveyor>(Vec3{0, 0, 0}, Vec3{1, 0, 0},
                                        SimTime{0}, 10.0),
       0.25});
  const auto at0 = w.reflectors_at(SimTime{0});
  const auto at2 = w.reflectors_at(sec(2));
  ASSERT_EQ(at0.size(), 1u);
  EXPECT_EQ(at0[0].position, (Vec3{0, 0, 0}));
  EXPECT_EQ(at2[0].position, (Vec3{2, 0, 0}));
  EXPECT_DOUBLE_EQ(at2[0].reflection_coefficient, 0.25);
}

}  // namespace
}  // namespace tagwatch::sim
