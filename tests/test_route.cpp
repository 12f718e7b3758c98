// Tests for the g-cell global router.

#include <gtest/gtest.h>

#include "route/global_router.hpp"
#include "util/rng.hpp"

namespace olp::route {
namespace {

const tech::Technology& t() {
  static const tech::Technology tech = tech::make_default_finfet_tech();
  return tech;
}

geom::Rect region(double microns) {
  return geom::Rect{0, 0, geom::to_nm(microns * 1e-6),
                    geom::to_nm(microns * 1e-6)};
}

TEST(Router, TwoPinRouteSucceeds) {
  GlobalRouter router(t(), region(10));
  const NetRoute nr = router.route(
      "n", {geom::Point{0, 0}, geom::Point{geom::to_nm(5e-6), 0}});
  ASSERT_TRUE(nr.routed);
  EXPECT_FALSE(nr.segments.empty());
  EXPECT_GT(nr.vias, 0);  // pin via stacks
}

TEST(Router, RouteLengthAtLeastManhattan) {
  GlobalRouter router(t(), region(10));
  const geom::Point a{0, 0};
  const geom::Point b{geom::to_nm(4e-6), geom::to_nm(3e-6)};
  const NetRoute nr = router.route("n", {a, b});
  ASSERT_TRUE(nr.routed);
  EXPECT_GE(nr.total_length(), geom::to_meters(geom::manhattan(a, b)) - 1e-9);
  // And not wildly longer on an empty grid.
  EXPECT_LE(nr.total_length(),
            2.0 * geom::to_meters(geom::manhattan(a, b)) + 1e-6);
}

TEST(Router, StraightRouteUsesPreferredDirection) {
  RouterOptions opt;
  opt.min_layer = 2;  // M3 horizontal, M4 vertical
  GlobalRouter router(t(), region(10), opt);
  const NetRoute nr = router.route(
      "n", {geom::Point{0, 0}, geom::Point{geom::to_nm(5e-6), 0}});
  ASSERT_TRUE(nr.routed);
  // A purely horizontal connection stays on the horizontal layer.
  EXPECT_GT(nr.length_on(tech::Layer::kM3), 4e-6);
  EXPECT_NEAR(nr.length_on(tech::Layer::kM4), 0.0, 1e-9);
}

TEST(Router, LShapeUsesBothDirections) {
  RouterOptions opt;
  opt.min_layer = 2;
  GlobalRouter router(t(), region(10), opt);
  const NetRoute nr = router.route(
      "n", {geom::Point{0, 0},
            geom::Point{geom::to_nm(4e-6), geom::to_nm(4e-6)}});
  ASSERT_TRUE(nr.routed);
  EXPECT_GT(nr.length_on(tech::Layer::kM3), 3e-6);
  EXPECT_GT(nr.length_on(tech::Layer::kM4), 3e-6);
  EXPECT_GE(nr.vias, 3);  // at least one layer change plus pin stacks
}

TEST(Router, MultiPinBuildsSteinerTree) {
  GlobalRouter router(t(), region(10));
  // Three pins in an L: a shared trunk should keep total length below the
  // sum of the two independent two-pin routes.
  const geom::Point a{0, 0};
  const geom::Point b{geom::to_nm(6e-6), 0};
  const geom::Point c{geom::to_nm(6e-6), geom::to_nm(6e-6)};
  const NetRoute nr = router.route("n", {a, b, c});
  ASSERT_TRUE(nr.routed);
  EXPECT_LT(nr.total_length(), 13e-6);
  EXPECT_GE(nr.total_length(), 11.9e-6);
}

TEST(Router, SteinerSharingBeatsStar) {
  GlobalRouter router(t(), region(20));
  // Pins on a line: the tree should be ~ the line length, not 2x.
  const NetRoute nr = router.route(
      "n", {geom::Point{0, 0}, geom::Point{geom::to_nm(10e-6), 0},
            geom::Point{geom::to_nm(5e-6), 0}});
  ASSERT_TRUE(nr.routed);
  EXPECT_LT(nr.total_length(), 11e-6);
}

TEST(Router, CongestionPushesSecondNetAside) {
  RouterOptions opt;
  opt.edge_capacity = 1;
  opt.congestion_cost = 50.0;
  GlobalRouter router(t(), region(10), opt);
  const geom::Point a{0, geom::to_nm(5e-6)};
  const geom::Point b{geom::to_nm(9e-6), geom::to_nm(5e-6)};
  const NetRoute first = router.route("n1", {a, b});
  const NetRoute second = router.route("n2", {a, b});
  ASSERT_TRUE(first.routed);
  ASSERT_TRUE(second.routed);
  // The second net detours (or changes layer): strictly more wire+via cost.
  EXPECT_GT(second.total_length() + 0.2e-6 * second.vias,
            first.total_length() + 0.2e-6 * first.vias - 1e-9);
  EXPECT_GT(router.congestion_ratio(), 0.0);
}

TEST(Router, PinsOutsideRegionAreClamped) {
  GlobalRouter router(t(), region(5));
  const NetRoute nr = router.route(
      "n", {geom::Point{-geom::to_nm(1e-6), 0},
            geom::Point{geom::to_nm(20e-6), geom::to_nm(20e-6)}});
  EXPECT_TRUE(nr.routed);
}

TEST(Router, SinglePinThrows) {
  GlobalRouter router(t(), region(5));
  EXPECT_THROW(router.route("n", {geom::Point{0, 0}}),
               InvalidArgumentError);
}

TEST(Router, BadLayerRangeThrows) {
  RouterOptions opt;
  opt.min_layer = 4;
  opt.max_layer = 2;
  EXPECT_THROW(GlobalRouter(t(), region(5), opt), InvalidArgumentError);
}

TEST(NetRoute, DominantLayerAndLengths) {
  NetRoute nr;
  nr.segments.push_back(
      {tech::Layer::kM3, {0, 0}, {geom::to_nm(3e-6), 0}});
  nr.segments.push_back(
      {tech::Layer::kM4, {0, 0}, {0, geom::to_nm(1e-6)}});
  EXPECT_NEAR(nr.length_on(tech::Layer::kM3), 3e-6, 1e-12);
  EXPECT_NEAR(nr.total_length(), 4e-6, 1e-12);
  EXPECT_EQ(nr.dominant_layer(), tech::Layer::kM3);
}

// Property: random pin sets always route on an empty grid, and the segments
// plus pin stacks form a connected tree (every segment endpoint appears at
// least twice or is a pin gcell).
class RouterRandom : public ::testing::TestWithParam<int> {};

TEST_P(RouterRandom, RandomPinsRoute) {
  Rng rng(static_cast<std::uint64_t>(50 + GetParam()));
  GlobalRouter router(t(), region(15));
  const int pins = 2 + GetParam() % 4;
  std::vector<geom::Point> pts;
  for (int p = 0; p < pins; ++p) {
    pts.push_back(geom::Point{geom::to_nm(rng.uniform(0, 15e-6)),
                              geom::to_nm(rng.uniform(0, 15e-6))});
  }
  const NetRoute nr = router.route("n", pts);
  EXPECT_TRUE(nr.routed);
  EXPECT_GT(nr.total_length() + 1e-9, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouterRandom, ::testing::Range(1, 17));

}  // namespace
}  // namespace olp::route
