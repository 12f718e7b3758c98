// Tests for the g-cell global router and the pluggable routing backends.

#include <gtest/gtest.h>

#include "route/global_router.hpp"
#include "route/router_engine.hpp"
#include "util/budget.hpp"
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
  GlobalRouter router(t(), region(10), {});
  const NetRoute nr = router.route(
      "n", {geom::Point{0, 0}, geom::Point{geom::to_nm(5e-6), 0}}, {});
  ASSERT_TRUE(nr.routed);
  EXPECT_FALSE(nr.segments.empty());
  EXPECT_GT(nr.vias, 0);  // pin via stacks
}

TEST(Router, RouteLengthAtLeastManhattan) {
  GlobalRouter router(t(), region(10), {});
  const geom::Point a{0, 0};
  const geom::Point b{geom::to_nm(4e-6), geom::to_nm(3e-6)};
  const NetRoute nr = router.route("n", {a, b}, {});
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
      "n", {geom::Point{0, 0}, geom::Point{geom::to_nm(5e-6), 0}}, {});
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
            geom::Point{geom::to_nm(4e-6), geom::to_nm(4e-6)}}, {});
  ASSERT_TRUE(nr.routed);
  EXPECT_GT(nr.length_on(tech::Layer::kM3), 3e-6);
  EXPECT_GT(nr.length_on(tech::Layer::kM4), 3e-6);
  EXPECT_GE(nr.vias, 3);  // at least one layer change plus pin stacks
}

TEST(Router, MultiPinBuildsSteinerTree) {
  GlobalRouter router(t(), region(10), {});
  // Three pins in an L: a shared trunk should keep total length below the
  // sum of the two independent two-pin routes.
  const geom::Point a{0, 0};
  const geom::Point b{geom::to_nm(6e-6), 0};
  const geom::Point c{geom::to_nm(6e-6), geom::to_nm(6e-6)};
  const NetRoute nr = router.route("n", {a, b, c}, {});
  ASSERT_TRUE(nr.routed);
  EXPECT_LT(nr.total_length(), 13e-6);
  EXPECT_GE(nr.total_length(), 11.9e-6);
}

TEST(Router, SteinerSharingBeatsStar) {
  GlobalRouter router(t(), region(20), {});
  // Pins on a line: the tree should be ~ the line length, not 2x.
  const NetRoute nr = router.route(
      "n", {geom::Point{0, 0}, geom::Point{geom::to_nm(10e-6), 0},
            geom::Point{geom::to_nm(5e-6), 0}}, {});
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
  const NetRoute first = router.route("n1", {a, b}, {});
  const NetRoute second = router.route("n2", {a, b}, {});
  ASSERT_TRUE(first.routed);
  ASSERT_TRUE(second.routed);
  // The second net detours (or changes layer): strictly more wire+via cost.
  EXPECT_GT(second.total_length() + 0.2e-6 * second.vias,
            first.total_length() + 0.2e-6 * first.vias - 1e-9);
  EXPECT_GT(router.congestion_ratio(), 0.0);
}

TEST(Router, PinsOutsideRegionAreClamped) {
  GlobalRouter router(t(), region(5), {});
  const NetRoute nr = router.route(
      "n", {geom::Point{-geom::to_nm(1e-6), 0},
            geom::Point{geom::to_nm(20e-6), geom::to_nm(20e-6)}}, {});
  EXPECT_TRUE(nr.routed);
}

TEST(Router, SinglePinThrows) {
  GlobalRouter router(t(), region(5), {});
  EXPECT_THROW(router.route("n", {geom::Point{0, 0}}, {}),
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
  GlobalRouter router(t(), region(15), {});
  const int pins = 2 + GetParam() % 4;
  std::vector<geom::Point> pts;
  for (int p = 0; p < pins; ++p) {
    pts.push_back(geom::Point{geom::to_nm(rng.uniform(0, 15e-6)),
                              geom::to_nm(rng.uniform(0, 15e-6))});
  }
  const NetRoute nr = router.route("n", pts, {});
  EXPECT_TRUE(nr.routed);
  EXPECT_GT(nr.total_length() + 1e-9, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouterRandom, ::testing::Range(1, 17));

void expect_same_route(const NetRoute& a, const NetRoute& b) {
  ASSERT_EQ(a.routed, b.routed);
  ASSERT_EQ(a.segments.size(), b.segments.size());
  EXPECT_EQ(a.vias, b.vias);
  for (std::size_t i = 0; i < a.segments.size(); ++i) {
    EXPECT_EQ(a.segments[i].layer, b.segments[i].layer);
    EXPECT_EQ(a.segments[i].a.x, b.segments[i].a.x);
    EXPECT_EQ(a.segments[i].a.y, b.segments[i].a.y);
    EXPECT_EQ(a.segments[i].b.x, b.segments[i].b.x);
    EXPECT_EQ(a.segments[i].b.y, b.segments[i].b.y);
  }
}

TEST(Router, RipUpRestoresCongestionState) {
  RouterOptions opt;
  opt.edge_capacity = 1;
  GlobalRouter router(t(), region(10), opt);
  const geom::Point a{0, geom::to_nm(5e-6)};
  const geom::Point b{geom::to_nm(4e-6), geom::to_nm(5e-6)};
  const NetRoute first = router.route("n1", {a, b}, {});
  ASSERT_TRUE(first.routed);
  const double ratio_after_first = router.congestion_ratio();
  const long overflow_after_first = router.total_overflow();
  const NetRoute second = router.route("n2", {a, b}, {});
  ASSERT_TRUE(second.routed);
  EXPECT_GE(router.congestion_ratio(), ratio_after_first);

  router.rip_up(second);
  EXPECT_EQ(router.congestion_ratio(), ratio_after_first);
  EXPECT_EQ(router.total_overflow(), overflow_after_first);
  router.commit(second);
  router.rip_up(second);
  router.rip_up(first);
  EXPECT_EQ(router.congestion_ratio(), 0.0);
  EXPECT_EQ(router.total_overflow(), 0);
}

// ---------------------------------------------------------------------------
// The fast core: pattern candidates must match the classic full search
// exactly on congestion-free two-pin connections (they are accepted only
// when provably optimal), and the backends must agree on route quality.

TEST(FastCore, PatternsMatchFullSearchOnCleanTwoPinNets) {
  const std::vector<std::vector<geom::Point>> cases = {
      // Straight horizontal, straight vertical, two L orientations.
      {geom::Point{0, 0}, geom::Point{geom::to_nm(5e-6), 0}},
      {geom::Point{0, 0}, geom::Point{0, geom::to_nm(5e-6)}},
      {geom::Point{0, 0}, geom::Point{geom::to_nm(4e-6), geom::to_nm(3e-6)}},
      {geom::Point{geom::to_nm(6e-6), 0},
       geom::Point{0, geom::to_nm(2e-6)}},
  };
  for (const auto& pins : cases) {
    GlobalRouter classic(t(), region(10), {});
    GlobalRouter fast(t(), region(10), {});
    const NetRoute a = classic.route("n", pins, {});
    RouteRequest request;
    request.fast = true;
    const NetRoute b = fast.route("n", pins, request);
    ASSERT_TRUE(a.routed);
    ASSERT_TRUE(b.routed);
    // Pattern candidates are only accepted at the provable lower bound, so
    // length and via count must match the full search exactly (segment
    // granularity differs: patterns emit per-leg segments).
    EXPECT_NEAR(a.total_length(), b.total_length(), 1e-12);
    EXPECT_EQ(a.vias, b.vias);
  }
}

TEST(FastCore, SearchFallbackMatchesClassicOptimum) {
  // Patterns disabled: the bucket-queue bidirectional/A* search alone must
  // still find a route of the same cost as the classic heap Dijkstra.
  for (bool patterns : {true, false}) {
    GlobalRouter classic(t(), region(10), {});
    GlobalRouter fast(t(), region(10), {});
    const std::vector<geom::Point> pins{
        geom::Point{geom::to_nm(1e-6), geom::to_nm(7e-6)},
        geom::Point{geom::to_nm(8e-6), geom::to_nm(2e-6)}};
    const NetRoute a = classic.route("n", pins, {});
    RouteRequest request;
    request.fast = true;
    request.patterns = patterns;
    const NetRoute b = fast.route("n", pins, request);
    ASSERT_TRUE(a.routed);
    ASSERT_TRUE(b.routed);
    EXPECT_NEAR(a.total_length(), b.total_length(), 1e-12);
    EXPECT_EQ(a.vias, b.vias);
  }
}

TEST(FastCore, MultiPinFastRoutesAreSteinerQuality) {
  GlobalRouter fast(t(), region(10), {});
  const geom::Point a{0, 0};
  const geom::Point b{geom::to_nm(6e-6), 0};
  const geom::Point c{geom::to_nm(6e-6), geom::to_nm(6e-6)};
  RouteRequest request;
  request.fast = true;
  const NetRoute nr = fast.route("n", {a, b, c}, request);
  ASSERT_TRUE(nr.routed);
  // Same Steiner-sharing bound the classic core satisfies.
  EXPECT_LT(nr.total_length(), 13e-6);
  EXPECT_GE(nr.total_length(), 11.9e-6);
}

TEST(FastCore, FastCoreIsDeterministic) {
  std::vector<NetRoute> runs;
  for (int run = 0; run < 2; ++run) {
    GlobalRouter fast(t(), region(15), {});
    RouteRequest request;
    request.fast = true;
    Rng rng(7);
    NetRoute last;
    for (int n = 0; n < 6; ++n) {
      std::vector<geom::Point> pts;
      for (int p = 0; p < 3; ++p) {
        pts.push_back(geom::Point{geom::to_nm(rng.uniform(0, 15e-6)),
                                  geom::to_nm(rng.uniform(0, 15e-6))});
      }
      last = fast.route("n" + std::to_string(n), pts, request);
      EXPECT_TRUE(last.routed);
    }
    runs.push_back(last);
  }
  expect_same_route(runs[0], runs[1]);
}

// ---------------------------------------------------------------------------
// Router engines: the backend registry and the negotiated mode's global
// congestion resolution.

TEST(RouterEngineApi, BackendNamesRoundTrip) {
  for (RouterBackend b :
       {RouterBackend::kClassic, RouterBackend::kFast,
        RouterBackend::kNegotiated}) {
    const auto parsed = parse_router_backend(router_backend_name(b));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, b);
    auto engine = make_router_engine(
        *std::make_unique<GlobalRouter>(t(), region(5), RouterOptions{}),
        RouterEngineOptions{b});
  }
  EXPECT_FALSE(parse_router_backend("bogus").has_value());
  EXPECT_FALSE(parse_router_backend("partitioned").has_value());
  EXPECT_FALSE(parse_router_backend("").has_value());
}

std::vector<NetPins> three_nets() {
  std::vector<NetPins> nets;
  for (int n = 0; n < 3; ++n) {
    const geom::Coord y = geom::to_nm(2e-6 + 2e-6 * n);
    nets.push_back(NetPins{
        "net" + std::to_string(n),
        {geom::Point{geom::to_nm(1e-6), y},
         geom::Point{geom::to_nm(8e-6), y}}});
  }
  return nets;
}

TEST(RouterEngineApi, ClassicEngineMatchesHistoricSerialLoop) {
  const std::vector<NetPins> nets = three_nets();
  GlobalRouter engine_router(t(), region(10), {});
  RouterEngineOptions eopt;
  eopt.backend = RouterBackend::kClassic;
  const auto engine = make_router_engine(engine_router, eopt);
  const std::vector<NetRoute> via_engine = engine->route_nets(nets);

  GlobalRouter loop_router(t(), region(10), {});
  std::vector<NetRoute> via_loop;
  for (const NetPins& net : nets) {
    RouteRequest request;
    request.with_fallback = true;
    via_loop.push_back(loop_router.route(net.name, net.pins, request));
  }
  ASSERT_EQ(via_engine.size(), via_loop.size());
  for (std::size_t i = 0; i < via_engine.size(); ++i) {
    expect_same_route(via_engine[i], via_loop[i]);
  }
}

/// A congested workload greedy net-order routing CANNOT resolve: three
/// identical short nets on one row with edge_capacity 1, cheap congestion
/// (1.0) and expensive vias (6.0). For the second net, sharing the 10
/// overflowing edges costs ~10 units while detouring one row costs ~26
/// (4 vias + 2 extra steps), so the greedy router overflows; a legal
/// zero-overflow solution plainly exists (spread over three rows).
RouterOptions congested_options() {
  RouterOptions opt;
  opt.edge_capacity = 1;
  opt.congestion_cost = 1.0;
  opt.via_cost = 6.0;
  opt.min_layer = 2;
  opt.max_layer = 3;
  return opt;
}

std::vector<NetPins> congested_nets() {
  std::vector<NetPins> nets;
  const geom::Coord y = geom::to_nm(5e-6);
  for (int n = 0; n < 3; ++n) {
    nets.push_back(NetPins{
        "net" + std::to_string(n),
        {geom::Point{geom::to_nm(2e-6), y},
         geom::Point{geom::to_nm(4e-6), y}}});
  }
  return nets;
}

TEST(NegotiatedRouter, EliminatesOverflowGreedyCannot) {
  const std::vector<NetPins> nets = congested_nets();

  GlobalRouter greedy(t(), region(10), congested_options());
  const auto classic =
      make_router_engine(greedy, RouterEngineOptions{RouterBackend::kClassic});
  const std::vector<NetRoute> greedy_routes = classic->route_nets(nets);
  for (const NetRoute& r : greedy_routes) ASSERT_TRUE(r.routed);
  ASSERT_GT(greedy.total_overflow(), 0)
      << "fixture must actually congest the greedy router";

  GlobalRouter negotiated_router(t(), region(10), congested_options());
  RouterEngineOptions eopt;
  eopt.backend = RouterBackend::kNegotiated;
  const auto negotiated = make_router_engine(negotiated_router, eopt);
  const std::vector<NetRoute> routes = negotiated->route_nets(nets);
  for (const NetRoute& r : routes) ASSERT_TRUE(r.routed);
  EXPECT_EQ(negotiated_router.total_overflow(), 0)
      << "negotiation must converge to a legal solution";
}

TEST(NegotiatedRouter, ZeroIterationsKeepsGreedySolution) {
  const std::vector<NetPins> nets = congested_nets();
  GlobalRouter router(t(), region(10), congested_options());
  RouterEngineOptions eopt;
  eopt.backend = RouterBackend::kNegotiated;
  eopt.negotiation_iterations = 0;
  const auto engine = make_router_engine(router, eopt);
  const std::vector<NetRoute> routes = engine->route_nets(nets);
  for (const NetRoute& r : routes) EXPECT_TRUE(r.routed);
  EXPECT_GT(router.total_overflow(), 0);
}

TEST(NegotiatedRouter, BudgetTripSalvagesBestSoFar) {
  const std::vector<NetPins> nets = congested_nets();
  GlobalRouter router(t(), region(10), congested_options());
  // Enough fuel for the initial pass, not enough to negotiate to zero:
  // the engine must still return a complete routed solution (the
  // best-so-far snapshot), never a torn half-ripped-up state.
  BudgetOptions bopt;
  bopt.max_checks = 12;
  Budget budget(bopt);
  router.set_budget(&budget);
  RouterEngineOptions eopt;
  eopt.backend = RouterBackend::kNegotiated;
  const auto engine = make_router_engine(router, eopt);
  const std::vector<NetRoute> routes = engine->route_nets(nets);
  int routed = 0;
  for (const NetRoute& r : routes) routed += r.routed ? 1 : 0;
  EXPECT_GT(routed, 0);
  // The congestion grid must describe exactly the returned routes: ripping
  // every returned route up must empty it.
  for (const NetRoute& r : routes) {
    if (r.routed) router.rip_up(r);
  }
  EXPECT_EQ(router.total_overflow(), 0);
  EXPECT_EQ(router.congestion_ratio(), 0.0);
}

TEST(NegotiatedRouter, DeterministicAcrossRuns) {
  const std::vector<NetPins> nets = congested_nets();
  std::vector<std::vector<NetRoute>> runs;
  for (int run = 0; run < 2; ++run) {
    GlobalRouter router(t(), region(10), congested_options());
    RouterEngineOptions eopt;
    eopt.backend = RouterBackend::kNegotiated;
    const auto engine = make_router_engine(router, eopt);
    runs.push_back(engine->route_nets(nets));
  }
  ASSERT_EQ(runs[0].size(), runs[1].size());
  for (std::size_t i = 0; i < runs[0].size(); ++i) {
    expect_same_route(runs[0][i], runs[1][i]);
  }
}

}  // namespace
}  // namespace olp::route
