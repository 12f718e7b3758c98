// Tests for the DRC-lite checker, including property checks that generated
// primitives and realized routes are rule-clean.

#include <gtest/gtest.h>

#include "geom/drc.hpp"
#include "pcell/generator.hpp"
#include "route/realize.hpp"

namespace olp::geom {
namespace {

const tech::Technology& t() {
  static const tech::Technology tech = tech::make_default_finfet_tech();
  return tech;
}

TEST(Drc, CleanLayoutPasses) {
  Layout l("clean");
  // Two M1 shapes at exactly min spacing and min width.
  const Coord w = to_nm(t().metal(tech::Layer::kM1).min_width);
  const Coord s = to_nm(t().metal(tech::Layer::kM1).min_spacing);
  l.add_shape(tech::Layer::kM1, Rect{0, 0, 500, w}, "a");
  l.add_shape(tech::Layer::kM1, Rect{0, w + s, 500, 2 * w + s}, "b");
  EXPECT_TRUE(check_design_rules(t(), l).empty());
}

TEST(Drc, DetectsMinWidth) {
  Layout l("narrow");
  const Coord w = to_nm(t().metal(tech::Layer::kM1).min_width);
  l.add_shape(tech::Layer::kM1, Rect{0, 0, 500, w - 2}, "a");
  const std::vector<DrcViolation> v = check_design_rules(t(), l);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].kind, DrcViolation::Kind::kMinWidth);
  EXPECT_LT(v[0].value, v[0].limit);
  EXPECT_NE(v[0].to_string().find("min-width"), std::string::npos);
}

TEST(Drc, DetectsMinSpacingBetweenNets) {
  Layout l("close");
  const Coord w = to_nm(t().metal(tech::Layer::kM1).min_width);
  const Coord s = to_nm(t().metal(tech::Layer::kM1).min_spacing);
  l.add_shape(tech::Layer::kM1, Rect{0, 0, 500, w}, "a");
  l.add_shape(tech::Layer::kM1, Rect{0, w + s - 3, 500, 2 * w + s - 3}, "b");
  const std::vector<DrcViolation> v = check_design_rules(t(), l);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].kind, DrcViolation::Kind::kMinSpacing);
}

TEST(Drc, SameNetShapesMayAbut) {
  Layout l("abut");
  const Coord w = to_nm(t().metal(tech::Layer::kM1).min_width);
  l.add_shape(tech::Layer::kM1, Rect{0, 0, 500, w}, "a");
  l.add_shape(tech::Layer::kM1, Rect{400, 0, 900, w}, "a");  // overlaps
  EXPECT_TRUE(check_design_rules(t(), l).empty());
  // Same shapes on different nets: a short.
  Layout l2("short");
  l2.add_shape(tech::Layer::kM1, Rect{0, 0, 500, w}, "a");
  l2.add_shape(tech::Layer::kM1, Rect{400, 0, 900, w}, "b");
  const std::vector<DrcViolation> v = check_design_rules(t(), l2);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_DOUBLE_EQ(v[0].value, 0.0);
}

TEST(Drc, DifferentLayersDoNotInteract) {
  Layout l("layers");
  const Coord w = to_nm(t().metal(tech::Layer::kM1).min_width);
  l.add_shape(tech::Layer::kM1, Rect{0, 0, 500, w}, "a");
  l.add_shape(tech::Layer::kM2, Rect{0, 0, 500, w}, "b");  // overlap, ok
  EXPECT_TRUE(check_design_rules(t(), l).empty());
}

TEST(Drc, RealizedRoutesAreClean) {
  route::NetRoute nr;
  nr.net = "sig";
  nr.routed = true;
  nr.segments.push_back(route::RouteSegment{
      tech::Layer::kM3, Point{0, 0}, Point{to_nm(3e-6), 0}});
  Layout out("r");
  route::realize_net(t(), nr, 4, out);
  EXPECT_TRUE(check_design_rules(t(), out).empty());
}

TEST(Drc, RoutesOfDifferentNetsAtPitchAreClean) {
  // Two single-track nets one pitch apart: legal.
  Layout out("r");
  for (int k = 0; k < 2; ++k) {
    route::NetRoute nr;
    nr.net = "n";
    nr.net += std::to_string(k);
    nr.routed = true;
    const Coord y = k * to_nm(t().metal(tech::Layer::kM3).pitch);
    nr.segments.push_back(route::RouteSegment{
        tech::Layer::kM3, Point{0, y}, Point{to_nm(3e-6), y}});
    route::realize_net(t(), nr, 1, out);
  }
  EXPECT_TRUE(check_design_rules(t(), out).empty());
}

// Property: every enumerated DP configuration generates a DRC-clean cell
// (metal layers; the strap bars carry distinct nets at distinct tracks).
class GeneratorDrc : public ::testing::TestWithParam<int> {};

TEST_P(GeneratorDrc, GeneratedPrimitivesAreClean) {
  const pcell::PrimitiveGenerator gen(t());
  const pcell::PrimitiveNetlist dp = pcell::make_diff_pair();
  const std::vector<pcell::LayoutConfig> configs =
      pcell::PrimitiveGenerator::enumerate_configs(
          GetParam(), {pcell::PlacementPattern::kABBA});
  for (const pcell::LayoutConfig& cfg : configs) {
    const pcell::PrimitiveLayout lay = gen.generate(dp, cfg);
    const std::vector<DrcViolation> v =
        check_design_rules(t(), lay.geometry);
    EXPECT_TRUE(v.empty()) << cfg.to_string() << ": "
                           << (v.empty() ? "" : v.front().to_string());
  }
}

INSTANTIATE_TEST_SUITE_P(FinBudgets, GeneratorDrc,
                         ::testing::Values(48, 96, 192));

}  // namespace
}  // namespace olp::geom
