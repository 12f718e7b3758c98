// Tests for Algorithm 2: interval extraction, route RC conversion, constraint
// generation and reconciliation.

#include <gtest/gtest.h>

#include "circuits/common.hpp"
#include "core/optimizer.hpp"
#include "core/port_optimizer.hpp"
#include "util/faults.hpp"

namespace olp::core {
namespace {

const tech::Technology& t() {
  static const tech::Technology tech = tech::make_default_finfet_tech();
  return tech;
}

route::NetRoute m3_route(double length) {
  route::NetRoute nr;
  nr.net = "r";
  nr.routed = true;
  nr.vias = 2;
  nr.segments.push_back(route::RouteSegment{
      tech::Layer::kM3, geom::Point{0, 0},
      geom::Point{geom::to_nm(length), 0}});
  return nr;
}

// --- interval extraction -------------------------------------------------------

TEST(IntervalFromCurve, PaperTableIVDpShape) {
  // DP costs from the paper: plateau [3,5] around the minimum at 4.
  const std::vector<double> costs = {5.17, 4.40, 4.23, 4.21, 4.25, 4.33, 4.42};
  const WireInterval iv = interval_from_curve(costs, 0.015);
  EXPECT_EQ(iv.lo, 3);
  ASSERT_TRUE(iv.hi.has_value());
  EXPECT_EQ(*iv.hi, 5);
}

TEST(IntervalFromCurve, MonotoneCurveIsUnbounded) {
  // CM costs from the paper: still improving at the end of the sweep.
  const std::vector<double> costs = {4.54, 3.36, 3.00, 2.85, 2.77, 2.74, 2.74};
  const WireInterval iv = interval_from_curve(costs, 0.015);
  EXPECT_FALSE(iv.hi.has_value());
  EXPECT_GE(iv.lo, 4);
}

TEST(IntervalFromCurve, FlatCurveCoversEverything) {
  const WireInterval iv = interval_from_curve({2.0, 2.0, 2.0, 2.0}, 0.015);
  EXPECT_EQ(iv.lo, 1);
  EXPECT_FALSE(iv.hi.has_value());
}

TEST(IntervalFromCurve, SharpMinimum) {
  const WireInterval iv =
      interval_from_curve({10.0, 1.0, 10.0, 10.0}, 0.015);
  EXPECT_EQ(iv.lo, 2);
  ASSERT_TRUE(iv.hi.has_value());
  EXPECT_EQ(*iv.hi, 2);
}

TEST(IntervalFromCurve, EmptyThrows) {
  EXPECT_THROW(interval_from_curve({}, 0.015), InvalidArgumentError);
}

// --- route RC ------------------------------------------------------------------

TEST(RouteWireRc, ParallelRoutesScaleRandC) {
  const route::NetRoute nr = m3_route(2e-6);
  const extract::WireRc w1 = route_wire_rc(t(), nr, 1);
  const extract::WireRc w4 = route_wire_rc(t(), nr, 4);
  EXPECT_LT(w4.resistance, w1.resistance / 3.0);
  EXPECT_GT(w4.capacitance, w1.capacitance);
  // Vias participate: R includes via term that also divides by 4.
  EXPECT_GT(w1.resistance, t().wire_res(tech::Layer::kM3, 2e-6));
}

TEST(RouteWireRc, RejectsZeroParallel) {
  EXPECT_THROW(route_wire_rc(t(), m3_route(2e-6), 0), InvalidArgumentError);
}

// --- constraint generation on a real primitive ----------------------------------

struct DpFixture {
  pcell::PrimitiveGenerator gen{t()};
  PrimitiveEvaluator eval;
  pcell::PrimitiveLayout layout;

  DpFixture()
      : eval(t(), circuits::default_nmos(), circuits::default_pmos(),
             [] {
               BiasContext b;
               b.vdd = t().vdd;
               b.bias_current = 500e-6;
               b.port_voltage = {{"ga", 0.5},
                                 {"gb", 0.5},
                                 {"da", 0.5},
                                 {"db", 0.5},
                                 {"s", 0.2}};
               b.port_load_cap = {{"da", 20e-15}, {"db", 20e-15}};
               return b;
             }()) {
    pcell::LayoutConfig c;
    c.nfin = 8;
    c.nf = 20;
    c.m = 6;
    layout = gen.generate(pcell::make_diff_pair(), c);
  }

  PortOptPrimitive primitive() {
    PortOptPrimitive p;
    p.instance = "dp";
    p.evaluator = &eval;
    p.layout = &layout;
    p.routes.push_back(PortRoute{"da", "net_d1", m3_route(2e-6)});
    p.routes.push_back(PortRoute{"db", "net_out", m3_route(2e-6)});
    return p;
  }
};

TEST(PortOptimizer, GeneratesConstraintPerNet) {
  DpFixture fx;
  PortOptimizer po(t());
  const std::vector<PortConstraint> pcs =
      po.generate_constraints(fx.primitive());
  ASSERT_EQ(pcs.size(), 2u);
  for (const PortConstraint& pc : pcs) {
    EXPECT_EQ(pc.cost_curve.size(), static_cast<std::size_t>(kMaxPortWires));
    EXPECT_GE(pc.interval.lo, 1);
    for (double cost : pc.cost_curve) EXPECT_GE(cost, 0.0);
  }
}

TEST(PortOptimizer, SymmetricDrainSweepsDoNotExplode) {
  // The drain sweep widens both sides together; cost must stay bounded (no
  // phantom offset from an asymmetric testbench).
  DpFixture fx;
  PortOptimizer po(t());
  const std::vector<PortConstraint> pcs =
      po.generate_constraints(fx.primitive());
  for (const PortConstraint& pc : pcs) {
    for (double cost : pc.cost_curve) {
      EXPECT_LT(cost, 100.0) << pc.circuit_net;
    }
  }
}

// A sweep point whose evaluation quarantined a metric costs kQuarantineCost,
// as in Algorithm 1, so a failed simulation cannot set a port interval.
TEST(PortOptimizer, QuarantinedSweepPointsLoseCleanly) {
  DpFixture fx;
  FaultConfig config;
  config.nan_metric_rate = 1.0;  // every evaluation quarantines a metric
  std::vector<PortConstraint> pcs;
  {
    ScopedFaultInjection chaos(config);
    pcs = PortOptimizer(t()).generate_constraints(fx.primitive());
  }
  ASSERT_EQ(pcs.size(), 2u);
  for (const PortConstraint& pc : pcs) {
    ASSERT_EQ(pc.cost_curve.size(), static_cast<std::size_t>(kMaxPortWires));
    for (double cost : pc.cost_curve) {
      EXPECT_EQ(cost, kQuarantineCost) << pc.circuit_net;
    }
  }
}

TEST(PortOptimizer, ReconcileOverlapUsesMaxLowerBound) {
  DpFixture fx;
  PortOptimizer po(t());
  std::vector<PortConstraint> pcs;
  PortConstraint a;
  a.instance = "p1";
  a.circuit_net = "n";
  a.interval = WireInterval{2, 6};
  PortConstraint b;
  b.instance = "p2";
  b.circuit_net = "n";
  b.interval = WireInterval{4, std::nullopt};
  pcs.push_back(a);
  pcs.push_back(b);
  const std::vector<NetWireDecision> d = po.reconcile({}, pcs);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_TRUE(d[0].from_overlap);
  EXPECT_EQ(d[0].parallel_routes, 4);
}

TEST(PortOptimizer, ReconcileGapRunsJointSimulation) {
  DpFixture fx;
  PortOptimizer po(t());
  PortOptPrimitive prim = fx.primitive();
  std::vector<PortConstraint> pcs;
  PortConstraint a;
  a.instance = "dp";
  a.circuit_net = "net_d1";
  a.interval = WireInterval{1, 2};
  PortConstraint b;
  b.instance = "other";
  b.circuit_net = "net_d1";
  b.interval = WireInterval{5, 6};
  pcs.push_back(a);
  pcs.push_back(b);
  const std::vector<NetWireDecision> d = po.reconcile({prim}, pcs);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_FALSE(d[0].from_overlap);
  EXPECT_GE(d[0].parallel_routes, 2);
  EXPECT_LE(d[0].parallel_routes, 5);
}

TEST(PortOptimizer, EndToEndOptimizeProducesDecisions) {
  DpFixture fx;
  PortOptimizer po(t());
  const std::vector<NetWireDecision> d = po.optimize({fx.primitive()});
  ASSERT_EQ(d.size(), 2u);
  for (const NetWireDecision& dec : d) {
    EXPECT_GE(dec.parallel_routes, 1);
    EXPECT_LE(dec.parallel_routes, kMaxPortWires);
  }
}

TEST(PortOptimizer, IncompletePrimitiveThrows) {
  PortOptimizer po(t());
  PortOptPrimitive bad;
  bad.instance = "x";
  bad.routes.push_back(PortRoute{"da", "n", m3_route(1e-6)});
  EXPECT_THROW(po.generate_constraints(bad), InvalidArgumentError);
}

}  // namespace
}  // namespace olp::core
