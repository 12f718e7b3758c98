// Failure-injection tests: pathological inputs must produce diagnosable
// failures (clean non-convergence flags or typed exceptions), never crashes
// or silent garbage.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "circuits/common.hpp"
#include "circuits/strongarm.hpp"
#include "core/evaluator.hpp"
#include "core/optimizer.hpp"
#include "pcell/generator.hpp"
#include "place/placer.hpp"
#include "route/global_router.hpp"
#include "spice/simulator.hpp"
#include "util/budget.hpp"
#include "util/curvature.hpp"
#include "util/diag.hpp"
#include "util/faults.hpp"
#include "util/logging.hpp"

namespace olp {
namespace {

const tech::Technology& t() {
  static const tech::Technology tech = tech::make_default_finfet_tech();
  return tech;
}

TEST(FailureInjection, ConflictingVoltageSourcesDoNotCrash) {
  // Two sources forcing different voltages on the same node: the MNA system
  // is singular; op() must report non-convergence, not crash.
  spice::Circuit c;
  const spice::NodeId n = c.node("n");
  c.add_vsource("v1", n, spice::kGround, spice::Waveform::dc(1.0));
  c.add_vsource("v2", n, spice::kGround, spice::Waveform::dc(2.0));
  spice::Simulator sim(c);
  const spice::OpResult op = sim.op();
  EXPECT_FALSE(op.converged);
}

TEST(FailureInjection, CurrentSourceIntoFloatingNodeConverges) {
  // Only the gmin floor ties the node down; the solution is finite (I/gmin
  // saturated by damping over the iteration budget) and flagged accordingly.
  spice::Circuit c;
  const spice::NodeId n = c.node("float");
  c.add_isource("i1", spice::kGround, n, spice::Waveform::dc(1e-9));
  spice::Simulator sim(c);
  const spice::OpResult op = sim.op();
  // 1 nA into 1e-12 S wants 1 kV; the damped Newton cannot reach it in the
  // iteration budget. Either outcome is acceptable as long as it is flagged
  // and finite.
  ASSERT_FALSE(op.x.empty());
  EXPECT_TRUE(std::isfinite(op.x[0]));
}

TEST(FailureInjection, ShortedSourceSurvives) {
  // A voltage source with both terminals grounded: 0 V across, solvable.
  spice::Circuit c;
  c.add_vsource("v1", spice::kGround, spice::kGround, spice::Waveform::dc(1.0));
  c.add_resistor("r", c.node("a"), spice::kGround, 1e3);
  spice::Simulator sim(c);
  EXPECT_NO_THROW(sim.op());
}

TEST(FailureInjection, TransientOnStiffCircuitFallsBackGracefully) {
  // Huge conductance ratio (1 mohm against 1 Gohm) with a fast source: the
  // transient must either complete or return ok=false, never throw.
  spice::Circuit c;
  const spice::NodeId a = c.node("a");
  const spice::NodeId b = c.node("b");
  c.add_vsource("v", a, spice::kGround,
                spice::Waveform::pulse(0, 1, 1e-10, 1e-12, 1e-12, 1e-9, 2e-9));
  c.add_resistor("r1", a, b, 1e-3);
  c.add_resistor("r2", b, spice::kGround, 1e9);
  c.add_capacitor("cc", b, spice::kGround, 1e-15);
  spice::Simulator sim(c);
  spice::TranOptions tr;
  tr.tstop = 1e-9;
  tr.dt = 50e-12;
  EXPECT_NO_THROW({
    const spice::TranResult res = sim.tran(tr);
    (void)res;
  });
}

TEST(FailureInjection, EvaluatorWithAbsurdBiasReturnsFiniteMetrics) {
  // Bias far outside the operating region: metrics must be finite numbers
  // (the optimizer turns them into a large-but-finite cost).
  const pcell::PrimitiveGenerator gen(t());
  pcell::LayoutConfig cfg;
  cfg.nfin = 8;
  cfg.nf = 8;
  cfg.m = 1;
  const pcell::PrimitiveLayout lay =
      gen.generate(pcell::make_diff_pair(), cfg);
  core::BiasContext bias;
  bias.vdd = t().vdd;
  bias.bias_current = 50e-3;  // 50 mA through a small pair
  bias.port_voltage = {
      {"ga", 0.0}, {"gb", 0.0}, {"da", 0.0}, {"db", 0.0}, {"s", 0.79}};
  const core::PrimitiveEvaluator eval(t(), circuits::default_nmos(),
                                      circuits::default_pmos(), bias);
  set_log_level(LogLevel::kOff);
  const core::MetricValues v = eval.evaluate(lay, {});
  set_log_level(LogLevel::kWarn);
  for (const auto& [kind, value] : v) {
    EXPECT_TRUE(std::isfinite(value)) << core::metric_name(kind);
  }
}

TEST(FailureInjection, PlacerRejectsDegenerateBlocks) {
  place::AnnealingPlacer placer;
  EXPECT_THROW(placer.place({}, {}, {}), InvalidArgumentError);
}

TEST(FailureInjection, GeneratorRejectsImpossibleBudget) {
  EXPECT_THROW(pcell::PrimitiveGenerator::enumerate_configs(1),
               InvalidArgumentError);
}

TEST(FailureInjection, ComparatorOffsetSaturatesOutsideRange) {
  // With a tiny search window, the measured offset saturates at the window
  // edge instead of looping forever.
  set_log_level(LogLevel::kError);
  circuits::StrongArmComparator sa(t());
  ASSERT_TRUE(sa.prepare());
  const circuits::Realization real =
      circuits::schematic_realization(sa.instances(), t());
  // A window of 0 forces equal endpoints -> saturated return.
  const double off = sa.measure_offset(real, 0.0);
  EXPECT_DOUBLE_EQ(off, 0.0);
}

TEST(FailureInjection, ComparatorOffsetSmallForMatchedLayouts) {
  // The paper: offset is a function of matching nets and stays similar
  // across flavors. Matched (ABBA) layouts keep it within a few mV.
  set_log_level(LogLevel::kError);
  circuits::StrongArmComparator sa(t());
  ASSERT_TRUE(sa.prepare());
  circuits::Realization real =
      circuits::schematic_realization(sa.instances(), t());
  const double off_sch = sa.measure_offset(real, 20e-3);
  EXPECT_LT(std::fabs(off_sch), 2e-3);
  real.ideal = false;  // extracted, same matched layouts
  const double off_ext = sa.measure_offset(real, 20e-3);
  EXPECT_LT(std::fabs(off_ext), 5e-3);
}

// --- Retry/fallback ladder coverage (deterministic fault injection) --------

core::BiasContext dp_bias() {
  core::BiasContext b;
  b.vdd = t().vdd;
  b.bias_current = 500e-6;
  b.port_voltage = {
      {"ga", 0.5}, {"gb", 0.5}, {"da", 0.5}, {"db", 0.5}, {"s", 0.2}};
  b.port_load_cap = {{"da", 20e-15}, {"db", 20e-15}};
  return b;
}

TEST(FailureInjection, TranBackwardEulerFallbackEngages) {
  // An injected first-attempt transient failure must trigger the retry ladder
  // (backward Euler, halved dt) and still deliver a successful result.
  set_log_level(LogLevel::kOff);
  spice::Circuit c;
  const spice::NodeId a = c.node("a");
  const spice::NodeId b = c.node("b");
  c.add_vsource("v", a, spice::kGround,
                spice::Waveform::pulse(0, 1, 1e-10, 1e-11, 1e-11, 1e-9, 4e-9));
  c.add_resistor("r", a, b, 1e3);
  c.add_capacitor("cl", b, spice::kGround, 1e-13);
  DiagnosticsSink sink;
  spice::Simulator sim(c, &sink);
  spice::TranOptions tr;
  tr.tstop = 1e-9;
  tr.dt = 1e-11;
  FaultConfig config;
  config.tran_rate = 1.0;
  config.max_total_fires = 1;  // only the first attempt fails
  spice::TranResult res;
  {
    ScopedFaultInjection chaos(config);
    res = sim.tran(tr);
  }
  set_log_level(LogLevel::kWarn);
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(FaultInjector::global().fired(FaultSite::kTranNonConvergence), 1);
  EXPECT_EQ(sink.count("chaos", "tran"), 1u);
  // The ladder announced the backward-Euler retry.
  EXPECT_GE(sink.count("simulator", "tran"), 1u);
  EXPECT_FALSE(sink.has_at_least(DiagSeverity::kError));
}

TEST(FailureInjection, QuarantinedCandidateExcludedFromSelection) {
  // One injected NaN metric (the first candidate evaluation; the schematic
  // reference draw is skipped) quarantines that candidate. Selection must
  // skip it and return only healthy, finite-cost options.
  set_log_level(LogLevel::kOff);
  const pcell::PrimitiveGenerator gen(t());
  core::PrimitiveEvaluator eval(t(), circuits::default_nmos(),
                                circuits::default_pmos(), dp_bias());
  DiagnosticsSink sink;
  eval.set_diagnostics(&sink);
  const core::PrimitiveOptimizer opt(gen, eval, &sink);
  FaultConfig config;
  config.nan_metric_rate = 1.0;
  config.skip_draws = 1;       // spare the schematic reference evaluation
  config.max_total_fires = 1;  // poison exactly one candidate
  std::vector<core::LayoutCandidate> sel;
  {
    ScopedFaultInjection chaos(config);
    sel = opt.optimize(pcell::make_diff_pair(), 16);
  }
  set_log_level(LogLevel::kWarn);
  EXPECT_EQ(FaultInjector::global().fired(FaultSite::kNanMetric), 1);
  EXPECT_EQ(sink.count("chaos", "nan_metric"), 1u);
  EXPECT_GE(sink.count("evaluator"), 1u);  // the quarantine record
  ASSERT_FALSE(sel.empty());
  for (const core::LayoutCandidate& cand : sel) {
    EXPECT_FALSE(cand.quarantined);
    EXPECT_TRUE(std::isfinite(cand.cost.total));
    EXPECT_LT(cand.cost.total, core::kQuarantineCost);
  }
}

TEST(FailureInjection, AllCandidatesQuarantinedFallsBackToMinArea) {
  // When every candidate evaluation is poisoned the optimizer must degrade
  // to the minimum-area configuration instead of asserting out.
  set_log_level(LogLevel::kOff);
  const pcell::PrimitiveGenerator gen(t());
  core::PrimitiveEvaluator eval(t(), circuits::default_nmos(),
                                circuits::default_pmos(), dp_bias());
  DiagnosticsSink sink;
  eval.set_diagnostics(&sink);
  const core::PrimitiveOptimizer opt(gen, eval, &sink);
  const pcell::PrimitiveNetlist dp = pcell::make_diff_pair();
  FaultConfig config;
  config.nan_metric_rate = 1.0;
  config.skip_draws = 1;  // reference clean, every candidate poisoned
  std::vector<core::LayoutCandidate> sel;
  {
    ScopedFaultInjection chaos(config);
    sel = opt.optimize(dp, 16);
  }
  set_log_level(LogLevel::kWarn);
  ASSERT_EQ(sel.size(), 1u);
  EXPECT_TRUE(sel[0].quarantined);
  EXPECT_DOUBLE_EQ(sel[0].cost.total, core::kQuarantineCost);
  // The fallback picked the minimum-area configuration over the full
  // enumeration (recomputed independently here).
  double min_area = std::numeric_limits<double>::infinity();
  for (const pcell::LayoutConfig& cfg :
       pcell::PrimitiveGenerator::enumerate_configs(16)) {
    min_area = std::min(min_area, gen.generate(dp, cfg).area());
  }
  EXPECT_DOUBLE_EQ(sel[0].layout.area(), min_area);
  EXPECT_GE(sink.count("optimizer", dp.name), 1u);
}

bool has_message(const DiagnosticsSink& sink, DiagSeverity severity,
                 const std::string& fragment) {
  for (const Diagnostic& d : sink.diagnostics()) {
    if (d.severity == severity &&
        d.message.find(fragment) != std::string::npos) {
      return true;
    }
  }
  return false;
}

TEST(FailureInjection, RouterWithUnreachableLayerRangeStillRoutes) {
  // Restricting to one layer forces vialess detours in one direction only;
  // a two-pin connection in the non-preferred direction must still resolve
  // or cleanly report failure. Fuel for one check covers the primary
  // attempt and nothing more, so the widened-layer retry is skipped and
  // that attempt's own outcome comes back.
  set_log_level(LogLevel::kOff);
  route::RouterOptions opt;
  opt.min_layer = 2;
  opt.max_layer = 2;  // M3 only (horizontal)
  route::GlobalRouter router(
      t(), geom::Rect{0, 0, geom::to_nm(5e-6), geom::to_nm(5e-6)}, opt);
  DiagnosticsSink sink;
  router.set_diagnostics(&sink);
  BudgetOptions bopt;
  bopt.max_checks = 1;
  Budget budget(bopt);
  router.set_budget(&budget);
  const route::NetRoute nr = router.route(
      "n", {geom::Point{0, 0}, geom::Point{0, geom::to_nm(4e-6)}});
  set_log_level(LogLevel::kWarn);
  // A vertical connection on a horizontal-only layer cannot route.
  EXPECT_FALSE(nr.routed);
  EXPECT_TRUE(nr.segments.empty());
  EXPECT_TRUE(has_message(sink, DiagSeverity::kWarning,
                          "no path to pin 1 within layers [2, 2]"));
  EXPECT_TRUE(has_message(sink, DiagSeverity::kWarning,
                          "skipping widened-layer retry"));
  EXPECT_FALSE(sink.has_at_least(DiagSeverity::kError));
}

TEST(FailureInjection, RouterWidenedWindowRetryRecoversVerticalNet) {
  // A vertical two-pin net on a horizontal-only window cannot route there,
  // so the primary attempt fails; the fallback retry must recover it on the
  // widened window and leave warning (not error) diagnostics behind.
  set_log_level(LogLevel::kOff);
  route::RouterOptions opt;
  opt.min_layer = 2;
  opt.max_layer = 2;  // M3 only (horizontal)
  route::GlobalRouter router(
      t(), geom::Rect{0, 0, geom::to_nm(5e-6), geom::to_nm(5e-6)}, opt);
  DiagnosticsSink sink;
  router.set_diagnostics(&sink);
  const route::NetRoute nr = router.route(
      "n", {geom::Point{0, 0}, geom::Point{0, geom::to_nm(4e-6)}});
  set_log_level(LogLevel::kWarn);
  EXPECT_TRUE(nr.routed);
  // Primary failure notice plus the widened-window retry notice.
  EXPECT_GE(sink.count("router", "n"), 2u);
  EXPECT_TRUE(has_message(sink, DiagSeverity::kWarning,
                          "no path to pin 1 within layers [2, 2]"));
  EXPECT_FALSE(sink.has_at_least(DiagSeverity::kError));
}

TEST(FailureInjection, RouterWidenedWindowRetryHonorsTheBudget) {
  // The same horizontal-only window with a 3-pin vertical net and fuel for
  // two checks: the primary attempt fails at pin 1 after one check, the
  // retry gate takes the second, and the retry's own per-pin check must
  // trip the budget and abandon the net instead of routing past it.
  set_log_level(LogLevel::kOff);
  route::RouterOptions opt;
  opt.min_layer = 2;
  opt.max_layer = 2;  // M3 only (horizontal)
  route::GlobalRouter router(
      t(), geom::Rect{0, 0, geom::to_nm(5e-6), geom::to_nm(5e-6)}, opt);
  DiagnosticsSink sink;
  router.set_diagnostics(&sink);
  BudgetOptions bopt;
  bopt.max_checks = 2;
  Budget budget(bopt);
  router.set_budget(&budget);
  const route::NetRoute nr = router.route(
      "n", {geom::Point{0, 0}, geom::Point{0, geom::to_nm(2e-6)},
            geom::Point{0, geom::to_nm(4e-6)}});
  set_log_level(LogLevel::kWarn);
  EXPECT_FALSE(nr.routed);
  EXPECT_TRUE(budget.exhausted());
  EXPECT_TRUE(has_message(sink, DiagSeverity::kWarning, "net abandoned"));
}

TEST(FailureInjection, InjectedRouteFailureRecoversViaFallback) {
  // An injected primary-route failure on an otherwise routable net must be
  // absorbed by the widened-window retry.
  set_log_level(LogLevel::kOff);
  route::GlobalRouter router(
      t(), geom::Rect{0, 0, geom::to_nm(5e-6), geom::to_nm(5e-6)}, {});
  DiagnosticsSink sink;
  router.set_diagnostics(&sink);
  FaultConfig config;
  config.route_rate = 1.0;
  config.max_total_fires = 1;  // fallback attempt draws clean
  route::NetRoute nr;
  {
    ScopedFaultInjection chaos(config);
    nr = router.route(
        "net", {geom::Point{0, 0}, geom::Point{geom::to_nm(4e-6), 0}});
  }
  set_log_level(LogLevel::kWarn);
  EXPECT_TRUE(nr.routed);
  EXPECT_EQ(FaultInjector::global().fired(FaultSite::kRouteFailure), 1);
  EXPECT_EQ(sink.count("chaos", "route"), 1u);
  EXPECT_FALSE(sink.has_at_least(DiagSeverity::kError));
}

// --- Small-sample edge cases ----------------------------------------------

TEST(FailureInjection, AspectBinsIdenticalAspectsCollapseToBinZero) {
  const std::vector<int> bins =
      core::assign_aspect_bins({1.5, 1.5, 1.5, 1.5}, 4);
  ASSERT_EQ(bins.size(), 4u);
  for (int b : bins) EXPECT_EQ(b, 0);
}

TEST(FailureInjection, MaxCurvatureIndexHandlesTinyCurves) {
  // Fewer than three samples has no interior point: the last index wins.
  EXPECT_EQ(max_curvature_index({5.0}), 0u);
  EXPECT_EQ(max_curvature_index({5.0, 4.0}), 1u);
  EXPECT_THROW(max_curvature_index({}), InvalidArgumentError);
}

}  // namespace
}  // namespace olp
