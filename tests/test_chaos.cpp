// Chaos fault-injection tests: the flow must complete end-to-end under
// injected op/tran/route/NaN faults, produce a structurally valid realization
// with finite costs, flag the report as degraded, and account for every
// injected fault with a diagnostic record.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "circuits/flow.hpp"
#include "circuits/ota5t.hpp"
#include "core/evaluator.hpp"
#include "pcell/generator.hpp"
#include "util/diag.hpp"
#include "util/faults.hpp"
#include "util/logging.hpp"

namespace olp {
namespace {

const tech::Technology& t() {
  static const tech::Technology tech = tech::make_default_finfet_tech();
  return tech;
}

/// Counts diagnostics reported by the chaos stage for one fault site.
std::size_t chaos_count(const std::vector<Diagnostic>& diags, FaultSite site) {
  std::size_t n = 0;
  for (const Diagnostic& d : diags) {
    if (d.stage == "chaos" && d.subject == fault_site_name(site)) ++n;
  }
  return n;
}

class ChaosFlow : public ::testing::TestWithParam<double> {};

TEST_P(ChaosFlow, OtaFlowSurvivesInjectedFaults) {
  const double rate = GetParam();
  set_log_level(LogLevel::kOff);
  circuits::Ota5T ota(t());
  ASSERT_TRUE(ota.prepare());  // schematic prep runs outside the fault scope

  const circuits::FlowEngine engine(t(), {});
  FaultConfig config;
  config.seed = 42;
  config.op_rate = rate;
  config.tran_rate = rate;
  config.route_rate = rate;
  config.nan_metric_rate = rate;

  circuits::FlowReport report;
  circuits::Realization real;
  {
    ScopedFaultInjection chaos(config);
    ASSERT_NO_THROW(real = engine.run(circuits::FlowMode::kOptimize, ota.instances(), ota.routed_nets(),
                                           &report));
  }
  set_log_level(LogLevel::kWarn);
  FaultInjector& inj = FaultInjector::global();

  // The realization is structurally complete.
  for (const circuits::InstanceSpec& inst : ota.instances()) {
    EXPECT_TRUE(real.layouts.count(inst.name)) << inst.name;
  }
  // Every candidate cost is finite (quarantine clamps, never NaN).
  for (const auto& [name, options] : report.options) {
    ASSERT_FALSE(options.empty()) << name;
    for (const core::LayoutCandidate& cand : options) {
      EXPECT_TRUE(std::isfinite(cand.cost.total)) << name;
    }
  }
  // Exact accounting: one chaos diagnostic per injected fault that fired.
  for (FaultSite site :
       {FaultSite::kOpNonConvergence, FaultSite::kTranNonConvergence,
        FaultSite::kRouteFailure, FaultSite::kNanMetric}) {
    EXPECT_EQ(chaos_count(report.diagnostics, site),
              static_cast<std::size_t>(inj.fired(site)))
        << fault_site_name(site);
  }
  if (rate >= 0.1) {
    // At 10% the OTA flow makes thousands of draws; faults certainly fired
    // (deterministic given the seed) and the report must say so.
    EXPECT_GT(inj.total_fired(), 0);
    EXPECT_TRUE(report.degraded);
  }
}

INSTANTIATE_TEST_SUITE_P(Rates, ChaosFlow, ::testing::Values(0.03, 0.10));

class ChaosWithBudget : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosWithBudget, FaultsComposeWithTightBudget) {
  // Chaos injection at every flow site combined with a tight testbench
  // budget and a per-seed fuel limit: the flow must never crash, hang, or
  // produce an inconsistent report, across seeds. The fuel limit (50 plus
  // the seed mod 250) lands the trip at a different check for each seed;
  // seed 1234's lies past the check where the testbench limit trips. The
  // 20% rates make faults fire before every trip: 6, 6, 6 and 12 of them on
  // seeds 1, 7, 42 and 1234, at the op and NaN-metric sites (the OTA flow
  // runs no transient, and every trip lands before routing).
  set_log_level(LogLevel::kOff);
  circuits::Ota5T ota(t());
  ASSERT_TRUE(ota.prepare());

  circuits::FlowOptions fopt;
  fopt.budget_limits.max_testbenches = 60;
  fopt.budget_limits.max_checks = 50 + static_cast<long>(GetParam() % 250);
  const circuits::FlowEngine engine(t(), fopt);

  FaultConfig config;
  config.seed = GetParam();
  config.op_rate = 0.2;
  config.tran_rate = 0.2;
  config.route_rate = 0.2;
  config.nan_metric_rate = 0.2;

  circuits::FlowReport report;
  circuits::Realization real;
  {
    ScopedFaultInjection chaos(config);
    ASSERT_NO_THROW(real = engine.run(circuits::FlowMode::kOptimize, ota.instances(), ota.routed_nets(),
                                           &report));
  }
  set_log_level(LogLevel::kWarn);
  FaultInjector& inj = FaultInjector::global();

  // Faults and the budget compose: faults fired at two or more sites before
  // the trip, each with its one chaos diagnostic.
  int sites_fired = 0;
  for (FaultSite site :
       {FaultSite::kOpNonConvergence, FaultSite::kTranNonConvergence,
        FaultSite::kRouteFailure, FaultSite::kNanMetric}) {
    EXPECT_EQ(chaos_count(report.diagnostics, site),
              static_cast<std::size_t>(inj.fired(site)))
        << fault_site_name(site);
    if (inj.fired(site) > 0) ++sites_fired;
  }
  EXPECT_GE(sites_fired, 2);
  EXPECT_GE(inj.total_fired(), 4);
  EXPECT_TRUE(report.budget.exhausted);

  // Structurally complete realization regardless of what fired.
  for (const circuits::InstanceSpec& inst : ota.instances()) {
    EXPECT_TRUE(real.layouts.count(inst.name)) << inst.name;
  }
  for (const auto& [name, options] : report.options) {
    ASSERT_FALSE(options.empty()) << name;
    for (const core::LayoutCandidate& cand : options) {
      EXPECT_TRUE(std::isfinite(cand.cost.total)) << name;
    }
    ASSERT_TRUE(report.chosen_option.count(name)) << name;
  }
  // Budget accounting stays consistent: whatever tripped, the status report
  // and the degraded flag agree with the diagnostics.
  EXPECT_LE(report.budget.testbenches_consumed, 60 + 8);
  if (report.budget.exhausted) {
    EXPECT_NE(report.budget.tripped, BudgetKind::kNone);
    EXPECT_TRUE(report.degraded);
    bool has_budget_diag = false;
    for (const Diagnostic& d : report.diagnostics) {
      if (d.stage == "budget") has_budget_diag = true;
    }
    EXPECT_TRUE(has_budget_diag);
  }
  if (report.degraded) {
    EXPECT_FALSE(report.diagnostics.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosWithBudget,
                         ::testing::Values(1u, 7u, 42u, 1234u));

TEST(ChaosPooled, FaultsComposeWithPoolDelaysAndTightBudget) {
  // Everything at once: 4 worker threads whose task claim/completion order
  // is scrambled by injected per-task delays, simulator/metric faults, the
  // eval cache on, and a tight testbench budget. The flow must still
  // complete with a structurally consistent report — and the count-based
  // fault accounting must stay exact under worker interleaving.
  set_log_level(LogLevel::kOff);
  circuits::Ota5T ota(t());
  ASSERT_TRUE(ota.prepare());

  circuits::FlowOptions fopt;
  fopt.budget_limits.max_testbenches = 60;
  fopt.num_threads = 4;
  fopt.eval_cache = true;
  const circuits::FlowEngine engine(t(), fopt);

  FaultConfig config;
  config.seed = 42;
  config.op_rate = 0.05;
  config.tran_rate = 0.05;
  config.nan_metric_rate = 0.05;
  config.pool_delay_rate = 0.5;

  circuits::FlowReport report;
  circuits::Realization real;
  {
    ScopedFaultInjection chaos(config);
    ASSERT_NO_THROW(real = engine.run(circuits::FlowMode::kOptimize, ota.instances(), ota.routed_nets(),
                                           &report));
  }
  set_log_level(LogLevel::kWarn);
  FaultInjector& inj = FaultInjector::global();

  // The pool actually ran tasks through the delay site.
  EXPECT_GT(inj.fired(FaultSite::kPoolTaskDelay), 0);
  // Exact accounting per evaluator-side site, despite worker interleaving.
  for (FaultSite site :
       {FaultSite::kOpNonConvergence, FaultSite::kTranNonConvergence,
        FaultSite::kNanMetric}) {
    EXPECT_EQ(chaos_count(report.diagnostics, site),
              static_cast<std::size_t>(inj.fired(site)))
        << fault_site_name(site);
  }
  for (const circuits::InstanceSpec& inst : ota.instances()) {
    EXPECT_TRUE(real.layouts.count(inst.name)) << inst.name;
  }
  for (const auto& [name, options] : report.options) {
    ASSERT_FALSE(options.empty()) << name;
    for (const core::LayoutCandidate& cand : options) {
      EXPECT_TRUE(std::isfinite(cand.cost.total)) << name;
    }
    ASSERT_TRUE(report.chosen_option.count(name)) << name;
  }
  // With up to 4 testbench batches in flight when the budget trips, the
  // overshoot bound scales with the thread count.
  EXPECT_LE(report.budget.testbenches_consumed, 60 + 8 * 4);
  if (report.budget.exhausted) {
    EXPECT_NE(report.budget.tripped, BudgetKind::kNone);
    EXPECT_TRUE(report.degraded);
  }
  if (report.degraded) {
    EXPECT_FALSE(report.diagnostics.empty());
  }
}

TEST(Chaos, CleanRunReportsNothing) {
  // With injection disabled (the default), the flow reports no diagnostics
  // and no degradation on the healthy OTA.
  set_log_level(LogLevel::kError);
  circuits::Ota5T ota(t());
  ASSERT_TRUE(ota.prepare());
  const circuits::FlowEngine engine(t(), {});
  circuits::FlowReport report;
  engine.run(circuits::FlowMode::kOptimize, ota.instances(), ota.routed_nets(), &report);
  EXPECT_FALSE(report.degraded);
  EXPECT_TRUE(report.diagnostics.empty());
}

TEST(Chaos, TranFaultSiteFiresInStarvedInverterEvaluation) {
  // The OTA flow has no transient testbench; cover the tran site through the
  // current-starved inverter, whose delay bench is the only tran user. The
  // injected failure must engage the backward-Euler retry and still produce
  // finite metrics.
  set_log_level(LogLevel::kOff);
  const pcell::PrimitiveGenerator gen(t());
  pcell::LayoutConfig cfg;
  cfg.nfin = 8;
  cfg.nf = 4;
  cfg.m = 1;
  const pcell::PrimitiveLayout lay =
      gen.generate(pcell::make_current_starved_inverter(), cfg);
  core::BiasContext bias;
  bias.vdd = t().vdd;
  bias.port_voltage = {{"vbn", 0.4}, {"vbp", t().vdd - 0.4}};
  bias.port_load_cap = {{"out", 4e-15}};
  core::PrimitiveEvaluator eval(t(), circuits::default_nmos(),
                                circuits::default_pmos(), bias);
  DiagnosticsSink sink;
  eval.set_diagnostics(&sink);

  FaultConfig config;
  config.seed = 7;
  config.tran_rate = 1.0;
  config.max_total_fires = 1;  // first tran attempt fails, retries are clean
  core::MetricValues values;
  {
    ScopedFaultInjection chaos(config);
    core::EvalCondition cond;  // extracted mode
    values = eval.evaluate(lay, cond);
  }
  set_log_level(LogLevel::kWarn);
  EXPECT_EQ(FaultInjector::global().fired(FaultSite::kTranNonConvergence), 1);
  EXPECT_EQ(sink.count("chaos", fault_site_name(FaultSite::kTranNonConvergence)),
            1u);
  // The retry ladder reported its fallback and ultimately delivered a real
  // (finite) delay.
  EXPECT_GE(sink.count("simulator", "tran"), 1u);
  for (const auto& [kind, value] : values) {
    EXPECT_TRUE(std::isfinite(value)) << core::metric_name(kind);
  }
  EXPECT_GT(values.at(core::MetricKind::kDelay), 0.0);
}

// --- site identity ----------------------------------------------------------

TEST(ChaosSites, NewSiteNamesAreStable) {
  // Diagnostics name a site by these strings, and the draw hash mixes in the
  // site number, so both must stay fixed for the fire counts above to hold.
  EXPECT_EQ(kNumFaultSites, 5);
  const std::pair<FaultSite, const char*> sites[] = {
      {FaultSite::kOpNonConvergence, "op"},
      {FaultSite::kTranNonConvergence, "tran"},
      {FaultSite::kRouteFailure, "route"},
      {FaultSite::kNanMetric, "nan_metric"},
      {FaultSite::kPoolTaskDelay, "pool_delay"},
  };
  for (int i = 0; i < kNumFaultSites; ++i) {
    EXPECT_EQ(static_cast<int>(sites[i].first), i);
    EXPECT_STREQ(fault_site_name(sites[i].first), sites[i].second);
  }
}

}  // namespace
}  // namespace olp
