// Deadline- and budget-bounded execution tests (util/budget + flow
// integration): every budget dimension must trip deterministically, every
// flow stage must salvage a valid best-so-far result under exhaustion, and
// limits that are never reached must leave the flow bit-identical to an
// unbudgeted run.

#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>

#include "circuits/assembly.hpp"
#include "circuits/flow.hpp"
#include "circuits/ota5t.hpp"
#include "geom/drc.hpp"
#include "util/budget.hpp"
#include "util/logging.hpp"
#include "util/obs.hpp"

namespace olp {
namespace {

const tech::Technology& t() {
  static const tech::Technology tech = tech::make_default_finfet_tech();
  return tech;
}

/// Clears the budget env overrides so option-driven tests are hermetic.
void clear_budget_env() {
  unsetenv("OLP_DEADLINE_MS");
  unsetenv("OLP_TESTBENCH_BUDGET");
}

// ---------------------------------------------------------------------------
// Budget unit tests (no flow).

TEST(Budget, UnlimitedNeverTrips) {
  Budget b;
  EXPECT_FALSE(b.limited());
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(b.check());
  b.consume_testbench(1'000'000);
  EXPECT_FALSE(b.check());
  EXPECT_FALSE(b.exhausted());
  EXPECT_EQ(b.tripped(), BudgetKind::kNone);
  EXPECT_EQ(b.checks(), 1001);
  const BudgetStatus s = b.status();
  EXPECT_FALSE(s.limited);
  EXPECT_FALSE(s.exhausted);
  EXPECT_EQ(s.testbench_limit, -1);
  EXPECT_EQ(s.check_limit, -1);
  EXPECT_EQ(s.deadline_s, 0.0);
}

TEST(Budget, MaxChecksTripsExactlyAfterLimit) {
  BudgetOptions opt;
  opt.max_checks = 10;
  Budget b(opt);
  EXPECT_TRUE(b.limited());
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(b.check()) << "check " << i;
  EXPECT_TRUE(b.check());  // 11th probe exceeds the fuel budget
  EXPECT_EQ(b.tripped(), BudgetKind::kChecks);
  // Sticky: every later probe stays tripped.
  EXPECT_TRUE(b.check());
  EXPECT_TRUE(b.exhausted());
}

TEST(Budget, TestbenchBudgetEnforcedAtNextCheck) {
  BudgetOptions opt;
  opt.max_testbenches = 5;
  Budget b(opt);
  b.consume_testbench(4);
  EXPECT_FALSE(b.check());
  b.consume_testbench();  // hits the limit; enforcement is deferred
  EXPECT_FALSE(b.exhausted());
  EXPECT_TRUE(b.check());
  EXPECT_EQ(b.tripped(), BudgetKind::kTestbenches);
}

TEST(Budget, ZeroTestbenchBudgetTripsOnFirstCheck) {
  BudgetOptions opt;
  opt.max_testbenches = 0;
  Budget b(opt);
  EXPECT_TRUE(b.check());
  EXPECT_EQ(b.tripped(), BudgetKind::kTestbenches);
}

TEST(Budget, DeadlineTrips) {
  BudgetOptions opt;
  opt.deadline_s = 1e-4;
  Budget b(opt);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_TRUE(b.check());
  EXPECT_EQ(b.tripped(), BudgetKind::kDeadline);
  EXPECT_GE(b.status().elapsed_s, opt.deadline_s);
}

TEST(Budget, KindNamesAndStatusString) {
  EXPECT_STREQ(budget_kind_name(BudgetKind::kNone), "none");
  EXPECT_STREQ(budget_kind_name(BudgetKind::kDeadline), "deadline");
  EXPECT_STREQ(budget_kind_name(BudgetKind::kTestbenches), "testbenches");
  EXPECT_STREQ(budget_kind_name(BudgetKind::kChecks), "checks");
  BudgetOptions opt;
  opt.max_checks = 1;
  Budget b(opt);
  b.check();
  b.check();
  const std::string s = b.status().to_string();
  EXPECT_NE(s.find("checks"), std::string::npos);
  EXPECT_NE(s.find("exhausted"), std::string::npos);
  EXPECT_FALSE(b.description().empty());
}

TEST(Budget, EnvOverridesParseStrictly) {
  setenv("OLP_DEADLINE_MS", "250", 1);
  setenv("OLP_TESTBENCH_BUDGET", "7", 1);
  BudgetOptions opt = budget_options_from_env();
  EXPECT_DOUBLE_EQ(opt.deadline_s, 0.25);
  EXPECT_EQ(opt.max_testbenches, 7);
  // Non-numeric values leave the base untouched.
  setenv("OLP_DEADLINE_MS", "soon", 1);
  setenv("OLP_TESTBENCH_BUDGET", "12abc", 1);
  BudgetOptions base;
  base.deadline_s = 1.5;
  base.max_testbenches = 3;
  opt = budget_options_from_env(base);
  EXPECT_DOUBLE_EQ(opt.deadline_s, 1.5);
  EXPECT_EQ(opt.max_testbenches, 3);
  // Counts that are not finite or do not fit in long are malformed too.
  for (const char* out_of_range : {"1e30", "inf", "nan"}) {
    setenv("OLP_TESTBENCH_BUDGET", out_of_range, 1);
    EXPECT_EQ(budget_options_from_env(base).max_testbenches, 3)
        << out_of_range;
  }
  // So are deadlines whose millisecond value does not fit in long, and a
  // deadline of 0 ms, which would lift the configured one.
  for (const char* malformed : {"inf", "1e300", "nan", "0"}) {
    setenv("OLP_DEADLINE_MS", malformed, 1);
    EXPECT_DOUBLE_EQ(budget_options_from_env(base).deadline_s, 1.5)
        << malformed;
  }
  clear_budget_env();
  opt = budget_options_from_env();
  EXPECT_FALSE(opt.limited());
}

TEST(Budget, MonotonicStopwatchNeverGoesBackwards) {
  MonotonicStopwatch w;
  double last = w.seconds();
  EXPECT_GE(last, 0.0);
  for (int i = 0; i < 100; ++i) {
    const double now = w.seconds();
    EXPECT_GE(now, last);
    last = now;
  }
}

// ---------------------------------------------------------------------------
// Flow integration: every stage salvages under exhaustion.

/// Subject of the first stage-boundary budget diagnostic — the stage whose
/// work the budget interrupted first. Scans the canonical stage order rather
/// than record positions: stage checkpoints always fire on the main thread
/// in this order, but under a task pool worker-thread diagnostics interleave
/// with them in the record vector, so position-based "first" is unstable.
std::string first_budget_stage(const circuits::FlowReport& report) {
  for (const char* stage :
       {"generation", "selection", "combo_choice", "placement", "routing",
        "port_optimization"}) {
    for (const Diagnostic& d : report.diagnostics) {
      if (d.stage == "budget" && d.subject == stage) return stage;
    }
  }
  return "";
}

/// A salvaged realization must be structurally complete and DRC-consistent:
/// one layout per instance, each individually design-rule clean.
void expect_complete_realization(const circuits::Realization& real,
                                 const circuits::Ota5T& ota) {
  for (const circuits::InstanceSpec& inst : ota.instances()) {
    ASSERT_TRUE(real.layouts.count(inst.name)) << inst.name;
    const std::vector<geom::DrcViolation> v =
        geom::check_design_rules(t(), real.layouts.at(inst.name).geometry);
    EXPECT_TRUE(v.empty()) << inst.name << ": "
                           << (v.empty() ? "" : v.front().to_string());
  }
}

class BudgetFlow : public ::testing::Test {
 protected:
  void SetUp() override {
    set_log_level(LogLevel::kOff);
    clear_budget_env();
    ota_ = std::make_unique<circuits::Ota5T>(t());
    ASSERT_TRUE(ota_->prepare());
  }
  void TearDown() override { set_log_level(LogLevel::kWarn); }

  std::unique_ptr<circuits::Ota5T> ota_;
};

TEST_F(BudgetFlow, ZeroTestbenchBudgetDegradesEverywhereButReturns) {
  circuits::FlowOptions fopt;
  fopt.budget_limits.max_testbenches = 0;
  const circuits::FlowEngine engine(t(), fopt);
  circuits::FlowReport report;
  circuits::Realization real;
  ASSERT_NO_THROW(
      real = engine.run(circuits::FlowMode::kOptimize, ota_->instances(), ota_->routed_nets(), &report));
  EXPECT_TRUE(report.degraded);
  EXPECT_TRUE(report.budget.exhausted);
  EXPECT_EQ(report.budget.tripped, BudgetKind::kTestbenches);
  EXPECT_EQ(first_budget_stage(report), "selection");
  // Every stage boundary reports its degradation.
  for (const char* stage : {"selection", "combo_choice", "placement",
                            "routing", "port_optimization"}) {
    bool found = false;
    for (const Diagnostic& d : report.diagnostics) {
      if (d.stage == "budget" && d.subject == stage) found = true;
    }
    EXPECT_TRUE(found) << stage;
  }
  expect_complete_realization(real, *ota_);
  // The salvaged result still assembles into a top-level layout.
  const geom::Layout top =
      circuits::assemble_layout(t(), ota_->instances(), real, report);
  EXPECT_FALSE(top.shapes().empty());
  // Options still exist per instance (the quarantined fallback candidate).
  for (const circuits::InstanceSpec& inst : ota_->instances()) {
    ASSERT_TRUE(report.options.count(inst.name)) << inst.name;
    EXPECT_FALSE(report.options.at(inst.name).empty()) << inst.name;
    ASSERT_TRUE(report.chosen_option.count(inst.name)) << inst.name;
  }
  EXPECT_EQ(report.testbenches, 0);
}

TEST_F(BudgetFlow, TestbenchBudgetTripsMidSelection) {
  circuits::FlowOptions fopt;
  fopt.budget_limits.max_testbenches = 30;  // selection alone needs hundreds
  const circuits::FlowEngine engine(t(), fopt);
  circuits::FlowReport report;
  const circuits::Realization real =
      engine.run(circuits::FlowMode::kOptimize, ota_->instances(), ota_->routed_nets(), &report);
  EXPECT_TRUE(report.degraded);
  EXPECT_EQ(report.budget.tripped, BudgetKind::kTestbenches);
  EXPECT_EQ(first_budget_stage(report), "selection");
  // Overshoot is at most one in-flight testbench beyond the budget... but a
  // single "testbench" site may batch a handful of simulator calls before
  // the next check; allow a small constant slack.
  EXPECT_LE(report.budget.testbenches_consumed, 30 + 8);
  expect_complete_realization(real, *ota_);
}

TEST_F(BudgetFlow, TestbenchBudgetTripsMidSelectionWithPool) {
  // Same tight budget, but with two worker threads racing to consume it.
  // The first-trip-wins CAS in Budget means exactly one trip is recorded,
  // the stage attribution is unchanged (stage checkpoints run on the main
  // thread in canonical order), and the salvage contract still holds.
  circuits::FlowOptions fopt;
  fopt.budget_limits.max_testbenches = 30;
  fopt.num_threads = 2;
  const circuits::FlowEngine engine(t(), fopt);
  circuits::FlowReport report;
  const circuits::Realization real =
      engine.run(circuits::FlowMode::kOptimize, ota_->instances(), ota_->routed_nets(), &report);
  EXPECT_TRUE(report.degraded);
  EXPECT_EQ(report.budget.tripped, BudgetKind::kTestbenches);
  EXPECT_EQ(first_budget_stage(report), "selection");
  // Two in-flight testbench batches can overshoot before their next check.
  EXPECT_LE(report.budget.testbenches_consumed, 30 + 8 * 2);
  expect_complete_realization(real, *ota_);
}

/// Probe run: unlimited budget with observability on, returning the
/// deterministic per-stage check counts the flow emits at stage boundaries.
std::map<std::string, long> probe_stage_checks(const circuits::Ota5T& ota) {
  obs::ScopedObservability scoped;
  const circuits::FlowEngine engine(t(), {});
  circuits::FlowReport report;
  engine.run(circuits::FlowMode::kOptimize, ota.instances(), ota.routed_nets(), &report);
  std::map<std::string, long> checks;
  for (const char* stage :
       {"selection", "combo", "placement", "routing", "portopt"}) {
    const std::string name = std::string("budget.checks.") + stage;
    checks[stage] = report.telemetry.snapshot.counter(name);
  }
  return checks;
}

TEST_F(BudgetFlow, CheckBudgetLandsMidPlacementAndMidRouting) {
  const std::map<std::string, long> checks = probe_stage_checks(*ota_);
  ASSERT_GT(checks.at("placement"), 2);
  ASSERT_GT(checks.at("routing"), 0);
  const long before_placement = checks.at("selection") + checks.at("combo");
  const long before_routing = before_placement + checks.at("placement");

  // Check-count fuel is deterministic: the same flow consumes the same
  // checks, so a limit inside a stage's window trips inside that stage.
  {
    circuits::FlowOptions fopt;
    fopt.budget_limits.max_checks =
        before_placement + checks.at("placement") / 2;
    const circuits::FlowEngine engine(t(), fopt);
    circuits::FlowReport report;
    const circuits::Realization real =
        engine.run(circuits::FlowMode::kOptimize, ota_->instances(), ota_->routed_nets(), &report);
    EXPECT_TRUE(report.degraded);
    EXPECT_EQ(report.budget.tripped, BudgetKind::kChecks);
    EXPECT_EQ(first_budget_stage(report), "placement");
    expect_complete_realization(real, *ota_);
    // The salvaged placement is still a legal (overlap-free) packing.
    EXPECT_TRUE(report.placement.legal);
  }
  {
    circuits::FlowOptions fopt;
    fopt.budget_limits.max_checks = before_routing + checks.at("routing") / 2;
    const circuits::FlowEngine engine(t(), fopt);
    circuits::FlowReport report;
    const circuits::Realization real =
        engine.run(circuits::FlowMode::kOptimize, ota_->instances(), ota_->routed_nets(), &report);
    EXPECT_TRUE(report.degraded);
    EXPECT_EQ(report.budget.tripped, BudgetKind::kChecks);
    EXPECT_EQ(first_budget_stage(report), "routing");
    expect_complete_realization(real, *ota_);
    // Placement survived untouched; un-routed nets are reported, not lost.
    EXPECT_TRUE(report.placement.legal);
    for (const std::string& net : ota_->routed_nets()) {
      EXPECT_TRUE(report.routes.count(net)) << net;
    }
  }
}

TEST_F(BudgetFlow, TinyDeadlineStillReturnsValidRealization) {
  circuits::FlowOptions fopt;
  fopt.budget_limits.deadline_s = 0.005;
  const circuits::FlowEngine engine(t(), fopt);
  circuits::FlowReport report;
  circuits::Realization real;
  ASSERT_NO_THROW(
      real = engine.run(circuits::FlowMode::kOptimize, ota_->instances(), ota_->routed_nets(), &report));
  EXPECT_TRUE(report.degraded);
  EXPECT_TRUE(report.budget.exhausted);
  EXPECT_EQ(report.budget.tripped, BudgetKind::kDeadline);
  EXPECT_FALSE(first_budget_stage(report).empty());
  expect_complete_realization(real, *ota_);
  // Prompt termination: far below the unbounded runtime, generous margin for
  // loaded CI machines.
  EXPECT_LT(report.runtime_s, 5.0);
}

TEST_F(BudgetFlow, ConventionalAndOracleDegradeGracefully) {
  circuits::FlowOptions fopt;
  fopt.budget_limits.max_testbenches = 0;
  const circuits::FlowEngine engine(t(), fopt);
  circuits::FlowReport conv_report;
  circuits::Realization conv;
  ASSERT_NO_THROW(conv = engine.run(circuits::FlowMode::kConventional, ota_->instances(),
                                             ota_->routed_nets(),
                                             &conv_report));
  EXPECT_TRUE(conv_report.degraded);
  EXPECT_TRUE(conv_report.budget.exhausted);
  expect_complete_realization(conv, *ota_);

  circuits::FlowReport oracle_report;
  circuits::Realization oracle;
  ASSERT_NO_THROW(oracle = engine.run(circuits::FlowMode::kManualOracle, ota_->instances(),
                                                ota_->routed_nets(),
                                                &oracle_report));
  EXPECT_TRUE(oracle_report.degraded);
  EXPECT_TRUE(oracle_report.budget.exhausted);
  EXPECT_EQ(first_budget_stage(oracle_report), "selection");
  expect_complete_realization(oracle, *ota_);
}

TEST_F(BudgetFlow, UnlimitedBudgetBitIdenticalToUnbudgeted) {
  const circuits::FlowEngine engine(t(), {});
  circuits::FlowReport plain_report;
  const circuits::Realization plain =
      engine.run(circuits::FlowMode::kOptimize, ota_->instances(), ota_->routed_nets(), &plain_report);

  // Limits that are set but never reached: no flow code branches on
  // whether a limit exists, only on a trip.
  circuits::FlowOptions fopt;
  fopt.budget_limits.deadline_s = 3600.0;
  fopt.budget_limits.max_testbenches = 1'000'000'000;
  const circuits::FlowEngine budgeted_engine(t(), fopt);
  circuits::FlowReport budgeted_report;
  const circuits::Realization budgeted =
      budgeted_engine.run(circuits::FlowMode::kOptimize, ota_->instances(),
                          ota_->routed_nets(), &budgeted_report);

  // check() fed nothing back: the runs are bit-identical.
  EXPECT_FALSE(plain_report.budget.limited);
  EXPECT_TRUE(budgeted_report.budget.limited);
  EXPECT_FALSE(budgeted_report.degraded);
  EXPECT_FALSE(budgeted_report.budget.exhausted);
  EXPECT_GT(budgeted_report.budget.checks, 0);
  EXPECT_EQ(plain_report.budget.checks, budgeted_report.budget.checks);
  EXPECT_EQ(plain_report.testbenches, budgeted_report.testbenches);
  EXPECT_EQ(plain_report.chosen_option, budgeted_report.chosen_option);
  ASSERT_EQ(plain_report.placement.blocks.size(),
            budgeted_report.placement.blocks.size());
  for (std::size_t i = 0; i < plain_report.placement.blocks.size(); ++i) {
    EXPECT_EQ(plain_report.placement.blocks[i].x,
              budgeted_report.placement.blocks[i].x);
    EXPECT_EQ(plain_report.placement.blocks[i].y,
              budgeted_report.placement.blocks[i].y);
    EXPECT_EQ(plain_report.placement.blocks[i].mirrored,
              budgeted_report.placement.blocks[i].mirrored);
  }
  ASSERT_EQ(plain_report.routes.size(), budgeted_report.routes.size());
  for (const auto& [net, route] : plain_report.routes) {
    ASSERT_TRUE(budgeted_report.routes.count(net)) << net;
    const route::NetRoute& other = budgeted_report.routes.at(net);
    EXPECT_EQ(route.routed, other.routed) << net;
    EXPECT_EQ(route.segments.size(), other.segments.size()) << net;
    EXPECT_EQ(route.vias, other.vias) << net;
    EXPECT_EQ(route.total_length(), other.total_length()) << net;
  }
  ASSERT_EQ(plain_report.decisions.size(), budgeted_report.decisions.size());
  for (std::size_t i = 0; i < plain_report.decisions.size(); ++i) {
    EXPECT_EQ(plain_report.decisions[i].circuit_net,
              budgeted_report.decisions[i].circuit_net);
    EXPECT_EQ(plain_report.decisions[i].parallel_routes,
              budgeted_report.decisions[i].parallel_routes);
  }
  ASSERT_EQ(plain.net_wires.size(), budgeted.net_wires.size());
  for (const auto& [net, wire] : plain.net_wires) {
    ASSERT_TRUE(budgeted.net_wires.count(net)) << net;
    EXPECT_EQ(wire.resistance, budgeted.net_wires.at(net).resistance) << net;
    EXPECT_EQ(wire.capacitance, budgeted.net_wires.at(net).capacitance)
        << net;
  }
}

TEST_F(BudgetFlow, HugeDeadlineSaturatesInTelemetry) {
  // A deadline beyond long in milliseconds reaches the flow through
  // FlowOptions; its telemetry must still report a positive deadline (it
  // reports the configured one: the telemetry's budget is the report's).
  circuits::FlowOptions fopt;
  fopt.budget_limits.deadline_s = 1e300;
  const circuits::FlowEngine engine(t(), fopt);
  circuits::FlowReport report;
  {
    obs::ScopedObservability scoped;
    engine.run(circuits::FlowMode::kConventional, ota_->instances(),
               ota_->routed_nets(), &report);
  }
  EXPECT_FALSE(report.budget.exhausted);
  ASSERT_TRUE(report.telemetry.enabled);
  EXPECT_EQ(report.telemetry.budget.deadline_s, 1e300);
}

TEST_F(BudgetFlow, TelemetryBudgetIsTheReportBudget) {
  // The run records its budget once: the telemetry's budget is the report's
  // status, field for field, and the telemetry JSON prints it.
  circuits::FlowOptions fopt;
  fopt.budget_limits.max_testbenches = 30;
  const circuits::FlowEngine engine(t(), fopt);
  circuits::FlowReport report;
  {
    obs::ScopedObservability scoped;
    engine.run(circuits::FlowMode::kOptimize, ota_->instances(),
               ota_->routed_nets(), &report);
  }
  ASSERT_TRUE(report.telemetry.enabled);
  ASSERT_EQ(report.budget.tripped, BudgetKind::kTestbenches);
  const BudgetStatus& want = report.budget;
  const BudgetStatus& got = report.telemetry.budget;
  EXPECT_EQ(got.limited, want.limited);
  EXPECT_EQ(got.exhausted, want.exhausted);
  EXPECT_EQ(got.tripped, want.tripped);
  EXPECT_EQ(got.elapsed_s, want.elapsed_s);
  EXPECT_EQ(got.deadline_s, want.deadline_s);
  EXPECT_EQ(got.testbenches_consumed, want.testbenches_consumed);
  EXPECT_EQ(got.testbench_limit, want.testbench_limit);
  EXPECT_EQ(got.checks, want.checks);
  EXPECT_EQ(got.check_limit, want.check_limit);
  const std::string json = obs::to_json(report.telemetry);
  EXPECT_NE(json.find("\"tripped\":\"testbenches\""), std::string::npos);
  EXPECT_NE(json.find("\"testbench_limit\":30,"), std::string::npos);
}

TEST_F(BudgetFlow, EnvDeadlineOverrideReachesTheFlow) {
  setenv("OLP_DEADLINE_MS", "5", 1);
  const circuits::FlowEngine engine(t(), {});
  circuits::FlowReport report;
  circuits::Realization real;
  ASSERT_NO_THROW(
      real = engine.run(circuits::FlowMode::kOptimize, ota_->instances(), ota_->routed_nets(), &report));
  clear_budget_env();
  EXPECT_TRUE(report.degraded);
  EXPECT_EQ(report.budget.tripped, BudgetKind::kDeadline);
  expect_complete_realization(real, *ota_);
}

}  // namespace
}  // namespace olp
