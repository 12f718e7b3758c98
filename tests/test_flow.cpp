// Integration tests for the full flow (Fig. 1 with the paper's two inserted
// optimization steps) and its baselines on the 5T OTA.

#include <gtest/gtest.h>

#include <cstdint>

#include "circuits/flow.hpp"
#include "circuits/ota5t.hpp"
#include "circuits/strongarm.hpp"
#include "circuits/vco.hpp"
#include "flow_golden.hpp"
#include "util/logging.hpp"
#include "util/obs.hpp"

namespace olp::circuits {
namespace {

const tech::Technology& t() {
  static const tech::Technology tech = tech::make_default_finfet_tech();
  return tech;
}

/// Shared fixture: prepare the OTA and run the flow variants once.
class FlowOnOta : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    set_log_level(LogLevel::kError);
    ota_ = new Ota5T(t());
    ASSERT_TRUE(ota_->prepare());
    engine_ = new FlowEngine(t(), {});
    optimized_ = new Realization(engine_->run(FlowMode::kOptimize,
        ota_->instances(), ota_->routed_nets(), &opt_report_));
    conventional_ = new Realization(engine_->run(FlowMode::kConventional,
        ota_->instances(), ota_->routed_nets(), &conv_report_));
  }
  static void TearDownTestSuite() {
    delete optimized_;
    delete conventional_;
    delete engine_;
    delete ota_;
  }

  static Ota5T* ota_;
  static FlowEngine* engine_;
  static Realization* optimized_;
  static Realization* conventional_;
  static FlowReport opt_report_;
  static FlowReport conv_report_;
};

Ota5T* FlowOnOta::ota_ = nullptr;
FlowEngine* FlowOnOta::engine_ = nullptr;
Realization* FlowOnOta::optimized_ = nullptr;
Realization* FlowOnOta::conventional_ = nullptr;
FlowReport FlowOnOta::opt_report_;
FlowReport FlowOnOta::conv_report_;

TEST_F(FlowOnOta, RealizationsAreComplete) {
  for (const Realization* real : {optimized_, conventional_}) {
    EXPECT_FALSE(real->ideal);
    for (const InstanceSpec& inst : ota_->instances()) {
      EXPECT_TRUE(real->layouts.count(inst.name)) << inst.name;
    }
  }
}

TEST_F(FlowOnOta, EveryInstanceGotOptionsPerBin) {
  EXPECT_EQ(opt_report_.options.size(), ota_->instances().size());
  for (const InstanceSpec& inst : ota_->instances()) {
    const auto it = opt_report_.options.find(inst.name);
    ASSERT_NE(it, opt_report_.options.end()) << inst.name;
    EXPECT_GE(it->second.size(), 1u);
    EXPECT_LE(it->second.size(), 3u);
  }
}

TEST_F(FlowOnOta, PlacementIsLegalAndRoutesExist) {
  EXPECT_TRUE(opt_report_.placement.legal);
  EXPECT_GT(opt_report_.placement.width, 0.0);
  for (const std::string& net : ota_->routed_nets()) {
    const auto it = opt_report_.routes.find(net);
    ASSERT_NE(it, opt_report_.routes.end()) << net;
    EXPECT_TRUE(it->second.routed) << net;
  }
}

TEST_F(FlowOnOta, ConstraintsAndDecisionsProduced) {
  EXPECT_FALSE(opt_report_.constraints.empty());
  EXPECT_FALSE(opt_report_.decisions.empty());
  for (const core::NetWireDecision& d : opt_report_.decisions) {
    EXPECT_GE(d.parallel_routes, 1);
    EXPECT_LE(d.parallel_routes, kMaxPortWires);
  }
}

TEST_F(FlowOnOta, SymmetricNetsShareWireCount) {
  // The DP joins d1 and out through its symmetric drain ports: the final
  // decisions must agree.
  int w_d1 = -1, w_out = -1;
  for (const core::NetWireDecision& d : opt_report_.decisions) {
    if (d.circuit_net == "d1") w_d1 = d.parallel_routes;
    if (d.circuit_net == "out") w_out = d.parallel_routes;
  }
  ASSERT_GT(w_d1, 0);
  ASSERT_GT(w_out, 0);
  EXPECT_EQ(w_d1, w_out);
}

TEST_F(FlowOnOta, OptimizedBeatsConventionalOnUgf) {
  const auto conv = ota_->measure(*conventional_);
  const auto opt = ota_->measure(*optimized_);
  const auto sch =
      ota_->measure(schematic_realization(ota_->instances(), t()));
  ASSERT_TRUE(conv.count("ugf_ghz"));
  ASSERT_TRUE(opt.count("ugf_ghz"));
  // The paper's headline: this work recovers most of the conventional loss.
  EXPECT_GT(opt.at("ugf_ghz"), conv.at("ugf_ghz"));
  EXPECT_GT(opt.at("current_ua"), conv.at("current_ua"));
  // And stays below/near the schematic.
  EXPECT_LT(opt.at("ugf_ghz"), 1.1 * sch.at("ugf_ghz"));
  // Within 25% of schematic current (paper: within 1%).
  EXPECT_GT(opt.at("current_ua"), 0.75 * sch.at("current_ua"));
}

TEST_F(FlowOnOta, ConventionalUsesNoDummiesAndFixedWires) {
  for (const auto& [name, lay] : conventional_->layouts) {
    EXPECT_FALSE(lay.config.dummies) << name;
  }
  EXPECT_TRUE(conventional_->tunings.empty());
}

TEST_F(FlowOnOta, ReportCountsRuntimeAndSimulations) {
  EXPECT_GT(opt_report_.runtime_s, 0.0);
  EXPECT_GT(opt_report_.testbenches, 50);
}

TEST(FlowEngine, ManualOracleAtLeastAsGoodAsFlowOnCost) {
  set_log_level(LogLevel::kError);
  Ota5T ota(t());
  ASSERT_TRUE(ota.prepare());
  FlowEngine engine(t(), {});
  const Realization opt =
      engine.run(FlowMode::kOptimize, ota.instances(), ota.routed_nets(), nullptr);
  const Realization manual =
      engine.run(FlowMode::kManualOracle, ota.instances(), ota.routed_nets(), nullptr);
  const auto m_opt = ota.measure(opt);
  const auto m_man = ota.measure(manual);
  // Both land in the same performance neighborhood (paper: "competitive
  // with manual layout").
  EXPECT_NEAR(m_man.at("ugf_ghz"), m_opt.at("ugf_ghz"),
              0.3 * m_opt.at("ugf_ghz"));
}

TEST(FlowEngine, TrialFloorplansArePlacedNotRouted) {
  // The option choice scores each trial floorplan on its placement alone, so
  // only the final floorplan is routed, and a trial spends one budget check
  // on itself and one per annealing iteration.
  set_log_level(LogLevel::kError);
  Ota5T ota(t());
  ASSERT_TRUE(ota.prepare());
  ASSERT_EQ(ota.routed_nets().size(), 3u);
  obs::ScopedObservability scoped;
  const FlowOptions opt;
  FlowReport report;
  FlowEngine(t(), opt).run(FlowMode::kOptimize, ota.instances(),
                           ota.routed_nets(), &report);
  const obs::Snapshot& snap = report.telemetry.snapshot;
  const long trials = snap.counter("flow.combo_trials");
  EXPECT_GT(trials, 1);
  EXPECT_EQ(snap.counter("placer.runs"), trials + 1);
  EXPECT_EQ(snap.counter("router.nets"), 3);
  EXPECT_EQ(report.routes.size(), 3u);
  EXPECT_EQ(snap.counter("budget.checks.combo"),
            trials * (1 + opt.combo_place_iterations));
}

TEST(FlowEngine, DedupMergesOnlyInterchangeableInstances) {
  // Algorithm 1 runs once per distinct evaluation context: two instances
  // that differ only in a port load, or in a port voltage by less than a
  // millivolt, are different problems and each gets its own options, while
  // an exact copy reuses the first one's result.
  set_log_level(LogLevel::kError);
  Ota5T ota(t());
  ASSERT_TRUE(ota.prepare());
  InstanceSpec base;
  for (const InstanceSpec& inst : ota.instances()) {
    if (inst.name == "cmtail") base = inst;
  }
  ASSERT_EQ(base.name, "cmtail");
  ASSERT_TRUE(base.bias.port_load_cap.count("out"));
  ASSERT_TRUE(base.bias.port_voltage.count("out"));
  InstanceSpec loaded = base;
  loaded.name = "loaded";
  loaded.bias.port_load_cap["out"] *= 3.0;
  InstanceSpec shifted = base;
  shifted.name = "shifted";
  shifted.bias.port_voltage["out"] += 1e-5;
  InstanceSpec copy = base;
  copy.name = "copy";

  obs::ScopedObservability scoped;
  const FlowEngine engine(t(), {});
  const auto run = [&engine](const std::vector<InstanceSpec>& instances) {
    FlowReport report;
    engine.run(FlowMode::kOptimize, instances, {}, &report);
    return report;
  };
  const FlowReport joint = run({base, loaded, shifted});
  EXPECT_EQ(joint.telemetry.snapshot.counter("flow.dedup_hits"), 0);
  for (const InstanceSpec& inst : {base, loaded, shifted}) {
    SCOPED_TRACE(inst.name);
    const FlowReport solo = run({inst});
    const std::vector<core::LayoutCandidate>& got = joint.options.at(inst.name);
    const std::vector<core::LayoutCandidate>& want = solo.options.at(inst.name);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      expect_same_candidate(got[i], want[i], std::to_string(i));
    }
  }

  const FlowReport with_copy = run({base, copy});
  EXPECT_EQ(with_copy.telemetry.snapshot.counter("flow.dedup_hits"), 1);
  EXPECT_EQ(with_copy.options.at("copy").size(),
            with_copy.options.at("cmtail").size());
}

// Every decision of the OTA, StrongARM and RO-VCO flows, optimize and
// conventional, and of the OTA and StrongARM manual-oracle flows, at placer
// seeds 1, 7 and 1003: one hash per flow over every field FlowFields walks,
// plus the flow's testbench and budget check counts, which the hash leaves
// out but the fuel-limit tests place their trips by.
TEST(Flow, MatchesParentBitForBit) {
  set_log_level(LogLevel::kError);
  Ota5T ota(t());
  StrongArmComparator strongarm(t());
  RoVco vco(t());
  ASSERT_TRUE(ota.prepare());
  ASSERT_TRUE(strongarm.prepare());
  ASSERT_TRUE(vco.prepare());
  const std::vector<FlowMode> all_modes = {
      FlowMode::kOptimize, FlowMode::kConventional, FlowMode::kManualOracle};
  struct Circuit {
    const char* name;
    const std::vector<InstanceSpec>& instances;
    std::vector<std::string> routed_nets;
    std::vector<FlowMode> modes;
  };
  const Circuit circuits[] = {
      {"ota", ota.instances(), ota.routed_nets(), all_modes},
      {"strongarm", strongarm.instances(), strongarm.routed_nets(), all_modes},
      {"vco", vco.instances(), vco.routed_nets(),
       {FlowMode::kOptimize, FlowMode::kConventional}},
  };
  Goldens goldens("flow/");
  for (const Circuit& c : circuits) {
    for (const FlowMode mode : c.modes) {
      for (const std::uint64_t seed : {1, 7, 1003}) {
        FlowOptions opt;
        opt.seed = seed;
        FlowReport report;
        const Realization real =
            FlowEngine(t(), opt).run(mode, c.instances, c.routed_nets, &report);
        goldens.check(std::string(c.name) + "/" + flow_mode_name(mode) +
                          "/s" + std::to_string(seed),
                      {{"hash", hex64(flow_result_hash(report, real))},
                       {"testbenches", std::to_string(report.testbenches)},
                       {"checks", std::to_string(report.budget.checks)}});
      }
    }
  }
}

}  // namespace
}  // namespace olp::circuits
