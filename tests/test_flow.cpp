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
    EXPECT_LE(d.parallel_routes, engine_->options().max_port_wires);
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

TEST_F(FlowOnOta, IdenticalInstancesDeduplicated) {
  // The two mirror instances have different bias signatures here, but the
  // options map must still exist for each instance independently.
  EXPECT_EQ(opt_report_.options.size(), ota_->instances().size());
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
// seeds 1, 7 and 1003: one hash per flow over the fields
// expect_same_flow_result() compares, plus the flow's testbench and budget
// check counts, which the hash leaves out but the fuel-limit tests place
// their trips by. The optimize and conventional hashes were recorded from
// the flow whose option choice placed and routed a trial floorplan per
// combination, with an annealer that scored every visited state afresh; the
// oracle rows and every count were recorded from the three per-mode flow
// bodies that preceded the shared flow skeleton.
TEST(Flow, MatchesParentBitForBit) {
  set_log_level(LogLevel::kError);
  Ota5T ota(t());
  StrongArmComparator strongarm(t());
  RoVco vco(t());
  ASSERT_TRUE(ota.prepare());
  ASSERT_TRUE(strongarm.prepare());
  ASSERT_TRUE(vco.prepare());
  struct Circuit {
    const char* name;
    const std::vector<InstanceSpec>& instances;
    std::vector<std::string> routed_nets;
  };
  const Circuit circuits[] = {
      {"ota", ota.instances(), ota.routed_nets()},
      {"strongarm", strongarm.instances(), strongarm.routed_nets()},
      {"vco", vco.instances(), vco.routed_nets()},
  };
  struct Golden {
    const char* circuit;
    FlowMode mode;
    std::uint64_t seed;
    std::uint64_t hash;
    long testbenches;
    long checks;
  };
  const Golden goldens[] = {
      {"ota", FlowMode::kOptimize, 1, 0x1314e35c86188c7cULL, 990, 60895},
      {"ota", FlowMode::kOptimize, 7, 0x73c983803f8bcd0dULL, 990, 60895},
      {"ota", FlowMode::kOptimize, 1003, 0x1314e35c86188c7cULL, 990, 60895},
      {"ota", FlowMode::kConventional, 1, 0xdcf73ebc0e99ffbfULL, 0, 8057},
      {"ota", FlowMode::kConventional, 7, 0xdcf73ebc0e99ffbfULL, 0, 8057},
      {"ota", FlowMode::kConventional, 1003, 0x6540d0f626ff31eeULL, 0, 8057},
      {"ota", FlowMode::kManualOracle, 1, 0x2188b9967decd81fULL, 1140, 21995},
      {"ota", FlowMode::kManualOracle, 7, 0x2188b9967decd81fULL, 1140, 21995},
      {"ota", FlowMode::kManualOracle, 1003, 0x2188b9967decd81fULL,
       1140, 21995},
      {"strongarm", FlowMode::kOptimize, 1, 0x45876d3b3954b037ULL, 1180, 19835},
      {"strongarm", FlowMode::kOptimize, 7, 0x8fcebe94adf27441ULL, 1150, 19618},
      {"strongarm", FlowMode::kOptimize, 1003, 0xb3a45ce9969f7ca2ULL,
       1198, 20120},
      {"strongarm", FlowMode::kConventional, 1, 0x68525f4a1546ede6ULL, 0, 8060},
      {"strongarm", FlowMode::kConventional, 7, 0x36f548a027675f99ULL, 0, 8060},
      {"strongarm", FlowMode::kConventional, 1003, 0xaf099106307cf463ULL,
       0, 8060},
      {"strongarm", FlowMode::kManualOracle, 1, 0x32d0b0fe1b07789fULL,
       1360, 21544},
      {"strongarm", FlowMode::kManualOracle, 7, 0x30620f6b9ace4e64ULL,
       1330, 21327},
      {"strongarm", FlowMode::kManualOracle, 1003, 0x72052ccf2cb609edULL,
       1378, 21829},
      {"vco", FlowMode::kOptimize, 1, 0xef174f1ae794030dULL, 610, 35610},
      {"vco", FlowMode::kOptimize, 7, 0x8dc079dcf4890b31ULL, 610, 35610},
      {"vco", FlowMode::kOptimize, 1003, 0xef174f1ae794030dULL, 610, 35610},
      {"vco", FlowMode::kConventional, 1, 0x3fc9ba424159fec3ULL, 0, 8004},
      {"vco", FlowMode::kConventional, 7, 0xc5b0059bef38eb68ULL, 0, 8004},
      {"vco", FlowMode::kConventional, 1003, 0xc5b0059bef38eb68ULL, 0, 8004},
  };
  for (const Golden& g : goldens) {
    const std::string what = std::string(g.circuit) + " " +
                             flow_mode_name(g.mode) + " seed " +
                             std::to_string(g.seed);
    SCOPED_TRACE(what);
    const Circuit* c = nullptr;
    for (const Circuit& candidate : circuits) {
      if (std::string(candidate.name) == g.circuit) c = &candidate;
    }
    ASSERT_NE(c, nullptr);
    FlowOptions opt;
    opt.seed = g.seed;
    FlowReport report;
    const Realization real = FlowEngine(t(), opt).run(
        g.mode, c->instances, c->routed_nets, &report);
    const std::uint64_t h = flow_result_hash(report, real);
    EXPECT_EQ(h, g.hash) << std::hex << "0x" << h;
    EXPECT_EQ(report.testbenches, g.testbenches);
    EXPECT_EQ(report.budget.checks, g.checks);
  }
}

}  // namespace
}  // namespace olp::circuits
