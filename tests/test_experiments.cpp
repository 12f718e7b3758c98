// Integration tests over the experiment runners: the paper-shape claims
// recorded in EXPERIMENTS.md are asserted here so regressions that would
// silently change the reproduced tables fail CI instead.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "circuits/experiments.hpp"
#include "core/port_optimizer.hpp"
#include "util/logging.hpp"

namespace olp::circuits {
namespace {

const tech::Technology& t() {
  static const tech::Technology tech = tech::make_default_finfet_tech();
  return tech;
}

class CsAmpExperiment : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    set_log_level(LogLevel::kError);
    ex_ = new CircuitExperiment(run_cs_amp(t(), {}));
  }
  static void TearDownTestSuite() {
    delete ex_;
    ex_ = nullptr;
  }
  static CircuitExperiment* ex_;
};
CircuitExperiment* CsAmpExperiment::ex_ = nullptr;

TEST_F(CsAmpExperiment, AllFlavorsMeasured) {
  for (const char* flavor : {"schematic", "narrow", "wide", "optimized"}) {
    ASSERT_TRUE(ex_->results.count(flavor)) << flavor;
    EXPECT_TRUE(ex_->results.at(flavor).count("ugf_ghz")) << flavor;
  }
}

TEST_F(CsAmpExperiment, Fig2WireWidthShape) {
  const auto& sch = ex_->results.at("schematic");
  const auto& narrow = ex_->results.at("narrow");
  const auto& wide = ex_->results.at("wide");
  const auto& opt = ex_->results.at("optimized");
  // Wide loses UGF relative to narrow (capacitance side), and the optimized
  // width is at least as good as both.
  EXPECT_LT(wide.at("ugf_ghz"), narrow.at("ugf_ghz"));
  EXPECT_GE(opt.at("ugf_ghz"), wide.at("ugf_ghz"));
  EXPECT_GE(opt.at("ugf_ghz") + 0.05, narrow.at("ugf_ghz"));
  // Every layout stays below the schematic.
  EXPECT_LT(opt.at("ugf_ghz"), sch.at("ugf_ghz"));
}

TEST_F(CsAmpExperiment, TableIMirrorCurrentIsWidthIndependent) {
  const double i_sch = ex_->results.at("tableI_schematic").at("i_m2");
  for (const char* flavor :
       {"tableI_narrow", "tableI_wide", "tableI_optimized"}) {
    EXPECT_NEAR(ex_->results.at(flavor).at("i_m2"), i_sch, 0.03 * i_sch)
        << flavor;
  }
}

TEST_F(CsAmpExperiment, TableICtotalPeaksForWide) {
  const auto& rows = ex_->results;
  EXPECT_GT(rows.at("tableI_wide").at("ctotal"),
            rows.at("tableI_narrow").at("ctotal"));
  EXPECT_GT(rows.at("tableI_wide").at("ctotal"),
            rows.at("tableI_schematic").at("ctotal"));
}

TEST_F(CsAmpExperiment, TableIGmDipsForNarrow) {
  const auto& rows = ex_->results;
  EXPECT_LT(rows.at("tableI_narrow").at("gm_m1"),
            rows.at("tableI_optimized").at("gm_m1"));
  EXPECT_LT(rows.at("tableI_optimized").at("gm_m1"),
            rows.at("tableI_schematic").at("gm_m1"));
}

TEST(DpOptionsExperiment, TableIIIShape) {
  // Table III on our own costs: 11 options in 3 aspect-ratio bins, a
  // common-centroid option wins every bin, and the non-common-centroid
  // AABB arrangement's offset deviation blows up past 100%.
  set_log_level(LogLevel::kError);
  const std::vector<DpOptionRow> rows = run_dp_options(t());
  ASSERT_EQ(rows.size(), 11u);
  const auto bin_min = [&rows](int bin) {
    double lowest = std::numeric_limits<double>::infinity();
    for (const DpOptionRow& row : rows) {
      if (row.bin == bin) lowest = std::min(lowest, row.cost);
    }
    return lowest;
  };
  std::set<int> bins;
  int bin_bests = 0;
  for (const DpOptionRow& row : rows) {
    bins.insert(row.bin);
    bin_bests += row.bin_best ? 1 : 0;
    if (row.config.pattern != pcell::PlacementPattern::kAABB) continue;
    SCOPED_TRACE(row.config.to_string());
    EXPECT_GT(row.cost, bin_min(row.bin));
    EXPECT_GT(row.d_offset, 1.0);
  }
  EXPECT_EQ(bins.size(), 3u);
  EXPECT_EQ(bin_bests, 3);
}

TEST(PortSweepExperiment, TableIVIntervalShapes) {
  // Table IV on our own cost curves, with the port optimizer's plateau
  // slack, which bench_paper prints its intervals with: the DP curve is
  // U-shaped with the interval [3, 5]; the passive CM keeps improving to
  // the end of the sweep, so no upper limit.
  set_log_level(LogLevel::kError);
  const std::vector<PortSweepRow> rows = run_port_sweep(t());
  ASSERT_EQ(rows.size(), 7u);
  std::vector<double> dp, cm;
  for (const PortSweepRow& row : rows) {
    EXPECT_EQ(row.wires, static_cast<int>(dp.size()) + 1);
    dp.push_back(row.dp_cost);
    cm.push_back(row.cm_cost);
  }
  const WireInterval dp_iv =
      core::interval_from_curve(dp, core::kPlateauTolerance);
  EXPECT_EQ(dp_iv.lo, 3);
  ASSERT_TRUE(dp_iv.hi.has_value());
  EXPECT_EQ(*dp_iv.hi, 5);
  EXPECT_FALSE(
      core::interval_from_curve(cm, core::kPlateauTolerance).hi.has_value());
}

TEST(StepCountsExperiment, TableVCounts) {
  // Table V on our own counts, exactly: every testbench of each step. The
  // DP and the CM spend most of their testbenches on selection, the
  // current-starved inverter on tuning.
  set_log_level(LogLevel::kError);
  const std::vector<StepCountsRow> rows = run_step_counts(t());
  struct Want {
    const char* primitive;
    int configs;
    long selection, tuning, port;
  };
  const Want want[] = {{"diff pair", 150, 453, 90, 96},
                       {"current mirror", 45, 92, 60, 32},
                       {"curr-starved inv", 25, 52, 396, 32}};
  ASSERT_EQ(rows.size(), std::size(want));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    SCOPED_TRACE(want[i].primitive);
    EXPECT_EQ(rows[i].primitive, want[i].primitive);
    EXPECT_EQ(rows[i].configs, want[i].configs);
    EXPECT_EQ(rows[i].selection, want[i].selection);
    EXPECT_EQ(rows[i].tuning, want[i].tuning);
    EXPECT_EQ(rows[i].port, want[i].port);
  }
  EXPECT_EQ(rows[0].total(), 639);
  EXPECT_EQ(rows[1].total(), 184);
  EXPECT_EQ(rows[2].total(), 480);
}

TEST(OtaExperiment, TableVIOrdering) {
  set_log_level(LogLevel::kError);
  const CircuitExperiment ex = run_ota(t(), {}, /*with_manual=*/true);
  const auto& sch = ex.results.at("schematic");
  const auto& conv = ex.results.at("conventional");
  const auto& work = ex.results.at("this_work");
  const auto& manual = ex.results.at("manual");
  // The paper's headline ordering on UGF and current.
  EXPECT_LT(conv.at("ugf_ghz"), work.at("ugf_ghz"));
  EXPECT_LT(work.at("ugf_ghz"), 1.05 * sch.at("ugf_ghz"));
  EXPECT_LT(conv.at("current_ua"), work.at("current_ua"));
  // "Competitive with manual layout": within 15% on UGF.
  EXPECT_NEAR(work.at("ugf_ghz"), manual.at("ugf_ghz"),
              0.15 * manual.at("ugf_ghz"));
  // This work recovers at least half the conventional UGF loss.
  const double loss_conv = sch.at("ugf_ghz") - conv.at("ugf_ghz");
  const double loss_work = sch.at("ugf_ghz") - work.at("ugf_ghz");
  EXPECT_LT(loss_work, 0.5 * loss_conv);
  // Reports carry runtime + simulation counts (Table VIII inputs).
  EXPECT_GT(ex.optimized_report.runtime_s, 0.0);
  EXPECT_GT(ex.optimized_report.testbenches, 100);
}

TEST(StrongArmExperiment, TableVIDelayOrdering) {
  set_log_level(LogLevel::kError);
  const CircuitExperiment ex = run_strongarm(t(), {}, /*with_manual=*/false);
  const auto& sch = ex.results.at("schematic");
  const auto& conv = ex.results.at("conventional");
  const auto& work = ex.results.at("this_work");
  EXPECT_LT(sch.at("delay_ps"), work.at("delay_ps"));
  EXPECT_LT(work.at("delay_ps"), conv.at("delay_ps"));
}

TEST(AblationsExperiment, AblationClaims) {
  // The ablation table's claims: Algorithm 2 carries the win, primitive
  // tuning and the bin count move the OTA by under 1%.
  set_log_level(LogLevel::kError);
  const std::vector<AblationRow> rows =
      run_ablations(t(), run_ota(t(), {}, /*with_manual=*/false));
  std::vector<std::string> labels;
  std::map<std::string, std::map<std::string, double>> m;
  for (const AblationRow& row : rows) {
    labels.push_back(row.label);
    m[row.label] = row.metrics;
  }
  ASSERT_EQ(labels, (std::vector<std::string>{
                        "schematic (target)", "full flow, bins = 1",
                        "full flow, bins = 2", "full flow, bins = 3",
                        "full flow, bins = 4", "no primitive tuning",
                        "no port optimization", "selection only",
                        "conventional baseline"}));
  const auto& conv = m.at("conventional baseline");
  const auto& full = m.at("full flow, bins = 3");
  for (const char* key : {"current_ua", "ugf_ghz"}) {
    SCOPED_TRACE(key);
    // With Algorithm 2 off every net keeps one route, and the OTA falls
    // below even the conventional baseline's two-track routes.
    EXPECT_LT(m.at("no port optimization").at(key), conv.at(key));
    EXPECT_LT(m.at("selection only").at(key), conv.at(key));
    EXPECT_NEAR(m.at("no primitive tuning").at(key), full.at(key),
                0.01 * full.at(key));
    double lo = full.at(key), hi = full.at(key);
    for (int bins = 1; bins <= 4; ++bins) {
      const double v =
          m.at("full flow, bins = " + std::to_string(bins)).at(key);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    EXPECT_LE(hi - lo, 0.01 * hi);
  }
}

TEST(CornersExperiment, ThisWorkBeatsConventionalAtEveryCorner) {
  // The wire-sizing decisions taken at TT keep this work ahead of the
  // conventional layout on UGF and current at every process corner.
  set_log_level(LogLevel::kError);
  const std::vector<CornerRow> rows =
      run_corners(t(), run_ota(t(), {}, /*with_manual=*/false));
  std::set<std::string> corners;
  for (const CornerRow& row : rows) {
    corners.insert(corner_name(row.corner));
    SCOPED_TRACE(corner_name(row.corner));
    const auto& conv = row.results.at("conventional");
    const auto& work = row.results.at("this_work");
    EXPECT_GT(work.at("ugf_ghz"), conv.at("ugf_ghz"));
    EXPECT_GT(work.at("current_ua"), conv.at("current_ua"));
  }
  EXPECT_EQ(rows.size(), 5u);
  EXPECT_EQ(corners, (std::set<std::string>{"TT", "SS", "FF", "SF", "FS"}));
}

}  // namespace
}  // namespace olp::circuits
