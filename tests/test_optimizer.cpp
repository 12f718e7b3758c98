// Tests for Algorithm 1 (primitive selection + tuning) and aspect binning.

#include <gtest/gtest.h>

#include <cstring>

#include "circuits/common.hpp"
#include "core/eval_cache.hpp"
#include "core/optimizer.hpp"

namespace olp::core {
namespace {

const tech::Technology& t() {
  static const tech::Technology tech = tech::make_default_finfet_tech();
  return tech;
}

BiasContext dp_bias() {
  BiasContext b;
  b.vdd = t().vdd;
  b.bias_current = 500e-6;
  b.port_voltage = {
      {"ga", 0.5}, {"gb", 0.5}, {"da", 0.5}, {"db", 0.5}, {"s", 0.2}};
  b.port_load_cap = {{"da", 20e-15}, {"db", 20e-15}};
  return b;
}

TEST(AspectBins, SplitsLogRangeEvenly) {
  const std::vector<int> bins =
      assign_aspect_bins({0.1, 0.3, 1.0, 3.0, 10.0}, 3);
  EXPECT_EQ(bins[0], 0);
  EXPECT_EQ(bins[2], 1);
  EXPECT_EQ(bins[4], 2);
}

TEST(AspectBins, IdenticalRatiosShareBin) {
  const std::vector<int> bins = assign_aspect_bins({2.0, 2.0, 2.0}, 3);
  for (int b : bins) EXPECT_EQ(b, 0);
}

TEST(AspectBins, Validation) {
  EXPECT_THROW(assign_aspect_bins({}, 3), InvalidArgumentError);
  EXPECT_THROW(assign_aspect_bins({1.0}, 0), InvalidArgumentError);
  EXPECT_THROW(assign_aspect_bins({-1.0}, 2), InvalidArgumentError);
}

TEST(Optimizer, EvaluateAllCoversEveryConfig) {
  const pcell::PrimitiveGenerator gen(t());
  const PrimitiveEvaluator eval(t(), circuits::default_nmos(),
                                circuits::default_pmos(), dp_bias());
  const PrimitiveOptimizer opt(gen, eval);
  const pcell::PrimitiveNetlist dp = pcell::make_diff_pair();
  const std::size_t n_configs =
      pcell::PrimitiveGenerator::enumerate_configs(96).size();
  const std::vector<LayoutCandidate> all = opt.evaluate_all(dp, 96);
  EXPECT_EQ(all.size(), n_configs);
  for (const LayoutCandidate& c : all) {
    EXPECT_GE(c.bin, 0);
    EXPECT_LT(c.bin, 3);
    EXPECT_GE(c.cost.total, 0.0);
  }
}

TEST(Optimizer, OptimizeReturnsOnePerBinSorted) {
  const pcell::PrimitiveGenerator gen(t());
  const PrimitiveEvaluator eval(t(), circuits::default_nmos(),
                                circuits::default_pmos(), dp_bias());
  const PrimitiveOptimizer opt(gen, eval);
  OptimizerOptions oopt;
  oopt.bins = 3;
  const std::vector<LayoutCandidate> sel =
      opt.optimize(pcell::make_diff_pair(), 96, oopt);
  EXPECT_GE(sel.size(), 1u);
  EXPECT_LE(sel.size(), 3u);
  for (std::size_t i = 1; i < sel.size(); ++i) {
    EXPECT_LE(sel[i - 1].cost.total, sel[i].cost.total);
  }
  // Distinct bins.
  for (std::size_t i = 0; i < sel.size(); ++i) {
    for (std::size_t j = i + 1; j < sel.size(); ++j) {
      EXPECT_NE(sel[i].bin, sel[j].bin);
    }
  }
}

TEST(Optimizer, SelectionPrefersCommonCentroid) {
  // For the paper's 960-fin DP, the systematic offset of AABB (split
  // halves) blows past the 10%-of-random-offset spec in every bin, so no
  // AABB option may win. (Very small devices have a looser spec and can
  // legitimately tolerate AABB.)
  const pcell::PrimitiveGenerator gen(t());
  const PrimitiveEvaluator eval(t(), circuits::default_nmos(),
                                circuits::default_pmos(), dp_bias());
  const PrimitiveOptimizer opt(gen, eval);
  const std::vector<LayoutCandidate> sel =
      opt.optimize(pcell::make_diff_pair(), 960);
  for (const LayoutCandidate& c : sel) {
    EXPECT_NE(c.layout.config.pattern, pcell::PlacementPattern::kAABB)
        << c.layout.config.to_string();
  }
}

TEST(Optimizer, TuningNeverWorsensCost) {
  const pcell::PrimitiveGenerator gen(t());
  const PrimitiveEvaluator eval(t(), circuits::default_nmos(),
                                circuits::default_pmos(), dp_bias());
  const PrimitiveOptimizer opt(gen, eval);
  std::vector<LayoutCandidate> all =
      opt.evaluate_all(pcell::make_diff_pair(), 96);
  // Pick an arbitrary candidate and tune it.
  LayoutCandidate cand = all.front();
  const double before = cand.cost.total;
  opt.tune(cand);
  EXPECT_LE(cand.cost.total, before + 0.3);  // knee rule may stop near-min
  EXPECT_GE(cand.tuning.at("s"), 1);
}

TEST(Optimizer, CorrelatedTerminalsSweptJointly) {
  const pcell::PrimitiveGenerator gen(t());
  BiasContext b;
  b.vdd = t().vdd;
  b.port_voltage = {{"vbn", 0.4}, {"vbp", t().vdd - 0.4}};
  b.port_load_cap = {{"out", 4e-15}};
  const PrimitiveEvaluator eval(t(), circuits::default_nmos(),
                                circuits::default_pmos(), b);
  const PrimitiveOptimizer opt(gen, eval);
  OptimizerOptions oopt;
  oopt.max_tuning_wires = 3;  // keep the joint 3x3 sweep small
  const std::vector<LayoutCandidate> sel =
      opt.optimize(pcell::make_current_starved_inverter(), 32, oopt);
  ASSERT_FALSE(sel.empty());
  // Both correlated terminals received a decision.
  EXPECT_TRUE(sel.front().tuning.count("vn"));
  EXPECT_TRUE(sel.front().tuning.count("vp"));
}

TEST(Optimizer, SchematicReferenceIsLayoutInvariant) {
  const pcell::PrimitiveGenerator gen(t());
  const PrimitiveEvaluator eval(t(), circuits::default_nmos(),
                                circuits::default_pmos(), dp_bias());
  const PrimitiveOptimizer opt(gen, eval);
  const MetricValues ref = opt.schematic_reference(pcell::make_diff_pair(), 96);
  EXPECT_GT(ref.at(MetricKind::kGm), 0.0);
  // The reference never includes wire parasitics: re-running gives the same
  // numbers.
  const MetricValues ref2 =
      opt.schematic_reference(pcell::make_diff_pair(), 96);
  EXPECT_DOUBLE_EQ(ref.at(MetricKind::kGm), ref2.at(MetricKind::kGm));
}

// layout_cost, the cost both algorithms score with, measures the pair's
// systematic offset against 10% of its random mismatch sigma.
TEST(Optimizer, OffsetSpecIsTenPercentOfSigma) {
  const pcell::PrimitiveGenerator gen(t());
  const PrimitiveEvaluator eval(t(), circuits::default_nmos(),
                                circuits::default_pmos(), dp_bias());
  pcell::LayoutConfig c;
  c.nfin = 8;
  c.nf = 12;
  c.m = 1;
  const pcell::PrimitiveLayout lay =
      gen.generate(pcell::make_diff_pair(), c);
  const MetricValues values = eval.evaluate(lay, EvalCondition{});
  const CostBreakdown cb = layout_cost(eval, lay, values, values, 0);
  int offset_terms = 0;
  for (const MetricDeviation& term : cb.terms) {
    if (term.spec.kind != MetricKind::kInputOffset) continue;
    ++offset_terms;
    EXPECT_NEAR(term.x_spec, 0.1 * eval.random_offset_sigma(lay), 1e-12);
  }
  EXPECT_EQ(offset_terms, 1);
}

// With a cache, candidates are scored from footprints: a cache hit builds
// no geometry, yet costs, values and bins match the uncached run bit for
// bit. tune() refuses a footprint until it is materialized, and optimize()
// hands back full layouts.
TEST(Optimizer, CachedSelectionScoresFootprints) {
  const pcell::PrimitiveGenerator gen(t());
  const PrimitiveEvaluator plain_eval(t(), circuits::default_nmos(),
                                      circuits::default_pmos(), dp_bias());
  PrimitiveEvaluator cached_eval(t(), circuits::default_nmos(),
                                 circuits::default_pmos(), dp_bias());
  EvalCache cache;
  cached_eval.set_cache(&cache);
  const PrimitiveOptimizer plain(gen, plain_eval);
  const PrimitiveOptimizer cached(gen, cached_eval);
  const pcell::PrimitiveNetlist dp = pcell::make_diff_pair();
  const std::vector<LayoutCandidate> want = plain.evaluate_all(dp, 96);
  (void)cached.evaluate_all(dp, 96);  // fills the cache
  const long testbenches = cached_eval.stats().testbenches;
  std::vector<LayoutCandidate> all = cached.evaluate_all(dp, 96);
  EXPECT_EQ(cached_eval.stats().testbenches, testbenches);  // all hits

  const auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };
  ASSERT_EQ(all.size(), want.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    SCOPED_TRACE(want[i].layout.config.to_string());
    EXPECT_TRUE(all[i].layout.footprint_only);
    EXPECT_FALSE(want[i].layout.footprint_only);
    EXPECT_EQ(all[i].bin, want[i].bin);
    EXPECT_TRUE(same_bits(all[i].cost.total, want[i].cost.total));
    ASSERT_EQ(all[i].values.size(), want[i].values.size());
    for (const auto& [kind, value] : want[i].values) {
      EXPECT_TRUE(same_bits(all[i].values.at(kind), value));
    }
  }

  EXPECT_THROW(cached.tune(all.front()), InvalidArgumentError);
  gen.materialize(all.front().layout);
  EXPECT_FALSE(all.front().layout.footprint_only);
  EXPECT_NO_THROW(cached.tune(all.front()));
  for (const LayoutCandidate& c : cached.optimize(dp, 96)) {
    EXPECT_FALSE(c.layout.footprint_only) << c.layout.config.to_string();
  }
}

TEST(Optimizer, ExplicitConfigListRespected) {
  const pcell::PrimitiveGenerator gen(t());
  const PrimitiveEvaluator eval(t(), circuits::default_nmos(),
                                circuits::default_pmos(), dp_bias());
  const PrimitiveOptimizer opt(gen, eval);
  OptimizerOptions oopt;
  pcell::LayoutConfig c;
  c.nfin = 8;
  c.nf = 12;
  c.m = 1;
  oopt.configs = {c};
  const std::vector<LayoutCandidate> all =
      opt.evaluate_all(pcell::make_diff_pair(), 96, oopt);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].layout.config.nfin, 8);
}

}  // namespace
}  // namespace olp::core
