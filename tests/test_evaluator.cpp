// Tests for the primitive testbench evaluator: every primitive family's
// metrics come out physically plausible, schematic references behave, and
// wire/tuning effects move the metrics in the right direction.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "circuits/common.hpp"
#include "core/evaluator.hpp"
#include "pcell/generator.hpp"

namespace olp::core {
namespace {

const tech::Technology& t() {
  static const tech::Technology tech = tech::make_default_finfet_tech();
  return tech;
}

pcell::LayoutConfig cfg(int nfin, int nf, int m) {
  pcell::LayoutConfig c;
  c.nfin = nfin;
  c.nf = nf;
  c.m = m;
  return c;
}

PrimitiveEvaluator make_eval(BiasContext bias) {
  return PrimitiveEvaluator(t(), circuits::default_nmos(),
                            circuits::default_pmos(), std::move(bias));
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

TEST(Evaluator, DiffPairSchematicMetricsPlausible) {
  const pcell::PrimitiveGenerator gen(t());
  const pcell::PrimitiveLayout lay =
      gen.generate(pcell::make_diff_pair(), cfg(8, 20, 6));
  const PrimitiveEvaluator eval = make_eval(dp_bias());
  EvalCondition ideal;
  ideal.ideal = true;
  const MetricValues v = eval.evaluate(lay, ideal);
  // gm of half the pair at 250 uA: a few mA/V for this geometry.
  EXPECT_GT(v.at(MetricKind::kGm), 1e-3);
  EXPECT_LT(v.at(MetricKind::kGm), 20e-3);
  // Drain capacitance: device caps + 20 fF external load.
  EXPECT_GT(v.at(MetricKind::kCout), 20e-15);
  EXPECT_LT(v.at(MetricKind::kCout), 200e-15);
  // No systematic offset in the schematic.
  EXPECT_LT(std::fabs(v.at(MetricKind::kInputOffset)), 1e-6);
  EXPECT_GT(v.at(MetricKind::kGmOverCtotal), 0.0);
}

TEST(Evaluator, DiffPairExtractedGmBelowSchematic) {
  const pcell::PrimitiveGenerator gen(t());
  const pcell::PrimitiveLayout lay =
      gen.generate(pcell::make_diff_pair(), cfg(8, 20, 6));
  const PrimitiveEvaluator eval = make_eval(dp_bias());
  EvalCondition ideal;
  ideal.ideal = true;
  EvalCondition extracted;
  const double gm_sch = eval.evaluate(lay, ideal).at(MetricKind::kGm);
  const double gm_lay = eval.evaluate(lay, extracted).at(MetricKind::kGm);
  EXPECT_LT(gm_lay, gm_sch);            // source strap degenerates
  EXPECT_GT(gm_lay, 0.8 * gm_sch);      // but only by a few percent
}

TEST(Evaluator, DiffPairTuningImprovesGm) {
  const pcell::PrimitiveGenerator gen(t());
  const pcell::PrimitiveLayout lay =
      gen.generate(pcell::make_diff_pair(), cfg(8, 20, 6));
  const PrimitiveEvaluator eval = make_eval(dp_bias());
  EvalCondition base;
  EvalCondition tuned;
  tuned.tuning["s"] = 6;
  EXPECT_GT(eval.evaluate(lay, tuned).at(MetricKind::kGm),
            eval.evaluate(lay, base).at(MetricKind::kGm));
}

TEST(Evaluator, DiffPairDrainWireU_ShapedTradeoff) {
  // More parallel drain routes: Gm improves, Ctotal grows (Table IV shape).
  const pcell::PrimitiveGenerator gen(t());
  const pcell::PrimitiveLayout lay =
      gen.generate(pcell::make_diff_pair(), cfg(8, 20, 6));
  const PrimitiveEvaluator eval = make_eval(dp_bias());
  auto with_wire = [&](int wires) {
    EvalCondition c;
    extract::WireRc rc;
    rc.resistance = 600.0 / wires;
    rc.capacitance = 0.4e-15 * wires;
    c.port_wires["da"] = rc;  // mirrored to db by the symmetry rule
    return eval.evaluate(lay, c);
  };
  const MetricValues w1 = with_wire(1);
  const MetricValues w6 = with_wire(6);
  EXPECT_GT(w6.at(MetricKind::kGm), w1.at(MetricKind::kGm));
  EXPECT_GT(w6.at(MetricKind::kCout), w1.at(MetricKind::kCout));
}

TEST(Evaluator, SymmetricWireKeepsOffsetSmall) {
  const pcell::PrimitiveGenerator gen(t());
  const pcell::PrimitiveLayout lay =
      gen.generate(pcell::make_diff_pair(), cfg(8, 20, 6));
  const PrimitiveEvaluator eval = make_eval(dp_bias());
  EvalCondition c;
  c.port_wires["da"] = extract::WireRc{400.0, 0.5e-15};
  const MetricValues v = eval.evaluate(lay, c);
  // The wire is mirrored to db, so no systematic imbalance appears.
  EXPECT_LT(std::fabs(v.at(MetricKind::kInputOffset)),
            0.1 * eval.random_offset_sigma(lay));
}

TEST(Evaluator, MirrorRatioNearUnity) {
  const pcell::PrimitiveGenerator gen(t());
  const pcell::PrimitiveLayout lay =
      gen.generate(pcell::make_current_mirror(1), cfg(8, 16, 4));
  BiasContext b;
  b.vdd = t().vdd;
  b.bias_current = 400e-6;
  b.port_voltage = {{"out", 0.4}, {"s", 0.0}};
  const PrimitiveEvaluator eval = make_eval(b);
  EvalCondition ideal;
  ideal.ideal = true;
  const MetricValues v = eval.evaluate(lay, ideal);
  EXPECT_NEAR(v.at(MetricKind::kCurrentRatio), 1.0, 0.15);
  EXPECT_GT(v.at(MetricKind::kRout), 500.0);
}

TEST(Evaluator, MirrorRatioHonorsRatioParameter) {
  const pcell::PrimitiveGenerator gen(t());
  const pcell::PrimitiveLayout lay =
      gen.generate(pcell::make_current_mirror(4), cfg(8, 4, 2));
  BiasContext b;
  b.vdd = t().vdd;
  b.bias_current = 100e-6;
  b.port_voltage = {{"out", 0.4}, {"s", 0.0}};
  const PrimitiveEvaluator eval = make_eval(b);
  EvalCondition ideal;
  ideal.ideal = true;
  const MetricValues v = eval.evaluate(lay, ideal);
  // kCurrentRatio is normalized by the nominal ratio.
  EXPECT_NEAR(v.at(MetricKind::kCurrentRatio), 1.0, 0.2);
  EXPECT_NEAR(v.at(MetricKind::kOutputCurrent), 400e-6, 100e-6);
}

TEST(Evaluator, ActiveMirrorUsesVddRail) {
  const pcell::PrimitiveGenerator gen(t());
  const pcell::PrimitiveLayout lay =
      gen.generate(pcell::make_active_current_mirror(), cfg(8, 16, 2));
  BiasContext b;
  b.vdd = t().vdd;
  b.bias_current = 200e-6;
  b.port_voltage = {{"out", 0.4}};
  const PrimitiveEvaluator eval = make_eval(b);
  EvalCondition ideal;
  ideal.ideal = true;
  const MetricValues v = eval.evaluate(lay, ideal);
  EXPECT_NEAR(v.at(MetricKind::kCurrentRatio), 1.0, 0.15);
}

TEST(Evaluator, CurrentSourceMetrics) {
  const pcell::PrimitiveGenerator gen(t());
  const pcell::PrimitiveLayout lay =
      gen.generate(pcell::make_current_source(), cfg(8, 16, 2));
  BiasContext b;
  b.vdd = t().vdd;
  b.port_voltage = {{"bias", 0.45}, {"out", 0.4}, {"s", 0.0}};
  const PrimitiveEvaluator eval = make_eval(b);
  EvalCondition ideal;
  ideal.ideal = true;
  const MetricValues v = eval.evaluate(lay, ideal);
  EXPECT_GT(v.at(MetricKind::kOutputCurrent), 10e-6);
  EXPECT_GT(v.at(MetricKind::kRout), 100.0);
  EXPECT_GT(v.at(MetricKind::kCout), 0.0);
}

TEST(Evaluator, CommonSourceServoHoldsBiasCurrent) {
  const pcell::PrimitiveGenerator gen(t());
  const pcell::PrimitiveLayout lay =
      gen.generate(pcell::make_common_source(), cfg(8, 12, 1));
  BiasContext b;
  b.vdd = t().vdd;
  b.bias_current = 290e-6;
  b.port_voltage = {{"in", 0.45}, {"out", 0.42}, {"s", 0.0}};
  const PrimitiveEvaluator eval = make_eval(b);
  for (bool ideal : {true, false}) {
    EvalCondition c;
    c.ideal = ideal;
    const MetricValues v = eval.evaluate(lay, c);
    EXPECT_NEAR(v.at(MetricKind::kOutputCurrent), 290e-6, 3e-6)
        << "ideal=" << ideal;
    EXPECT_GT(v.at(MetricKind::kGm), 1e-3);
    EXPECT_GT(v.at(MetricKind::kRout), 1e3);
  }
}

TEST(Evaluator, StarvedInverterMetrics) {
  const pcell::PrimitiveGenerator gen(t());
  const pcell::PrimitiveLayout lay =
      gen.generate(pcell::make_current_starved_inverter(), cfg(8, 4, 1));
  BiasContext b;
  b.vdd = t().vdd;
  b.port_voltage = {{"vbn", 0.4}, {"vbp", t().vdd - 0.4}};
  b.port_load_cap = {{"out", 4e-15}};
  const PrimitiveEvaluator eval = make_eval(b);
  EvalCondition ideal;
  ideal.ideal = true;
  const MetricValues v = eval.evaluate(lay, ideal);
  EXPECT_GT(v.at(MetricKind::kDelay), 1e-12);
  EXPECT_LT(v.at(MetricKind::kDelay), 1e-9);
  EXPECT_GT(v.at(MetricKind::kOutputCurrent), 1e-6);
  EXPECT_GT(v.at(MetricKind::kGain), 1.0);  // inverter gain at mid-rail
}

TEST(Evaluator, StarvedInverterDelayGrowsWithLoad) {
  const pcell::PrimitiveGenerator gen(t());
  const pcell::PrimitiveLayout lay =
      gen.generate(pcell::make_current_starved_inverter(), cfg(8, 4, 1));
  auto delay_with_load = [&](double cl, double vctrl = 0.4) {
    BiasContext b;
    b.vdd = t().vdd;
    b.port_voltage = {{"vbn", vctrl}, {"vbp", t().vdd - vctrl}};
    b.port_load_cap = {{"out", cl}};
    const PrimitiveEvaluator eval = make_eval(b);
    EvalCondition ideal;
    ideal.ideal = true;
    return eval.evaluate(lay, ideal).at(MetricKind::kDelay);
  };
  EXPECT_GT(delay_with_load(20e-15), delay_with_load(2e-15));
  // Near the end of the 1.2 ns window: 480 fF switches at ~1.1 ns, 500 fF
  // never does. The one that never switches must not rank faster.
  const double switches_late = delay_with_load(480e-15, 0.1);
  const double never_switches = delay_with_load(500e-15, 0.1);
  EXPECT_GT(switches_late, 1.0e-9);
  EXPECT_GT(never_switches, switches_late);
}

TEST(Evaluator, StarvedInverterDelayFallsWithControl) {
  const pcell::PrimitiveGenerator gen(t());
  const pcell::PrimitiveLayout lay =
      gen.generate(pcell::make_current_starved_inverter(), cfg(8, 4, 1));
  auto delay_at = [&](double vctrl) {
    BiasContext b;
    b.vdd = t().vdd;
    b.port_voltage = {{"vbn", vctrl}, {"vbp", t().vdd - vctrl}};
    b.port_load_cap = {{"out", 4e-15}};
    const PrimitiveEvaluator eval = make_eval(b);
    EvalCondition ideal;
    ideal.ideal = true;
    return eval.evaluate(lay, ideal).at(MetricKind::kDelay);
  };
  EXPECT_GT(delay_at(0.2), delay_at(0.5));
}

TEST(Evaluator, SwitchOnCurrent) {
  const pcell::PrimitiveGenerator gen(t());
  const pcell::PrimitiveLayout lay =
      gen.generate(pcell::make_switch(), cfg(8, 8, 1));
  BiasContext b;
  b.vdd = t().vdd;
  b.port_voltage = {{"a", 0.4}, {"b", 0.0}};
  const PrimitiveEvaluator eval = make_eval(b);
  EvalCondition ideal;
  ideal.ideal = true;
  const MetricValues v = eval.evaluate(lay, ideal);
  EXPECT_GT(v.at(MetricKind::kOutputCurrent), 50e-6);
}

TEST(Evaluator, RandomOffsetSigmaFollowsPelgrom) {
  const pcell::PrimitiveGenerator gen(t());
  const pcell::PrimitiveLayout small =
      gen.generate(pcell::make_diff_pair(), cfg(4, 6, 1));
  const pcell::PrimitiveLayout large =
      gen.generate(pcell::make_diff_pair(), cfg(8, 20, 6));
  const PrimitiveEvaluator eval = make_eval(dp_bias());
  // Bigger devices mismatch less; the ratio follows sqrt(area).
  const double s_small = eval.random_offset_sigma(small);
  const double s_large = eval.random_offset_sigma(large);
  EXPECT_GT(s_small, s_large);
  EXPECT_NEAR(s_small / s_large, std::sqrt(960.0 / 24.0), 0.5);
}

TEST(Evaluator, StatsCountTestbenches) {
  const pcell::PrimitiveGenerator gen(t());
  const pcell::PrimitiveLayout lay =
      gen.generate(pcell::make_diff_pair(), cfg(8, 20, 6));
  const PrimitiveEvaluator eval = make_eval(dp_bias());
  eval.stats().reset();
  (void)eval.evaluate(lay, {});
  // DP runs three testbenches: Gm, drain capacitance, offset (Table V).
  EXPECT_EQ(eval.stats().testbenches, 3);
}

/// FNV-1a hash of the kinds and value bits of metric sets.
class MetricHash {
 public:
  void add(const MetricValues& values) {
    for (const auto& [kind, value] : values) {
      word(static_cast<std::uint64_t>(kind));
      std::uint64_t bits;
      std::memcpy(&bits, &value, sizeof bits);
      word(bits);
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  void word(std::uint64_t w) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (w >> (8 * i)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// Every family's testbenches, pinned bit for bit: one hash per library
// primitive over its metrics at the first and last enumerated configuration
// of 48 fins per device, each in schematic mode, extracted, with three
// parallel wires on every tuning terminal, and with a (12.5 ohm, 3 fF) wire
// on every port. The goldens were recorded from the evaluator that built a
// new bench and simulator per testbench; sharing them within an evaluation
// must move no bit.
TEST(Evaluator, MatchesParentBitForBit) {
  using spice::MosType;
  using Golden = std::pair<pcell::PrimitiveNetlist, std::uint64_t>;
  const std::vector<Golden> goldens = {
      {pcell::make_diff_pair(), 0x74d2f9e72277ae12ULL},
      {pcell::make_current_mirror(), 0x7f26fee9f2cdb4cfULL},
      {pcell::make_current_mirror(4), 0x36a671fc70c55a30ULL},
      {pcell::make_cascode_current_mirror(), 0x11ce737c5162d662ULL},
      {pcell::make_cascode_current_mirror(2), 0x57a66b834dabc766ULL},
      {pcell::make_cascode_diff_pair(), 0xf88e5d80b9fd4a58ULL},
      {pcell::make_active_current_mirror(), 0x7e9a559da230c3f2ULL},
      {pcell::make_current_source(), 0x223d95310be4d491ULL},
      {pcell::make_current_source(MosType::kPmos), 0x17c8ac4385d0ee6cULL},
      {pcell::make_common_source(), 0x47443c4987758234ULL},
      {pcell::make_current_starved_inverter(), 0x8602986992d89143ULL},
      {pcell::make_cross_coupled_pair(), 0xf4e54bb006497a10ULL},
      {pcell::make_cross_coupled_pair(MosType::kPmos), 0x3de4ae096761abebULL},
      {pcell::make_latch_pair(), 0xb2a50d5d53d6d9d1ULL},
      {pcell::make_latch_pair(MosType::kPmos), 0x425dcd984f51df74ULL},
      {pcell::make_switch(), 0xa26d1852f565a5d2ULL},
      {pcell::make_switch(MosType::kPmos), 0xf7385b3fc973af50ULL},
  };
  BiasContext bias;
  bias.vdd = t().vdd;
  bias.bias_current = 200e-6;
  bias.port_voltage = {{"ga", 0.5},  {"gb", 0.5},  {"da", 0.5},
                       {"db", 0.5},  {"sa", 0.1},  {"sb", 0.1},
                       {"in", 0.45}, {"out", 0.4}, {"bias", 0.45},
                       {"vcasc", 0.7}, {"vbn", 0.4}, {"vbp", t().vdd - 0.4},
                       {"a", 0.4},   {"b", 0.0}};
  bias.port_load_cap = {{"da", 20e-15}, {"db", 20e-15}, {"out", 4e-15}};
  const PrimitiveEvaluator eval = make_eval(bias);
  const pcell::PrimitiveGenerator gen(t());
  const std::vector<pcell::LayoutConfig> configs =
      pcell::PrimitiveGenerator::enumerate_configs(48);
  ASSERT_GE(configs.size(), 2u);
  for (const auto& [netlist, golden] : goldens) {
    EvalCondition ideal;
    ideal.ideal = true;
    EvalCondition tuned;
    for (const std::string& net :
         metric_library(netlist.type).tuning_terminals) {
      tuned.tuning[net] = 3;
    }
    EvalCondition wired;
    for (const std::string& port : netlist.ports) {
      wired.port_wires[port] = extract::WireRc{12.5, 3e-15};
    }
    MetricHash hash;
    for (const pcell::LayoutConfig& cfg : {configs.front(), configs.back()}) {
      const pcell::PrimitiveLayout lay = gen.generate(netlist, cfg);
      for (const EvalCondition& c : {ideal, EvalCondition{}, tuned, wired}) {
        hash.add(eval.evaluate(lay, c));
      }
    }
    EXPECT_EQ(hash.value(), golden)
        << netlist.name << " " << std::hex << hash.value();
  }
}

TEST(Evaluator, MomCapMetrics) {
  const pcell::MomCapLayout cap =
      pcell::generate_mom_cap(t(), {16, 2e-6, tech::Layer::kM3});
  EvalCondition cond;
  const MetricValues v = evaluate_mom_cap(t(), cap, cond);
  EXPECT_GT(v.at(MetricKind::kCapacitance), 0.0);
  EXPECT_GT(v.at(MetricKind::kCornerFreq), 1e9);
  // Terminal wires lower the corner frequency.
  EvalCondition wired;
  wired.port_wires["a"] = extract::WireRc{500.0, 1e-15};
  const MetricValues vw = evaluate_mom_cap(t(), cap, wired);
  EXPECT_LT(vw.at(MetricKind::kCornerFreq), v.at(MetricKind::kCornerFreq));
}

}  // namespace
}  // namespace olp::core
