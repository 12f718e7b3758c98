// Tests for the DC sweep analysis.

#include <gtest/gtest.h>

#include "circuits/common.hpp"
#include "spice/simulator.hpp"
#include "util/logging.hpp"

namespace olp {
namespace {

// --- DC sweep ---------------------------------------------------------------------

TEST(DcSweep, LinearNetworkTracksSource) {
  spice::Circuit c;
  const spice::NodeId in = c.node("in");
  const spice::NodeId mid = c.node("mid");
  c.add_vsource("vin", in, spice::kGround, spice::Waveform::dc(0.0));
  c.add_resistor("r1", in, mid, 1e3);
  c.add_resistor("r2", mid, spice::kGround, 1e3);
  const spice::Simulator sim(c);
  const std::vector<double> values = {0.0, 0.5, 1.0, 1.5, 2.0};
  const auto sols = sim.dc_sweep("vin", values);
  ASSERT_EQ(sols.size(), values.size());
  for (std::size_t k = 0; k < values.size(); ++k) {
    ASSERT_FALSE(sols[k].empty());
    EXPECT_NEAR(sim.voltage(sols[k], mid), 0.5 * values[k], 1e-6);
  }
}

TEST(DcSweep, RestoresSourceValue) {
  spice::Circuit c;
  const spice::NodeId in = c.node("in");
  c.add_vsource("vin", in, spice::kGround, spice::Waveform::dc(0.123));
  c.add_resistor("r", in, spice::kGround, 1e3);
  const spice::Simulator sim(c);
  (void)sim.dc_sweep("vin", {0.5, 0.9});
  EXPECT_DOUBLE_EQ(c.vsources()[0].wave.dc_value(), 0.123);
  // Also when a sweep point throws: a warm start of the wrong length.
  spice::OpOptions bad;
  bad.initial_guess = {0.0, 0.0, 0.0};
  EXPECT_THROW((void)sim.dc_sweep("vin", {0.5, 0.9}, bad),
               InvalidArgumentError);
  EXPECT_DOUBLE_EQ(c.vsources()[0].wave.dc_value(), 0.123);
}

TEST(DcSweep, InverterTransferCurveIsMonotoneFalling) {
  spice::Circuit c;
  const int nm = c.add_model(circuits::default_nmos());
  const int pm = c.add_model(circuits::default_pmos());
  const spice::NodeId vdd = c.node("vdd");
  const spice::NodeId in = c.node("in");
  const spice::NodeId out = c.node("out");
  c.add_vsource("vs", vdd, spice::kGround, spice::Waveform::dc(0.8));
  c.add_vsource("vi", in, spice::kGround, spice::Waveform::dc(0.0));
  spice::Mosfet mn;
  mn.name = "mn";
  mn.d = out;
  mn.g = in;
  mn.s = spice::kGround;
  mn.b = spice::kGround;
  mn.model = nm;
  mn.w = 1e-6;
  mn.l = 14e-9;
  c.add_mosfet(mn);
  spice::Mosfet mp = mn;
  mp.name = "mp";
  mp.s = vdd;
  mp.b = vdd;
  mp.model = pm;
  mp.w = 1.2e-6;
  c.add_mosfet(mp);

  const spice::Simulator sim(c);
  std::vector<double> vin_values;
  for (double v = 0.0; v <= 0.8 + 1e-9; v += 0.05) vin_values.push_back(v);
  const auto sols = sim.dc_sweep("vi", vin_values);
  double prev = 1e9;
  int crossings = 0;
  for (std::size_t k = 0; k < sols.size(); ++k) {
    ASSERT_FALSE(sols[k].empty()) << "vin=" << vin_values[k];
    const double vo = sim.voltage(sols[k], out);
    EXPECT_LE(vo, prev + 1e-6) << "vin=" << vin_values[k];
    if (prev > 0.4 && vo <= 0.4) ++crossings;
    prev = vo;
  }
  EXPECT_EQ(crossings, 1);  // a single switching threshold
}

TEST(DcSweep, NonConvergedPointYieldsEmptySolutionAndGuardedAccess) {
  // Two sources fighting over one node: every sweep point is singular, so
  // dc_sweep records an empty solution vector per point. The accessors must
  // reject those placeholders instead of indexing out of bounds.
  spice::Circuit c;
  const spice::NodeId n = c.node("n");
  c.add_vsource("v1", n, spice::kGround, spice::Waveform::dc(1.0));
  c.add_vsource("v2", n, spice::kGround, spice::Waveform::dc(2.0));
  const spice::Simulator sim(c);
  set_log_level(LogLevel::kOff);
  const auto sols = sim.dc_sweep("v1", {0.0, 1.0});
  set_log_level(LogLevel::kWarn);
  ASSERT_EQ(sols.size(), 2u);
  for (const auto& s : sols) EXPECT_TRUE(s.empty());
  EXPECT_THROW(sim.voltage(sols[0], n), InvalidArgumentError);
  EXPECT_THROW(sim.vsource_current(sols[0], "v1"), InvalidArgumentError);
}

TEST(DcSweep, UnknownSourceThrows) {
  spice::Circuit c;
  c.add_resistor("r", c.node("a"), spice::kGround, 1e3);
  const spice::Simulator sim(c);
  EXPECT_THROW(sim.dc_sweep("nosuch", {0.0}), InvalidArgumentError);
}

}  // namespace
}  // namespace olp
