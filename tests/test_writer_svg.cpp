// Tests for the netlist writer (round trips through the parser) and the SVG
// layout renderer.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>

#include "circuits/common.hpp"
#include "geom/svg.hpp"
#include "pcell/generator.hpp"
#include "extract/annotate.hpp"
#include "spice/parser.hpp"
#include "spice/simulator.hpp"
#include "spice/writer.hpp"

namespace olp {
namespace {

// --- netlist writer -----------------------------------------------------------

TEST(Writer, RoundTripsLinearNetwork) {
  spice::Circuit c;
  const spice::NodeId in = c.node("in");
  const spice::NodeId out = c.node("out");
  c.add_vsource("v1", in, spice::kGround, spice::Waveform::dc(1.5), 1.0, 0.0);
  c.add_resistor("r1", in, out, 2.2e3);
  c.add_capacitor("c1", out, spice::kGround, 3.3e-15);
  c.add_vcvs("e1", c.node("x"), spice::kGround, in, out, 4.0);
  c.add_vccs("g1", out, spice::kGround, in, spice::kGround, 1e-3);

  const std::string deck = spice::write_netlist(c, "round trip");
  const spice::Circuit back = spice::parse_netlist(deck);
  ASSERT_EQ(back.resistors().size(), 1u);
  EXPECT_DOUBLE_EQ(back.resistors()[0].r, 2.2e3);
  ASSERT_EQ(back.capacitors().size(), 1u);
  EXPECT_DOUBLE_EQ(back.capacitors()[0].c, 3.3e-15);
  ASSERT_EQ(back.vsources().size(), 1u);
  EXPECT_DOUBLE_EQ(back.vsources()[0].wave.dc_value(), 1.5);
  EXPECT_DOUBLE_EQ(back.vsources()[0].ac_mag, 1.0);
  ASSERT_EQ(back.vcvs().size(), 1u);
  EXPECT_DOUBLE_EQ(back.vcvs()[0].gain, 4.0);
  ASSERT_EQ(back.vccs().size(), 1u);
  EXPECT_DOUBLE_EQ(back.vccs()[0].gm, 1e-3);
}

TEST(Writer, RoundTripsMosfetWithAnnotations) {
  spice::Circuit c;
  const int nm = c.add_model(circuits::default_nmos());
  spice::Mosfet m;
  m.name = "m1";
  m.d = c.node("d");
  m.g = c.node("g");
  m.s = spice::kGround;
  m.b = spice::kGround;
  m.model = nm;
  m.w = 2e-6;
  m.l = 14e-9;
  m.as = 1e-13;
  m.ad = 2e-13;
  m.ps = 3e-6;
  m.pd = 4e-6;
  m.delta_vth = 5e-3;
  m.mobility_mult = 0.97;
  c.add_mosfet(m);

  const spice::Circuit back =
      spice::parse_netlist(spice::write_netlist(c));
  ASSERT_EQ(back.mosfets().size(), 1u);
  const spice::Mosfet& bm = back.mosfets()[0];
  EXPECT_DOUBLE_EQ(bm.w, 2e-6);
  EXPECT_DOUBLE_EQ(bm.as, 1e-13);
  EXPECT_DOUBLE_EQ(bm.delta_vth, 5e-3);
  EXPECT_DOUBLE_EQ(bm.mobility_mult, 0.97);
  EXPECT_DOUBLE_EQ(back.model(bm.model).vth0,
                   circuits::default_nmos().vth0);
}

TEST(Writer, RoundTripsSourceWaveforms) {
  spice::Circuit c;
  c.add_vsource("vp", c.node("a"), spice::kGround,
                spice::Waveform::pulse(0, 0.8, 1e-9, 2e-11, 2e-11, 5e-10,
                                       1e-9));
  c.add_vsource("vs", c.node("b"), spice::kGround,
                spice::Waveform::sine(0.4, 0.1, 1e9, 2e-9));
  c.add_isource("ip", c.node("a"), c.node("b"),
                spice::Waveform::pwl({{0, 0}, {1e-9, 1e-6}}));
  const spice::Circuit back =
      spice::parse_netlist(spice::write_netlist(c));
  EXPECT_NEAR(back.vsources()[0].wave.value(1.3e-9), 0.8, 1e-12);
  EXPECT_NEAR(back.vsources()[1].wave.value(2e-9 + 0.25e-9), 0.5, 1e-9);
  EXPECT_NEAR(back.isources()[0].wave.value(0.5e-9), 0.5e-6, 1e-15);
}

TEST(Writer, RoundTripsInitialConditions) {
  spice::Circuit c;
  c.add_resistor("r", c.node("osc"), spice::kGround, 1e3);
  c.set_initial_condition(c.find_node("osc"), 0.8);
  const spice::Circuit back =
      spice::parse_netlist(spice::write_netlist(c));
  ASSERT_EQ(back.initial_conditions().size(), 1u);
  EXPECT_DOUBLE_EQ(back.initial_conditions().begin()->second, 0.8);
}

TEST(Writer, RoundTrippedCircuitSimulatesIdentically) {
  // Build, write, parse, and check the OP matches.
  spice::Circuit c;
  const spice::NodeId in = c.node("in");
  const spice::NodeId mid = c.node("mid");
  c.add_vsource("v1", in, spice::kGround, spice::Waveform::dc(1.0));
  c.add_resistor("r1", in, mid, 1e3);
  c.add_resistor("r2", mid, spice::kGround, 3e3);
  const spice::Circuit back =
      spice::parse_netlist(spice::write_netlist(c));
  spice::Simulator sim(back);
  const spice::OpResult op = sim.op();
  ASSERT_TRUE(op.converged);
  EXPECT_NEAR(sim.voltage(op.x, back.find_node("mid")), 0.75, 1e-9);
}

TEST(Writer, FullExtractedPrimitiveRoundTrips) {
  // A generated, extracted DP written and re-parsed simulates to the same
  // operating point.
  const tech::Technology t = tech::make_default_finfet_tech();
  const pcell::PrimitiveGenerator gen(t);
  pcell::LayoutConfig cfg;
  cfg.nfin = 8;
  cfg.nf = 10;
  cfg.m = 2;
  const pcell::PrimitiveLayout lay =
      gen.generate(pcell::make_diff_pair(), cfg);
  spice::Circuit c;
  extract::AnnotateOptions opt;
  opt.nmos_model = c.add_model(circuits::default_nmos());
  opt.pmos_model = c.add_model(circuits::default_pmos());
  const auto ports = extract::annotate_primitive(c, lay, t, "p.", opt);
  c.add_vsource("vga", ports.at("ga"), spice::kGround,
                spice::Waveform::dc(0.5));
  c.add_vsource("vgb", ports.at("gb"), spice::kGround,
                spice::Waveform::dc(0.5));
  c.add_vsource("vda", ports.at("da"), spice::kGround,
                spice::Waveform::dc(0.5));
  c.add_vsource("vdb", ports.at("db"), spice::kGround,
                spice::Waveform::dc(0.5));
  c.add_isource("it", ports.at("s"), spice::kGround,
                spice::Waveform::dc(300e-6));

  const spice::Circuit back = spice::parse_netlist(spice::write_netlist(c));
  EXPECT_EQ(back.mosfets().size(), c.mosfets().size());
  EXPECT_EQ(back.resistors().size(), c.resistors().size());
  EXPECT_EQ(back.capacitors().size(), c.capacitors().size());
  spice::Simulator sim_a(c), sim_b(back);
  const spice::OpResult op_a = sim_a.op();
  const spice::OpResult op_b = sim_b.op();
  ASSERT_TRUE(op_a.converged);
  ASSERT_TRUE(op_b.converged);
  EXPECT_NEAR(sim_a.voltage(op_a.x, ports.at("s")),
              sim_b.voltage(op_b.x, back.find_node("p.s")), 1e-6);
}

// --- SVG renderer --------------------------------------------------------------

TEST(Svg, RendersLayersPinsAndNets) {
  geom::Layout l("cell");
  l.add_shape(tech::Layer::kDiffusion, {0, 0, 1000, 200}, "netA");
  l.add_shape(tech::Layer::kPoly, {100, -30, 114, 230});
  l.add_pin("p1", tech::Layer::kM2, {10, 10, 50, 50});
  const std::string svg = geom::to_svg(l);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  EXPECT_NE(svg.find("netA"), std::string::npos);  // net tooltip
  EXPECT_NE(svg.find("p1"), std::string::npos);    // pin label
  // One rect per shape + pin + background.
  EXPECT_GE(static_cast<int>(std::count(svg.begin(), svg.end(), '<')), 5);
}

TEST(Svg, GeneratedPrimitiveRenders) {
  const tech::Technology t = tech::make_default_finfet_tech();
  const pcell::PrimitiveGenerator gen(t);
  pcell::LayoutConfig cfg;
  cfg.nfin = 8;
  cfg.nf = 8;
  cfg.m = 2;
  const pcell::PrimitiveLayout lay =
      gen.generate(pcell::make_diff_pair(), cfg);
  const std::string svg = geom::to_svg(lay.geometry);
  // All five ports are labelled.
  for (const char* port : {"da", "db", "ga", "gb", "s"}) {
    EXPECT_NE(svg.find(std::string(">") + port + "<"), std::string::npos)
        << port;
  }
}

TEST(Svg, WriteToFileAndValidateOptions) {
  geom::Layout l("cell");
  l.add_shape(tech::Layer::kM1, {0, 0, 100, 100});
  const std::string path = "/tmp/olp_svg_test.svg";
  geom::write_svg(l, path);
  std::ifstream in(path);
  EXPECT_TRUE(static_cast<bool>(in));
  EXPECT_THROW(geom::write_svg(l, "/olp-no-such-dir/cell.svg"),
               InvalidArgumentError);
}

}  // namespace
}  // namespace olp
