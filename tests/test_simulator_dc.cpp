// DC operating-point tests: linear networks with exact answers, controlled
// sources, MOSFET bias points against hand analysis, and solver robustness.

#include <gtest/gtest.h>

#include <cstring>

#include "circuits/common.hpp"
#include "spice/parser.hpp"
#include "spice/simulator.hpp"
#include "util/obs.hpp"
#include "util/task_pool.hpp"

namespace olp::spice {
namespace {

TEST(DcOp, ResistorDivider) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId mid = c.node("mid");
  c.add_vsource("v1", in, kGround, Waveform::dc(1.0));
  c.add_resistor("r1", in, mid, 1e3);
  c.add_resistor("r2", mid, kGround, 3e3);
  Simulator sim(c);
  const OpResult op = sim.op();
  ASSERT_TRUE(op.converged);
  EXPECT_NEAR(sim.voltage(op.x, mid), 0.75, 1e-9);
  // Branch current flows p->n inside the source: the supply sources current,
  // so the branch current is negative (out of the + terminal externally).
  EXPECT_NEAR(sim.vsource_current(op.x, "v1"), -1.0 / 4e3, 1e-9);
}

TEST(DcOp, CurrentSourceIntoResistor) {
  Circuit c;
  const NodeId n = c.node("n");
  c.add_isource("i1", kGround, n, Waveform::dc(1e-3));  // pushes into n
  c.add_resistor("r1", n, kGround, 2e3);
  Simulator sim(c);
  const OpResult op = sim.op();
  ASSERT_TRUE(op.converged);
  EXPECT_NEAR(sim.voltage(op.x, n), 2.0, 1e-6);
}

TEST(DcOp, SeriesResistorsKirchhoff) {
  Circuit c;
  const NodeId a = c.node("a");
  const NodeId b = c.node("b");
  const NodeId d = c.node("d");
  c.add_vsource("v1", a, kGround, Waveform::dc(3.0));
  c.add_resistor("r1", a, b, 1e3);
  c.add_resistor("r2", b, d, 1e3);
  c.add_resistor("r3", d, kGround, 1e3);
  Simulator sim(c);
  const OpResult op = sim.op();
  ASSERT_TRUE(op.converged);
  EXPECT_NEAR(sim.voltage(op.x, b), 2.0, 1e-6);
  EXPECT_NEAR(sim.voltage(op.x, d), 1.0, 1e-6);
}

TEST(DcOp, VcvsAmplifies) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add_vsource("v1", in, kGround, Waveform::dc(0.1));
  c.add_vcvs("e1", out, kGround, in, kGround, 10.0);
  c.add_resistor("rl", out, kGround, 1e3);
  Simulator sim(c);
  const OpResult op = sim.op();
  ASSERT_TRUE(op.converged);
  EXPECT_NEAR(sim.voltage(op.x, out), 1.0, 1e-9);
}

TEST(DcOp, VccsSinksProportionalCurrent) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add_vsource("v1", in, kGround, Waveform::dc(0.5));
  c.add_vsource("v2", out, kGround, Waveform::dc(1.0));
  // i(out->gnd) = 1m * v(in): pulls 0.5 mA out of the out node, which the
  // clamp supplies (its p->n branch current is therefore negative).
  c.add_vccs("g1", out, kGround, in, kGround, 1e-3);
  Simulator sim(c);
  const OpResult op = sim.op();
  ASSERT_TRUE(op.converged);
  EXPECT_NEAR(sim.vsource_current(op.x, "v2"), -0.5e-3, 1e-9);
}

TEST(DcOp, TwoSourcesSuperpose) {
  Circuit c;
  const NodeId n = c.node("n");
  c.add_isource("ia", kGround, n, Waveform::dc(1e-3));
  c.add_isource("ib", kGround, n, Waveform::dc(2e-3));
  c.add_resistor("r", n, kGround, 1e3);
  Simulator sim(c);
  const OpResult op = sim.op();
  ASSERT_TRUE(op.converged);
  EXPECT_NEAR(sim.voltage(op.x, n), 3.0, 1e-6);
}

TEST(DcOp, DiodeConnectedMosfetSelfBiases) {
  Circuit c;
  const int nm = c.add_model(circuits::default_nmos());
  const NodeId d = c.node("d");
  c.add_isource("ib", kGround, d, Waveform::dc(100e-6));
  Mosfet m;
  m.name = "m1";
  m.d = d;
  m.g = d;
  m.s = kGround;
  m.b = kGround;
  m.model = nm;
  m.w = 2e-6;
  m.l = 14e-9;
  c.add_mosfet(m);
  Simulator sim(c);
  const OpResult op = sim.op();
  ASSERT_TRUE(op.converged);
  const double vgs = sim.voltage(op.x, d);
  // Self-biased diode lands a bit above threshold for this density.
  EXPECT_GT(vgs, 0.20);
  EXPECT_LT(vgs, 0.55);
  // Device current equals the bias current.
  const std::vector<MosOperatingPoint> ops = sim.mos_operating_points(op.x);
  EXPECT_NEAR(ops[0].id, 100e-6, 1e-9);
}

TEST(DcOp, NmosMirrorCopiesCurrent) {
  Circuit c;
  const int nm = c.add_model(circuits::default_nmos());
  const NodeId ref = c.node("ref");
  const NodeId out = c.node("out");
  c.add_isource("ib", kGround, ref, Waveform::dc(50e-6));
  c.add_vsource("vo", out, kGround, Waveform::dc(0.4));
  for (int i = 0; i < 2; ++i) {
    Mosfet m;
    m.name = i == 0 ? "mref" : "mout";
    m.d = i == 0 ? ref : out;
    m.g = ref;
    m.s = kGround;
    m.b = kGround;
    m.model = nm;
    m.w = 2e-6;
    m.l = 14e-9;
    c.add_mosfet(m);
  }
  Simulator sim(c);
  const OpResult op = sim.op();
  ASSERT_TRUE(op.converged);
  const double iout = sim.vsource_current(op.x, "vo");
  // Mirror ratio within CLM error (Vds mismatch).
  EXPECT_NEAR(std::fabs(iout), 50e-6, 10e-6);
}

TEST(DcOp, PmosSourceFollowsSupply) {
  Circuit c;
  const int pm = c.add_model(circuits::default_pmos());
  const NodeId vdd = c.node("vdd");
  const NodeId out = c.node("out");
  c.add_vsource("vs", vdd, kGround, Waveform::dc(0.8));
  c.add_vsource("vg", c.node("g"), kGround, Waveform::dc(0.4));
  Mosfet m;
  m.name = "mp";
  m.d = out;
  m.g = c.node("g");
  m.s = vdd;
  m.b = vdd;
  m.model = pm;
  m.w = 2e-6;
  m.l = 14e-9;
  c.add_mosfet(m);
  c.add_resistor("rl", out, kGround, 10e3);
  Simulator sim(c);
  const OpResult op = sim.op();
  ASSERT_TRUE(op.converged);
  // PMOS with Vsg = 0.4 sources current; out rises above ground.
  EXPECT_GT(sim.voltage(op.x, out), 0.1);
}

TEST(DcOp, InverterTransferMidpoint) {
  Circuit c;
  const int nm = c.add_model(circuits::default_nmos());
  const int pm = c.add_model(circuits::default_pmos());
  const NodeId vdd = c.node("vdd");
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add_vsource("vs", vdd, kGround, Waveform::dc(0.8));
  c.add_vsource("vi", in, kGround, Waveform::dc(0.0));
  Mosfet mn;
  mn.name = "mn";
  mn.d = out;
  mn.g = in;
  mn.s = kGround;
  mn.b = kGround;
  mn.model = nm;
  mn.w = 1e-6;
  mn.l = 14e-9;
  c.add_mosfet(mn);
  Mosfet mp;
  mp.name = "mp";
  mp.d = out;
  mp.g = in;
  mp.s = vdd;
  mp.b = vdd;
  mp.model = pm;
  mp.w = 1.2e-6;
  mp.l = 14e-9;
  c.add_mosfet(mp);

  Simulator sim(c);
  // Input low -> output high.
  OpResult op = sim.op();
  ASSERT_TRUE(op.converged);
  EXPECT_GT(sim.voltage(op.x, out), 0.75);
  // Input high -> output low (warm start from the previous solution).
  c.vsources()[1].wave = Waveform::dc(0.8);
  Simulator sim2(c);
  op = sim2.op();
  ASSERT_TRUE(op.converged);
  EXPECT_LT(sim2.voltage(op.x, out), 0.05);
}

TEST(DcOp, WarmStartConverges) {
  Circuit c;
  const NodeId n = c.node("n");
  c.add_isource("i1", kGround, n, Waveform::dc(1e-3));
  c.add_resistor("r1", n, kGround, 1e3);
  Simulator sim(c);
  const OpResult first = sim.op();
  ASSERT_TRUE(first.converged);
  OpOptions warm;
  warm.initial_guess = first.x;
  const OpResult second = sim.op(warm);
  ASSERT_TRUE(second.converged);
  EXPECT_LE(second.iterations, first.iterations);
}

TEST(DcOp, FloatingNodeHandledByGmin) {
  // A node connected only to a capacitor has no DC path; the gmin floor must
  // keep the system solvable.
  Circuit c;
  const NodeId a = c.node("a");
  const NodeId fl = c.node("floating");
  c.add_vsource("v1", a, kGround, Waveform::dc(1.0));
  c.add_resistor("r1", a, kGround, 1e3);
  c.add_capacitor("c1", fl, a, 1e-15);
  Simulator sim(c);
  const OpResult op = sim.op();
  EXPECT_TRUE(op.converged);
}

TEST(DcOp, ParsedNetlistMatchesProgrammatic) {
  const Circuit c = parse_netlist(R"(
V1 in 0 DC 2.0
R1 in mid 1k
R2 mid 0 1k
)");
  Simulator sim(c);
  const OpResult op = sim.op();
  ASSERT_TRUE(op.converged);
  EXPECT_NEAR(sim.voltage(op.x, c.find_node("mid")), 1.0, 1e-9);
}

TEST(DcOp, MosfetTableIsCheckedAtConstruction) {
  Circuit c;
  const int nm = c.add_model(circuits::default_nmos());
  const NodeId d = c.node("d");
  c.add_isource("ib", kGround, d, Waveform::dc(100e-6));
  Mosfet m;
  m.name = "m1";
  m.d = d;
  m.g = d;
  m.model = nm;
  c.add_mosfet(m);
  c.mosfets()[0].l = 0.0;
  EXPECT_THROW(Simulator{c}, InvalidArgumentError);
  c.mosfets()[0].l = 14e-9;
  c.mosfets()[0].g = -2;
  EXPECT_THROW(Simulator{c}, InvalidArgumentError);
  c.mosfets()[0].g = d;
  EXPECT_TRUE(Simulator(c).op().converged);
}

/// A V-biased NMOS: vg and vd drive its gate and drain.
Circuit biased_nmos() {
  Circuit c;
  const int nm = c.add_model(circuits::default_nmos());
  const NodeId g = c.node("g");
  const NodeId d = c.node("d");
  c.add_vsource("vg", g, kGround, Waveform::dc(0.5));
  c.add_vsource("vd", d, kGround, Waveform::dc(0.4));
  c.add_resistor("rd", d, kGround, 10e3);
  Mosfet m;
  m.name = "m1";
  m.d = d;
  m.g = g;
  m.s = kGround;
  m.b = kGround;
  m.model = nm;
  m.w = 2e-6;
  m.l = 14e-9;
  c.add_mosfet(m);
  return c;
}

/// Sparse LU orderings computed while `run` executes.
template <typename F>
long orderings_during(F&& run) {
  obs::ScopedObservability scope;
  run();
  return obs::Registry::global().counter("sim.lu.orderings");
}

bool same_bits(const OpResult& a, const OpResult& b) {
  return a.converged == b.converged && a.iterations == b.iterations &&
         a.x.size() == b.x.size() &&
         std::memcmp(a.x.data(), b.x.data(), a.x.size() * sizeof(double)) == 0;
}

// A source value enters the rhs, not the matrix, so a second cold-start
// op() with only vg changed starts from the same first matrix: it adopts the
// remembered factorization, orders nothing, and returns a fresh simulator's
// bits.
TEST(DcOp, ColdStartAdoptsTheFirstFactorization) {
  Circuit c = biased_nmos();
  const Simulator sim(c);
  OpResult first;
  EXPECT_EQ(orderings_during([&] { first = sim.op(); }), 1);
  ASSERT_TRUE(first.converged);
  c.vsources()[static_cast<std::size_t>(c.find_vsource("vg"))].wave =
      Waveform::dc(0.55);
  OpResult second;
  EXPECT_EQ(orderings_during([&] { second = sim.op(); }), 0);
  EXPECT_TRUE(same_bits(second, Simulator(c).op()));
  EXPECT_FALSE(same_bits(second, first));
}

// A warm start at the operating point linearizes the MOSFETs where the
// cold start does not, so its first matrix differs: no adoption.
TEST(DcOp, DifferentGminOrdersAnew) {
  const Circuit c = biased_nmos();
  const Simulator sim(c);
  const OpResult cold = sim.op();
  ASSERT_TRUE(cold.converged);
  OpOptions options;
  options.initial_guess = cold.x;
  OpResult op;
  EXPECT_EQ(orderings_during([&] { op = sim.op(options); }), 1);
  EXPECT_TRUE(same_bits(op, Simulator(c).op(options)));
}

// Pooled op() calls on one simulator, alternating a cold start and a warm
// start at the operating point so that calls keep replacing the remembered
// factorization while others compare with it and adopt it, all return a
// lone call's bits. Its mutex is what keeps them apart; tsan_smoke runs
// this under ThreadSanitizer.
TEST(DcOp, PooledOpsOnOneSimulatorAgree) {
  const Circuit c = biased_nmos();
  OpOptions other;
  other.initial_guess = Simulator(c).op().x;
  const OpResult expected[2] = {Simulator(c).op(), Simulator(c).op(other)};
  const Simulator sim(c);
  std::vector<OpResult> results(256);
  TaskPool pool(4);
  pool.parallel_for(results.size(), [&](std::size_t i) {
    results[i] = i % 2 == 0 ? sim.op() : sim.op(other);
    return true;
  });
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(same_bits(results[i], expected[i % 2])) << i;
  }
}

}  // namespace
}  // namespace olp::spice
