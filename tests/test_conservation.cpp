// Conservation-law property tests for the simulator: Kirchhoff's current law
// at source branches, AC superposition/linearity, transient charge
// conservation, energy bookkeeping on randomized networks, and the
// simulator's linearized KCL self-check on the paper's testbenches.

#include <gtest/gtest.h>

#include "circuits/common.hpp"
#include "circuits/ota5t.hpp"
#include "circuits/strongarm.hpp"
#include "circuits/vco.hpp"
#include "spice/measure.hpp"
#include "spice/simulator.hpp"
#include "util/obs.hpp"
#include "util/rng.hpp"

namespace olp::spice {
namespace {

/// Random resistive mesh between n nodes driven by one source; every node
/// has a path to ground.
Circuit random_mesh(std::uint64_t seed, int n_nodes) {
  Rng rng(seed);
  Circuit c;
  std::vector<NodeId> nodes;
  for (int k = 0; k < n_nodes; ++k) {
    nodes.push_back(c.node("n" + std::to_string(k)));
  }
  c.add_vsource("vdrv", nodes[0], kGround,
                Waveform::dc(rng.uniform(0.2, 1.5)));
  for (int k = 0; k < n_nodes; ++k) {
    // Chain to the next node and a random ground tie.
    if (k + 1 < n_nodes) {
      c.add_resistor("rc" + std::to_string(k), nodes[static_cast<std::size_t>(k)],
                     nodes[static_cast<std::size_t>(k + 1)],
                     rng.uniform(0.5e3, 5e3));
    }
    if (rng.chance(0.6)) {
      c.add_resistor("rg" + std::to_string(k), nodes[static_cast<std::size_t>(k)],
                     kGround, rng.uniform(1e3, 20e3));
    }
  }
  c.add_resistor("rtie", nodes.back(), kGround, 2e3);
  return c;
}

// Property: the source current equals the total current returned to ground
// through the resistors tied to ground (KCL on the ground node).
class KclMesh : public ::testing::TestWithParam<int> {};

TEST_P(KclMesh, GroundCurrentBalances) {
  const Circuit c =
      random_mesh(static_cast<std::uint64_t>(GetParam()), 5 + GetParam() % 5);
  Simulator sim(c);
  const OpResult op = sim.op();
  ASSERT_TRUE(op.converged);
  const double i_src = sim.vsource_current(op.x, "vdrv");
  double i_ground = 0.0;
  for (const Resistor& r : c.resistors()) {
    if (r.b == kGround) i_ground += sim.voltage(op.x, r.a) / r.r;
    if (r.a == kGround) i_ground -= sim.voltage(op.x, r.b) / r.r;
  }
  // Source branch current (p->n) is minus the delivered current.
  EXPECT_NEAR(-i_src, i_ground, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KclMesh, ::testing::Range(1, 13));

TEST(Kcl, MosfetCircuitBalancesSupplyCurrents) {
  // All current entering through vdd must leave through ground sources.
  Circuit c;
  const int nm = c.add_model(circuits::default_nmos());
  const int pm = c.add_model(circuits::default_pmos());
  const NodeId vdd = c.node("vdd");
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add_vsource("vs", vdd, kGround, Waveform::dc(0.8));
  c.add_vsource("vi", in, kGround, Waveform::dc(0.4));
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
  Mosfet mp = mn;
  mp.name = "mp";
  mp.s = vdd;
  mp.b = vdd;
  mp.model = pm;
  c.add_mosfet(mp);
  Simulator sim(c);
  const OpResult op = sim.op();
  ASSERT_TRUE(op.converged);
  // Device currents: PMOS sources what NMOS sinks (series stack at OP).
  const std::vector<MosOperatingPoint> ops = sim.mos_operating_points(op.x);
  EXPECT_NEAR(ops[0].id, -ops[1].id, 1e-9);
  // The vdd branch carries exactly the PMOS current.
  EXPECT_NEAR(std::fabs(sim.vsource_current(op.x, "vs")),
              std::fabs(ops[1].id), 1e-9);
}

// Property: AC solutions are linear in the excitation magnitude.
class AcLinearity : public ::testing::TestWithParam<double> {};

TEST_P(AcLinearity, ScalesWithMagnitude) {
  const double mag = GetParam();
  auto response = [&](double m) {
    Circuit c;
    const NodeId in = c.node("in");
    const NodeId out = c.node("out");
    c.add_vsource("vin", in, kGround, Waveform::dc(0.0), m);
    c.add_resistor("r", in, out, 1e3);
    c.add_capacitor("cc", out, kGround, 1e-12);
    Simulator sim(c);
    const OpResult op = sim.op();
    AcOptions ac;
    ac.frequencies = {200e6};
    const AcResult r = sim.ac(op.x, ac);
    return sim.ac_voltage(r.solutions[0], out);
  };
  const std::complex<double> v1 = response(1.0);
  const std::complex<double> vm = response(mag);
  EXPECT_NEAR(std::abs(vm - mag * v1), 0.0, 1e-9 * mag);
}

INSTANTIATE_TEST_SUITE_P(Magnitudes, AcLinearity,
                         ::testing::Values(0.5, 2.0, 10.0, 100.0));

TEST(Conservation, TransientChargeOnFloatingCap) {
  // A capacitor discharging through a resistor: the integrated resistor
  // current equals the lost charge.
  Circuit c;
  const NodeId n = c.node("n");
  c.add_resistor("r", n, kGround, 1e3);
  c.add_capacitor("cc", n, kGround, 1e-12);
  c.set_initial_condition(n, 1.0);
  Simulator sim(c);
  TranOptions tr;
  tr.tstop = 5e-9;
  tr.dt = 5e-12;
  const TranResult res = sim.tran(tr);
  ASSERT_TRUE(res.ok);
  const std::vector<double> v = tran_waveform(sim, res, n);
  // Integrate i = v/R over the run (trapezoid).
  double charge = 0.0;
  for (std::size_t k = 1; k < res.times.size(); ++k) {
    charge += 0.5 * (v[k] + v[k - 1]) / 1e3 * (res.times[k] - res.times[k - 1]);
  }
  const double lost = 1e-12 * (v.front() - v.back());
  EXPECT_NEAR(charge, lost, 0.01 * lost);
}

TEST(Conservation, ResistorPowerMatchesSourcePower) {
  Circuit c;
  const NodeId a = c.node("a");
  const NodeId b = c.node("b");
  c.add_vsource("vs", a, kGround, Waveform::dc(2.0));
  c.add_resistor("r1", a, b, 1e3);
  c.add_resistor("r2", b, kGround, 3e3);
  Simulator sim(c);
  const OpResult op = sim.op();
  ASSERT_TRUE(op.converged);
  const double i = -sim.vsource_current(op.x, "vs");
  const double p_source = 2.0 * i;
  const double va = sim.voltage(op.x, a);
  const double vb = sim.voltage(op.x, b);
  const double p_r = (va - vb) * (va - vb) / 1e3 + vb * vb / 3e3;
  EXPECT_NEAR(p_source, p_r, 1e-9);
}

// The simulator's linearized KCL self-check: every converged op solve and
// accepted transient step leaves a relative residual
// ||Ax - b|| / max(|A||x|, |b|) with its final Jacobian and rhs, and each
// analysis records its maximum as one "sim.kcl_residual_max" sample. This is
// the sparse solver's backward error on the real matrices: on the paper's
// testbenches, annotated with extracted layout parasitics, it must stay at
// round-off level.
class KclSelfCheck : public ::testing::Test {
 protected:
  static const tech::Technology& t() {
    static const tech::Technology tech = tech::make_default_finfet_tech();
    return tech;
  }

  static circuits::Realization extracted(
      const std::vector<circuits::InstanceSpec>& instances) {
    circuits::Realization real = circuits::schematic_realization(instances, t());
    real.ideal = false;
    return real;
  }

  /// The analyses' residual maxima recorded while `run` executes.
  template <typename F>
  static obs::DistributionStats residuals(F&& run) {
    obs::ScopedObservability scope;
    run();
    const obs::Snapshot snap = obs::Registry::global().snapshot();
    const auto it = snap.distributions.find("sim.kcl_residual_max");
    if (it == snap.distributions.end()) return {};
    EXPECT_GT(snap.counter("sim.lu.factorizations"), 0);
    return it->second;
  }
};

TEST_F(KclSelfCheck, OtaTestbench) {
  circuits::Ota5T ota(t());
  const obs::DistributionStats r = residuals([&] {
    ASSERT_TRUE(ota.prepare());
    EXPECT_FALSE(ota.measure(extracted(ota.instances())).empty());
  });
  EXPECT_GT(r.count, 0);
  EXPECT_LT(r.max, 1e-9);
}

TEST_F(KclSelfCheck, StrongArmTestbench) {
  circuits::StrongArmComparator sa(t());
  const obs::DistributionStats r = residuals([&] {
    ASSERT_TRUE(sa.prepare());
    EXPECT_FALSE(sa.measure(extracted(sa.instances())).empty());
  });
  EXPECT_GT(r.count, 0);
  EXPECT_LT(r.max, 1e-9);
}

TEST_F(KclSelfCheck, ExtractedVcoTestbench) {
  // One control voltage of the 8-stage ring: an op and ~2500 transient
  // steps on the extracted full circuit.
  circuits::RoVco vco(t(), 8);
  const obs::DistributionStats r = residuals([&] {
    ASSERT_TRUE(vco.prepare());
    EXPECT_TRUE(vco.frequency(extracted(vco.instances()), 0.5).has_value());
  });
  EXPECT_GE(r.count, 2);
  EXPECT_LT(r.max, 1e-9);
}

}  // namespace
}  // namespace olp::spice
