// AC small-signal tests: RC poles with exact answers, transconductance
// stages, and the measurement helpers built on AC sweeps.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <utility>

#include "circuits/common.hpp"
#include "spice/measure.hpp"
#include "spice/simulator.hpp"
#include "util/obs.hpp"

namespace olp::spice {
namespace {

constexpr double kTwoPi = 2.0 * M_PI;

/// First-order RC low-pass: R = 1k, C = 1.59155 pF -> f3dB = 100 MHz.
Circuit rc_lowpass() {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add_vsource("vin", in, kGround, Waveform::dc(0.0), 1.0);
  c.add_resistor("r", in, out, 1e3);
  c.add_capacitor("c", out, kGround, 1.0 / (kTwoPi * 100e6 * 1e3));
  return c;
}

TEST(Ac, LowpassMagnitudeAtPole) {
  const Circuit c = rc_lowpass();
  Simulator sim(c);
  const OpResult op = sim.op();
  AcOptions ac;
  ac.frequencies = {100e6};
  const AcResult r = sim.ac(op.x, ac);
  EXPECT_NEAR(std::abs(sim.ac_voltage(r.solutions[0], c.find_node("out"))),
              1.0 / std::sqrt(2.0), 1e-6);
}

TEST(Ac, LowpassPhaseAtPole) {
  const Circuit c = rc_lowpass();
  Simulator sim(c);
  const OpResult op = sim.op();
  AcOptions ac;
  ac.frequencies = {100e6};
  const AcResult r = sim.ac(op.x, ac);
  const double phase =
      std::arg(sim.ac_voltage(r.solutions[0], c.find_node("out")));
  EXPECT_NEAR(phase, -M_PI / 4.0, 1e-6);
}

TEST(Ac, LowpassRollsOffAtMinus20dBPerDecade) {
  const Circuit c = rc_lowpass();
  Simulator sim(c);
  const OpResult op = sim.op();
  AcOptions ac;
  ac.frequencies = {1e9, 10e9};
  const AcResult r = sim.ac(op.x, ac);
  const double m1 =
      std::abs(sim.ac_voltage(r.solutions[0], c.find_node("out")));
  const double m2 =
      std::abs(sim.ac_voltage(r.solutions[1], c.find_node("out")));
  EXPECT_NEAR(db(m1) - db(m2), 20.0, 0.2);
}

TEST(Ac, ResistiveDividerIsFlat) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add_vsource("vin", in, kGround, Waveform::dc(0.0), 1.0);
  c.add_resistor("r1", in, out, 1e3);
  c.add_resistor("r2", out, kGround, 1e3);
  Simulator sim(c);
  const OpResult op = sim.op();
  AcOptions ac;
  ac.frequencies = {1e3, 1e6, 1e9};
  const AcResult r = sim.ac(op.x, ac);
  for (const auto& sol : r.solutions) {
    EXPECT_NEAR(std::abs(sim.ac_voltage(sol, c.find_node("out"))), 0.5, 1e-9);
  }
}

TEST(Ac, CapacitorAdmittanceIsJwc) {
  Circuit c;
  const NodeId a = c.node("a");
  c.add_vsource("vs", a, kGround, Waveform::dc(0.0), 1.0);
  c.add_capacitor("c1", a, kGround, 10e-15);
  Simulator sim(c);
  const OpResult op = sim.op();
  AcOptions ac;
  ac.frequencies = {1e9};
  const AcResult r = sim.ac(op.x, ac);
  // Current into the node from the source = -branch current.
  const std::complex<double> i = -sim.ac_vsource_current(r.solutions[0], "vs");
  EXPECT_NEAR(i.imag(), kTwoPi * 1e9 * 10e-15, 1e-9);
  EXPECT_NEAR(i.real(), 0.0, 1e-9);
}

TEST(Ac, MosfetGmStage) {
  // AC drain current of a V-biased MOSFET equals gm at low frequency.
  Circuit c;
  const int nm = c.add_model(circuits::default_nmos());
  const NodeId g = c.node("g");
  const NodeId d = c.node("d");
  c.add_vsource("vg", g, kGround, Waveform::dc(0.5), 1.0);
  c.add_vsource("vd", d, kGround, Waveform::dc(0.5));
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
  Simulator sim(c);
  const OpResult op = sim.op();
  ASSERT_TRUE(op.converged);
  const double gm = sim.mos_operating_points(op.x)[0].gm;
  AcOptions ac;
  ac.frequencies = {1e5};
  const AcResult r = sim.ac(op.x, ac);
  EXPECT_NEAR(std::abs(sim.ac_vsource_current(r.solutions[0], "vd")), gm,
              1e-3 * gm);
}

/// Sparse LU orderings computed by one ac() call at `freqs`, and its result.
long ac_orderings(const Simulator& sim, const std::vector<double>& op_x,
                  std::vector<double> freqs, AcResult& result) {
  obs::ScopedObservability scope;
  AcOptions ac;
  ac.frequencies = std::move(freqs);
  result = sim.ac(op_x, ac);
  return obs::Registry::global().counter("sim.lu.orderings");
}

bool same_bits(const AcResult& a, const AcResult& b) {
  if (a.solutions.size() != b.solutions.size()) return false;
  for (std::size_t k = 0; k < a.solutions.size(); ++k) {
    const auto& x = a.solutions[k];
    const auto& y = b.solutions[k];
    if (x.size() != y.size() ||
        std::memcmp(x.data(), y.data(), x.size() * sizeof(x[0])) != 0) {
      return false;
    }
  }
  return true;
}

// An ac() call orders once, on its first frequency, and refactors on the
// rest; it remembers no factorization, so a repeated call orders again.
// Earlier calls on the simulator leave a call's bits as a fresh one's.
TEST(Ac, EachCallOrdersOnce) {
  const Circuit c = rc_lowpass();
  const Simulator sim(c);
  const OpResult op = sim.op();
  ASSERT_TRUE(op.converged);
  AcResult first, again, sweep;
  EXPECT_EQ(ac_orderings(sim, op.x, {100e6}, first), 1);
  EXPECT_EQ(ac_orderings(sim, op.x, {100e6}, again), 1);
  EXPECT_TRUE(same_bits(first, again));
  EXPECT_EQ(ac_orderings(sim, op.x, {1e6, 1e8, 1e9}, sweep), 1);
  AcResult fresh;
  (void)ac_orderings(Simulator(c), op.x, {1e6, 1e8, 1e9}, fresh);
  EXPECT_TRUE(same_bits(sweep, fresh));
}

TEST(Ac, VcvsGainIsFrequencyIndependent) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add_vsource("vin", in, kGround, Waveform::dc(0.0), 1.0);
  c.add_vcvs("e1", out, kGround, in, kGround, -5.0);
  c.add_resistor("rl", out, kGround, 1e3);
  Simulator sim(c);
  const OpResult op = sim.op();
  AcOptions ac;
  ac.frequencies = {1e6, 1e9};
  const AcResult r = sim.ac(op.x, ac);
  for (const auto& sol : r.solutions) {
    EXPECT_NEAR(std::abs(sim.ac_voltage(sol, c.find_node("out"))), 5.0, 1e-9);
  }
}

// --- measurement helpers -----------------------------------------------------

TEST(Measure, LogFrequenciesSpanRange) {
  const std::vector<double> f = log_frequencies(1e6, 1e9, 10);
  EXPECT_NEAR(f.front(), 1e6, 1.0);
  EXPECT_NEAR(f.back(), 1e9, 1e3);
  for (std::size_t i = 1; i < f.size(); ++i) EXPECT_GT(f[i], f[i - 1]);
}

TEST(Measure, Bandwidth3dbOfLowpass) {
  const Circuit c = rc_lowpass();
  Simulator sim(c);
  const OpResult op = sim.op();
  AcOptions ac;
  ac.frequencies = log_frequencies(1e6, 10e9, 40);
  const AcResult r = sim.ac(op.x, ac);
  const std::vector<double> mag =
      ac_magnitude(sim, r, c.find_node("out"));
  const auto f3 = bandwidth_3db(ac.frequencies, mag);
  ASSERT_TRUE(f3.has_value());
  EXPECT_NEAR(*f3, 100e6, 2e6);
}

TEST(Measure, UnityGainOfIntegratorLikeResponse) {
  // Gain 10 low-pass with pole at 100 MHz -> |H| = 1 at ~995 MHz.
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId x = c.node("x");
  const NodeId out = c.node("out");
  c.add_vsource("vin", in, kGround, Waveform::dc(0.0), 1.0);
  c.add_vcvs("e1", x, kGround, in, kGround, 10.0);
  c.add_resistor("r", x, out, 1e3);
  c.add_capacitor("c", out, kGround, 1.0 / (kTwoPi * 100e6 * 1e3));
  Simulator sim(c);
  const OpResult op = sim.op();
  AcOptions ac;
  ac.frequencies = log_frequencies(1e6, 100e9, 40);
  const AcResult r = sim.ac(op.x, ac);
  const std::vector<double> mag = ac_magnitude(sim, r, out);
  const auto ugf = unity_gain_frequency(ac.frequencies, mag);
  ASSERT_TRUE(ugf.has_value());
  EXPECT_NEAR(*ugf, 100e6 * std::sqrt(99.0), 0.05 * 1e9);
}

TEST(Measure, PhaseMarginOfSinglePole) {
  // Single-pole system with UGF >> pole: phase margin -> ~90 deg.
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId x = c.node("x");
  const NodeId out = c.node("out");
  c.add_vsource("vin", in, kGround, Waveform::dc(0.0), 1.0);
  c.add_vcvs("e1", x, kGround, in, kGround, 100.0);
  c.add_resistor("r", x, out, 1e3);
  c.add_capacitor("c", out, kGround, 1.0 / (kTwoPi * 10e6 * 1e3));
  Simulator sim(c);
  const OpResult op = sim.op();
  AcOptions ac;
  ac.frequencies = log_frequencies(1e5, 100e9, 30);
  const AcResult r = sim.ac(op.x, ac);
  const std::vector<double> mag = ac_magnitude(sim, r, out);
  const std::vector<double> ph = ac_phase_deg(sim, r, out);
  const auto pm = phase_margin_deg(ac.frequencies, mag, ph);
  ASSERT_TRUE(pm.has_value());
  EXPECT_NEAR(*pm, 90.0, 3.0);
}

TEST(Measure, NoCrossingReturnsNullopt) {
  const std::vector<double> freqs = {1e6, 1e7, 1e8};
  const std::vector<double> mags = {0.5, 0.4, 0.3};
  EXPECT_FALSE(unity_gain_frequency(freqs, mags).has_value());
}

TEST(Measure, DifferentialMagnitude) {
  Circuit c;
  const NodeId p = c.node("p");
  const NodeId n = c.node("n");
  c.add_vsource("vp", p, kGround, Waveform::dc(0.0), 1.0, 0.0);
  c.add_vsource("vn", n, kGround, Waveform::dc(0.0), 1.0, M_PI);
  Simulator sim(c);
  const OpResult op = sim.op();
  AcOptions ac;
  ac.frequencies = {1e6};
  const AcResult r = sim.ac(op.x, ac);
  const std::vector<double> mag = ac_magnitude_diff(sim, r, p, n);
  EXPECT_NEAR(mag[0], 2.0, 1e-9);
}

// Property: the simulated -3 dB point matches the analytic pole across
// five decades of pole frequency.
class RcPoleAccuracy : public ::testing::TestWithParam<double> {};

TEST_P(RcPoleAccuracy, PoleWithinTwoPercent) {
  const double f_pole = GetParam();
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add_vsource("vin", in, kGround, Waveform::dc(0.0), 1.0);
  c.add_resistor("r", in, out, 1e3);
  c.add_capacitor("c", out, kGround, 1.0 / (kTwoPi * f_pole * 1e3));
  Simulator sim(c);
  const OpResult op = sim.op();
  AcOptions ac;
  ac.frequencies = log_frequencies(f_pole / 100, f_pole * 100, 40);
  const AcResult r = sim.ac(op.x, ac);
  const std::vector<double> mag = ac_magnitude(sim, r, out);
  const auto f3 = bandwidth_3db(ac.frequencies, mag);
  ASSERT_TRUE(f3.has_value());
  EXPECT_NEAR(*f3, f_pole, 0.02 * f_pole);
}

INSTANTIATE_TEST_SUITE_P(Decades, RcPoleAccuracy,
                         ::testing::Values(1e5, 1e6, 1e7, 1e8, 1e9, 1e10));

TEST(Ac, RejectsNonPositiveFrequency) {
  const Circuit c = rc_lowpass();
  Simulator sim(c);
  const OpResult op = sim.op();
  AcOptions ac;
  ac.frequencies = {0.0};
  EXPECT_THROW(sim.ac(op.x, ac), InvalidArgumentError);
}

}  // namespace
}  // namespace olp::spice
