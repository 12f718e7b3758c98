// Unit and property tests for the EKV-style FinFET compact model: continuity,
// derivative consistency, drain/source symmetry, and LDE parameter effects.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "spice/model.hpp"
#include "util/error.hpp"

namespace olp::spice {
namespace {

MosModel test_model() {
  MosModel m;
  m.vth0 = 0.30;
  m.nslope = 1.25;
  m.kp = 400e-6;
  m.lambda = 0.2;
  m.lref = 14e-9;
  return m;
}

constexpr double kW = 1e-6;
constexpr double kL = 14e-9;

TEST(EkvF, PositiveAndMonotone) {
  double prev = ekv_f(-20.0);
  for (double u = -19.0; u < 60.0; u += 0.5) {
    const double f = ekv_f(u);
    EXPECT_GE(f, 0.0);
    EXPECT_GT(f, prev);
    prev = f;
  }
}

TEST(EkvF, DerivativeMatchesFiniteDifference) {
  for (double u = -10.0; u < 40.0; u += 1.7) {
    const double h = 1e-6;
    const double fd = (ekv_f(u + h) - ekv_f(u - h)) / (2 * h);
    EXPECT_NEAR(ekv_df(u), fd, 1e-5 * std::max(1.0, std::fabs(fd)));
  }
}

TEST(EkvF, StrongInversionAsymptote) {
  // F(u) -> (u/2)^2 for large u.
  EXPECT_NEAR(ekv_f(80.0), 1600.0, 1.0);
}

TEST(MosEval, CutoffCurrentIsTiny) {
  const MosEval e = mos_eval(test_model(), 0.0, 0.4, kW, kL, 0.0, 1.0);
  EXPECT_GT(e.id, 0.0);  // subthreshold leakage exists
  EXPECT_LT(e.id, 1e-6);
}

TEST(MosEval, SaturationCurrentScalesWithWidth) {
  const MosEval e1 = mos_eval(test_model(), 0.6, 0.5, kW, kL, 0.0, 1.0);
  const MosEval e2 = mos_eval(test_model(), 0.6, 0.5, 2 * kW, kL, 0.0, 1.0);
  EXPECT_NEAR(e2.id / e1.id, 2.0, 1e-9);
}

TEST(MosEval, ZeroVdsGivesZeroCurrent) {
  const MosEval e = mos_eval(test_model(), 0.6, 0.0, kW, kL, 0.0, 1.0);
  EXPECT_NEAR(e.id, 0.0, 1e-15);
}

TEST(MosEval, ReverseVdsFlipsSign) {
  const MosEval fwd = mos_eval(test_model(), 0.6, 0.05, kW, kL, 0.0, 1.0);
  // With vds negated AND vgs referenced to the new source (old drain), the
  // device is exactly mirrored; at small vds the simple negation is nearly
  // symmetric already.
  const MosEval rev = mos_eval(test_model(), 0.6, -0.05, kW, kL, 0.0, 1.0);
  EXPECT_GT(fwd.id, 0.0);
  EXPECT_LT(rev.id, 0.0);
}

TEST(MosEval, PositiveVthShiftReducesCurrent) {
  const MosEval base = mos_eval(test_model(), 0.5, 0.4, kW, kL, 0.0, 1.0);
  const MosEval shifted =
      mos_eval(test_model(), 0.5, 0.4, kW, kL, 20e-3, 1.0);
  EXPECT_LT(shifted.id, base.id);
  // ~ gm * dVth to first order.
  EXPECT_NEAR(base.id - shifted.id, base.gm * 20e-3,
              0.1 * base.gm * 20e-3);
}

TEST(MosEval, MobilityMultiplierScalesCurrent) {
  const MosEval base = mos_eval(test_model(), 0.5, 0.4, kW, kL, 0.0, 1.0);
  const MosEval deg = mos_eval(test_model(), 0.5, 0.4, kW, kL, 0.0, 0.9);
  EXPECT_NEAR(deg.id / base.id, 0.9, 1e-9);
}

TEST(MosEval, ChannelLengthModulationRaisesCurrentWithVds) {
  const MosEval a = mos_eval(test_model(), 0.6, 0.4, kW, kL, 0.0, 1.0);
  const MosEval b = mos_eval(test_model(), 0.6, 0.6, kW, kL, 0.0, 1.0);
  EXPECT_GT(b.id, a.id);
  EXPECT_GT(a.gds, 0.0);
}

TEST(MosEval, LongerChannelReducesLambdaEffect) {
  const MosEval short_l = mos_eval(test_model(), 0.6, 0.5, kW, kL, 0.0, 1.0);
  const MosEval long_l =
      mos_eval(test_model(), 0.6, 0.5, kW, 4 * kL, 0.0, 1.0);
  // Normalized output conductance gds/id falls with length.
  EXPECT_LT(long_l.gds / long_l.id, short_l.gds / short_l.id);
}

TEST(MosEval, InvalidGeometryThrows) {
  EXPECT_THROW(mos_eval(test_model(), 0.5, 0.5, 0.0, kL, 0, 1),
               InvalidArgumentError);
  EXPECT_THROW(mos_eval(test_model(), 0.5, 0.5, kW, -1e-9, 0, 1),
               InvalidArgumentError);
}

// --- the fast device path against the reference formulas --------------------

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// The device equations evaluated as one expression per quantity with the
/// reference ekv_f/ekv_df, in the order the model header states them.
MosEval reference_eval(const MosModel& model, double vgs, double vds,
                       double w, double l, double delta_vth,
                       double mobility_mult) {
  const double vt = model.vt_thermal;
  const double n = model.nslope;
  const double vth = model.vth0 + delta_vth;
  const double ispec = 2.0 * n * model.kp * mobility_mult * vt * vt * (w / l);
  const double uf = (vgs - vth) / (n * vt);
  const double ur = (vgs - vth - n * vds) / (n * vt);
  const double ff = ekv_f(uf);
  const double fr = ekv_f(ur);
  const double dff = ekv_df(uf);
  const double dfr = ekv_df(ur);
  constexpr double kEps = 1e-3;  // the model's |vds| smoothing
  const double lam = model.lambda * (model.lref / l);
  const double clm = 1.0 + lam * (std::sqrt(vds * vds + kEps * kEps) - kEps);
  const double dclm = lam * (vds / std::sqrt(vds * vds + kEps * kEps));
  MosEval e;
  e.id = ispec * (ff - fr) * clm;
  e.gm = ispec * (dff - dfr) / (n * vt) * clm;
  e.gds = ispec * (dfr / vt * clm + (ff - fr) * dclm);
  return e;
}

TEST(FastPath, EkvFDfHasTheReferenceBits) {
  // Both branches of the overflow guard (u/2 > 30 takes the asymptote) and
  // its edge, plus seeded random inputs far into both tails.
  std::vector<double> us = {0.0, -0.0, 60.0, std::nextafter(60.0, 0.0),
                            std::nextafter(60.0, 100.0), -1500.0, 1500.0};
  std::mt19937_64 rng(14);
  std::uniform_real_distribution<double> dist(-200.0, 200.0);
  for (int k = 0; k < 200000; ++k) us.push_back(dist(rng));
  int mismatches = 0;
  for (const double u : us) {
    const EkvFdF fd = ekv_f_df(u);
    if (!same_bits(fd.f, ekv_f(u)) || !same_bits(fd.df, ekv_df(u))) {
      if (mismatches++ == 0) ADD_FAILURE() << "first mismatch at u=" << u;
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(FastPath, TwoStepMosEvalHasTheReferenceBits) {
  MosModel nmos = test_model();
  MosModel pmos = test_model();
  pmos.type = MosType::kPmos;
  pmos.vth0 = 0.32;
  pmos.nslope = 1.3;
  pmos.kp = 180e-6;
  std::mt19937_64 rng(14);
  // vgs up to 3 V drives u/2 past the asymptote switch at 30.
  std::uniform_real_distribution<double> vgs_dist(-1.0, 3.0);
  std::uniform_real_distribution<double> vds_dist(-1.0, 1.0);
  std::uniform_real_distribution<double> log_w(std::log(20e-9),
                                               std::log(50e-6));
  std::uniform_real_distribution<double> log_l(std::log(10e-9), std::log(1e-6));
  std::uniform_real_distribution<double> dvth_dist(-0.05, 0.05);
  std::uniform_real_distribution<double> mob_dist(0.7, 1.3);
  int mismatches = 0, asymptotic = 0;
  for (int k = 0; k < 100000; ++k) {
    const MosModel& model = k % 2 == 0 ? nmos : pmos;
    const double vgs = vgs_dist(rng);
    const double vds = k % 7 == 0 ? 0.0 : vds_dist(rng);
    const double w = std::exp(log_w(rng));
    const double l = std::exp(log_l(rng));
    const double dvth = dvth_dist(rng);
    const double mob = mob_dist(rng);
    const MosEval fast =
        mos_eval(mos_device(model, w, l, dvth, mob), vgs, vds);
    const MosEval ref = reference_eval(model, vgs, vds, w, l, dvth, mob);
    if (!same_bits(fast.id, ref.id) || !same_bits(fast.gm, ref.gm) ||
        !same_bits(fast.gds, ref.gds)) {
      if (mismatches++ == 0) {
        ADD_FAILURE() << "first mismatch at vgs=" << vgs << " vds=" << vds
                      << " w=" << w << " l=" << l;
      }
    }
    if (0.5 * (vgs - model.vth0 - dvth) /
            (model.nslope * model.vt_thermal) > 30.0) {
      ++asymptotic;
    }
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_GT(asymptotic, 1000);  // the u/2 > 30 branch is exercised
}

// Property sweep: analytic gm/gds match finite differences over a bias grid.
struct BiasPoint {
  double vgs;
  double vds;
};

// Names each test by its bias, vgs0p45_vds0p7 or vgs0p5_vdsm0p2, and prints
// the bias as (0.45, 0.7) where gtest would dump its bytes.
void PrintTo(const BiasPoint& p, std::ostream* os) {
  *os << "(" << p.vgs << ", " << p.vds << ")";
}

std::string bias_name(const ::testing::TestParamInfo<BiasPoint>& info) {
  std::ostringstream os;
  os << "vgs" << info.param.vgs << "_vds" << info.param.vds;
  std::string name = os.str();
  std::replace(name.begin(), name.end(), '.', 'p');
  std::replace(name.begin(), name.end(), '-', 'm');
  return name;
}

class MosDerivatives : public ::testing::TestWithParam<BiasPoint> {};

TEST_P(MosDerivatives, GmMatchesFiniteDifference) {
  const auto [vgs, vds] = GetParam();
  const MosModel m = test_model();
  const double h = 1e-7;
  const MosEval e = mos_eval(m, vgs, vds, kW, kL, 0.0, 1.0);
  const double fd_gm = (mos_eval(m, vgs + h, vds, kW, kL, 0, 1).id -
                        mos_eval(m, vgs - h, vds, kW, kL, 0, 1).id) /
                       (2 * h);
  EXPECT_NEAR(e.gm, fd_gm, 1e-5 * std::max(std::fabs(fd_gm), 1e-9))
      << "vgs=" << vgs << " vds=" << vds;
}

TEST_P(MosDerivatives, GdsMatchesFiniteDifference) {
  const auto [vgs, vds] = GetParam();
  const MosModel m = test_model();
  const double h = 1e-7;
  const MosEval e = mos_eval(m, vgs, vds, kW, kL, 0.0, 1.0);
  const double fd_gds = (mos_eval(m, vgs, vds + h, kW, kL, 0, 1).id -
                         mos_eval(m, vgs, vds - h, kW, kL, 0, 1).id) /
                        (2 * h);
  EXPECT_NEAR(e.gds, fd_gds, 2e-4 * std::max(std::fabs(fd_gds), 1e-9))
      << "vgs=" << vgs << " vds=" << vds;
}

INSTANTIATE_TEST_SUITE_P(
    BiasGrid, MosDerivatives,
    ::testing::Values(BiasPoint{0.1, 0.05}, BiasPoint{0.1, 0.5},
                      BiasPoint{0.3, 0.02}, BiasPoint{0.3, 0.3},
                      BiasPoint{0.45, 0.1}, BiasPoint{0.45, 0.7},
                      BiasPoint{0.6, 0.05}, BiasPoint{0.6, 0.4},
                      BiasPoint{0.8, 0.8}, BiasPoint{0.5, -0.2},
                      BiasPoint{0.7, -0.05}),
    bias_name);

// Property: Id is continuous and increasing in vgs at fixed vds.
class MosMonotone : public ::testing::TestWithParam<double> {};

TEST_P(MosMonotone, CurrentIncreasesWithVgs) {
  const double vds = GetParam();
  const MosModel m = test_model();
  double prev = mos_eval(m, -0.2, vds, kW, kL, 0, 1).id;
  for (double vgs = -0.18; vgs <= 0.9; vgs += 0.02) {
    const double id = mos_eval(m, vgs, vds, kW, kL, 0, 1).id;
    EXPECT_GE(id, prev) << "vgs=" << vgs << " vds=" << vds;
    prev = id;
  }
}

INSTANTIATE_TEST_SUITE_P(VdsGrid, MosMonotone,
                         ::testing::Values(0.05, 0.1, 0.2, 0.4, 0.8));

}  // namespace
}  // namespace olp::spice
