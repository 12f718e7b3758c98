#pragma once
// Compact transistor model: a smooth source-referenced EKV-style FinFET model.
//
// The paper's methodology explicitly does not depend on any particular
// compact model ("the equations are never directly used in our methodology:
// we analyze performance through cheap SPICE simulations"). What it does
// require of the simulator is that primitive metrics respond continuously and
// realistically to bias, parasitic RC, and LDE-induced Vth/mobility shifts.
// This model provides exactly that:
//
//   u_f  = (Vgs - Vth) / (n Vt)
//   u_r  = (Vgs - Vth - n Vds) / (n Vt)
//   F(u) = ln^2(1 + exp(u / 2))              (smooth weak->strong inversion)
//   Id   = Ispec (F(u_f) - F(u_r)) (1 + lambda_eff Vds)
//   Ispec = 2 n kp Vt^2 (W / L)
//
// It is smooth across cutoff/triode/saturation, symmetric under source/drain
// swap, and exposes gm / gds analytically for the Newton and AC stamps.
// LDE effects enter as per-instance delta_vth and mobility_mult (Sec. III-A
// of the paper: LOD and WPE shift threshold voltage and mobility).

#include <cmath>
#include <string>

namespace olp::spice {

enum class MosType { kNmos, kPmos };

/// Technology-level model card shared by all devices of one flavor.
struct MosModel {
  std::string name = "nfet";
  MosType type = MosType::kNmos;

  double vth0 = 0.30;    ///< zero-LDE threshold voltage [V]
  double nslope = 1.25;  ///< subthreshold slope factor
  double kp = 400e-6;    ///< mobility * Cox [A/V^2]
  double lambda = 0.08;  ///< channel-length modulation [1/V] at l = lref
  double lref = 14e-9;   ///< reference channel length for lambda scaling [m]
  double vt_thermal = 0.02585;  ///< kT/q at 300 K [V]

  // Linearized capacitance parameters (per total gate area / width).
  double cox = 0.030;   ///< gate oxide capacitance [F/m^2]
  double cov = 0.25e-9; ///< gate-S/D overlap capacitance [F/m]
  double cj = 0.9e-3;   ///< junction area capacitance [F/m^2]
  double cjsw = 0.08e-9; ///< junction sidewall capacitance [F/m]

  /// Pelgrom threshold-mismatch coefficient [V*m]; sigma(dVth) = avt/sqrt(WL).
  double avt = 1.2e-9;
};

/// Evaluated large-signal state of one MOSFET at a bias point.
struct MosEval {
  double id = 0.0;   ///< drain current, D -> S for NMOS convention [A]
  double gm = 0.0;   ///< d Id / d Vgs [S]
  double gds = 0.0;  ///< d Id / d Vds [S]
};

/// Smooth EKV interpolation function F(u) = ln^2(1 + exp(u/2)).
inline double ekv_f(double u) {
  // Guard against overflow for strongly forward-biased inputs.
  const double half = 0.5 * u;
  const double l = half > 30.0 ? half : std::log1p(std::exp(half));
  return l * l;
}

/// dF/du = ln(1 + exp(u/2)) * sigmoid(u/2).
inline double ekv_df(double u) {
  const double half = 0.5 * u;
  const double l = half > 30.0 ? half : std::log1p(std::exp(half));
  const double sig = half > 30.0 ? 1.0 : std::exp(half) / (1.0 + std::exp(half));
  return l * sig;
}

/// F(u) and dF/du at one u.
struct EkvFdF {
  double f = 0.0;
  double df = 0.0;
};

/// F and dF/du from one exp and one log1p; bit-identical to ekv_f(u) and
/// ekv_df(u), which stay as the reference.
inline EkvFdF ekv_f_df(double u) {
  const double half = 0.5 * u;
  if (half > 30.0) return {half * half, half};
  const double e = std::exp(half);
  const double l = std::log1p(e);
  return {l * l, l * (e / (1.0 + e))};
}

/// The bias-independent part of one device's evaluation: its model card,
/// geometry and LDE annotations folded into the constants the per-bias
/// mos_eval reads.
struct MosDevice {
  double sigma = 1.0;  ///< +1 NMOS, -1 PMOS: terminal to NMOS-convention sign
  double vth = 0.0;    ///< vth0 + delta_vth [V]
  double n = 1.0;      ///< subthreshold slope factor
  double vt = 0.0;     ///< thermal voltage [V]
  double nvt = 0.0;    ///< n * vt [V]
  double ispec = 0.0;  ///< specific current 2 n kp mobility vt^2 (W / L) [A]
  double lam = 0.0;    ///< channel-length modulation at this L [1/V]
};

/// Folds one device's constants. `w`/`l` are effective channel dimensions
/// [m] and must be positive; `delta_vth` (additive, NMOS convention) and
/// `mobility_mult` carry the layout-dependent effects.
MosDevice mos_device(const MosModel& model, double w, double l,
                     double delta_vth, double mobility_mult);

/// Evaluates the drain current and small-signal parameters of a device at
/// NMOS-convention `vgs`/`vds` (for PMOS the caller passes the negated values
/// and negates `id` back).
MosEval mos_eval(const MosDevice& dev, double vgs, double vds);

/// One-shot form: mos_eval(mos_device(model, w, l, ...), vgs, vds).
MosEval mos_eval(const MosModel& model, double vgs, double vds, double w,
                 double l, double delta_vth, double mobility_mult);

}  // namespace olp::spice
