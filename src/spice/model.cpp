#include "spice/model.hpp"

#include "util/error.hpp"

namespace olp::spice {

namespace {
// Smooth |x| used for channel-length modulation so the model stays C^1 at
// vds = 0 (important for Newton convergence on pass devices that cross zero).
constexpr double kAbsEps = 1e-3;
}  // namespace

MosDevice mos_device(const MosModel& model, double w, double l,
                     double delta_vth, double mobility_mult) {
  OLP_CHECK(w > 0 && l > 0, "MOS device needs positive W and L");
  MosDevice dev;
  dev.sigma = model.type == MosType::kNmos ? 1.0 : -1.0;
  dev.vt = model.vt_thermal;
  dev.n = model.nslope;
  dev.vth = model.vth0 + delta_vth;
  dev.nvt = dev.n * dev.vt;
  dev.ispec =
      2.0 * dev.n * model.kp * mobility_mult * dev.vt * dev.vt * (w / l);
  dev.lam = model.lambda * (model.lref / l);
  return dev;
}

MosEval mos_eval(const MosDevice& dev, double vgs, double vds) {
  // The EKV forward/reverse decomposition is inherently drain/source
  // symmetric: for vds < 0 the reverse term dominates and Id flips sign with
  // no special-casing. Only channel-length modulation needs |vds|, smoothed
  // so the characteristic stays differentiable at vds = 0.
  const double uf = (vgs - dev.vth) / dev.nvt;
  const double ur = (vgs - dev.vth - dev.n * vds) / dev.nvt;
  const EkvFdF f = ekv_f_df(uf);
  const EkvFdF r = ekv_f_df(ur);

  // sqrt(vds^2 + eps^2) - eps and its derivative share the root.
  const double root = std::sqrt(vds * vds + kAbsEps * kAbsEps);
  const double clm = 1.0 + dev.lam * (root - kAbsEps);
  const double dclm = dev.lam * (vds / root);

  MosEval e;
  e.id = dev.ispec * (f.f - r.f) * clm;
  e.gm = dev.ispec * (f.df - r.df) / dev.nvt * clm;
  e.gds = dev.ispec * (r.df / dev.vt * clm + (f.f - r.f) * dclm);
  return e;
}

MosEval mos_eval(const MosModel& model, double vgs, double vds, double w,
                 double l, double delta_vth, double mobility_mult) {
  return mos_eval(mos_device(model, w, l, delta_vth, mobility_mult), vgs, vds);
}

}  // namespace olp::spice
