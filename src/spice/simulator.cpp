#include "spice/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <type_traits>

#include "util/budget.hpp"
#include "util/diag.hpp"
#include "util/faults.hpp"
#include "util/logging.hpp"
#include "util/obs.hpp"

namespace olp::spice {

Simulator::Simulator(const Circuit& circuit, DiagnosticsSink* diagnostics,
                     Budget* budget)
    : circuit_(circuit), diag_(diagnostics), budget_(budget) {
  caps_ = gather_caps();

  // One walk over the devices records every (row, col) each stamp touches;
  // the pattern is built from them and each recorded entry then resolves to
  // its slot.
  const int nn = circuit_.node_count() - 1;
  const int nvs = static_cast<int>(circuit_.vsources().size());
  std::vector<std::pair<int, int>> entries;
  entries.reserve(4 * (circuit_.resistors().size() + caps_.size() +
                       circuit_.vccs().size() + circuit_.vsources().size()) +
                  6 * (circuit_.vcvs().size() + circuit_.mosfets().size()) +
                  static_cast<std::size_t>(nn));
  auto at = [&](int row, int col) {
    if (row < 0 || col < 0) return -1;
    entries.emplace_back(row, col);
    return static_cast<int>(entries.size()) - 1;
  };
  auto quad = [&](int p, int n, int cp, int cn) {
    return Quad{at(p, cp), at(n, cn), at(p, cn), at(n, cp)};
  };
  auto incidence = [&](int p, int n, int br) {
    return Quad{at(p, br), at(br, p), at(n, br), at(br, n)};
  };
  slots_.resistors.reserve(circuit_.resistors().size());
  for (const Resistor& r : circuit_.resistors()) {
    slots_.resistors.push_back(quad(r.a - 1, r.b - 1, r.a - 1, r.b - 1));
  }
  slots_.caps.reserve(caps_.size());
  for (const LinearCap& c : caps_) {
    slots_.caps.push_back(quad(c.a - 1, c.b - 1, c.a - 1, c.b - 1));
  }
  for (const Vccs& g : circuit_.vccs()) {
    slots_.vccs.push_back(quad(g.p - 1, g.n - 1, g.cp - 1, g.cn - 1));
  }
  for (int k = 0; k < nvs; ++k) {
    const VSource& v = circuit_.vsources()[static_cast<std::size_t>(k)];
    slots_.vsources.push_back(incidence(v.p - 1, v.n - 1, nn + k));
  }
  for (std::size_t k = 0; k < circuit_.vcvs().size(); ++k) {
    const Vcvs& e = circuit_.vcvs()[k];
    const int br = nn + nvs + static_cast<int>(k);
    slots_.vcvs.push_back(incidence(e.p - 1, e.n - 1, br));
    slots_.vcvs_control.push_back({at(br, e.cp - 1), at(br, e.cn - 1)});
  }
  // The MOSFET table: what a Newton iteration needs of each device, checked
  // and folded once here instead of per evaluation.
  mos_.reserve(circuit_.mosfets().size());
  for (const Mosfet& m : circuit_.mosfets()) {
    for (const NodeId node : {m.d, m.g, m.s}) {
      OLP_CHECK(node >= 0 && node < circuit_.node_count(),
                "mosfet " + m.name + " node out of range");
    }
    MosEntry& e = mos_.emplace_back();
    e.d = m.d - 1;
    e.g = m.g - 1;
    e.s = m.s - 1;
    e.slots = {at(e.d, e.g), at(e.d, e.d), at(e.d, e.s),
               at(e.s, e.g), at(e.s, e.d), at(e.s, e.s)};
    e.dev = mos_device(circuit_.model(m.model), m.w, m.l, m.delta_vth,
                       m.mobility_mult);
  }
  slots_.node_diag.reserve(static_cast<std::size_t>(nn));
  for (int k = 0; k < nn; ++k) slots_.node_diag.push_back(at(k, k));

  pattern_ = linalg::SparsePattern(n_unknowns(), entries);
  auto resolve = [&](int& slot) {
    if (slot >= 0) {
      const auto& [row, col] = entries[static_cast<std::size_t>(slot)];
      slot = pattern_.slot(row, col);
    }
  };
  auto resolve_all = [&](auto& groups) {
    for (auto& group : groups) {
      for (int& slot : group) resolve(slot);
    }
  };
  resolve_all(slots_.resistors);
  resolve_all(slots_.caps);
  resolve_all(slots_.vccs);
  resolve_all(slots_.vsources);
  resolve_all(slots_.vcvs);
  resolve_all(slots_.vcvs_control);
  for (MosEntry& e : mos_) {
    for (int& slot : e.slots) resolve(slot);
  }
  for (int& slot : slots_.node_diag) resolve(slot);
}

double Simulator::voltage(const std::vector<double>& x, NodeId node) const {
  if (node == kGround) return 0.0;
  OLP_CHECK(node > 0 && node < circuit_.node_count(), "node out of range");
  OLP_CHECK(static_cast<int>(x.size()) == circuit_.unknown_count(),
            "solution vector size mismatch (non-converged sweep point?)");
  return x[static_cast<std::size_t>(node - 1)];
}

double Simulator::vsource_current(const std::vector<double>& x,
                                  const std::string& name) const {
  const int idx = circuit_.vsource_branch_index(circuit_.find_vsource(name));
  OLP_CHECK(static_cast<int>(x.size()) == circuit_.unknown_count(),
            "solution vector size mismatch (non-converged sweep point?)");
  return x[static_cast<std::size_t>(idx)];
}

std::complex<double> Simulator::ac_voltage(
    const std::vector<std::complex<double>>& x, NodeId node) const {
  if (node == kGround) return {0.0, 0.0};
  OLP_CHECK(node > 0 && node < circuit_.node_count(), "node out of range");
  OLP_CHECK(static_cast<int>(x.size()) == circuit_.unknown_count(),
            "solution vector size mismatch (non-converged sweep point?)");
  return x[static_cast<std::size_t>(node - 1)];
}

std::complex<double> Simulator::ac_vsource_current(
    const std::vector<std::complex<double>>& x, const std::string& name) const {
  const int idx = circuit_.vsource_branch_index(circuit_.find_vsource(name));
  OLP_CHECK(static_cast<int>(x.size()) == circuit_.unknown_count(),
            "solution vector size mismatch (non-converged sweep point?)");
  return x[static_cast<std::size_t>(idx)];
}

std::vector<Simulator::LinearCap> Simulator::gather_caps() const {
  std::vector<LinearCap> caps;
  for (const Capacitor& c : circuit_.capacitors()) {
    caps.push_back(LinearCap{c.a, c.b, c.c, c.ic, c.use_ic});
  }
  for (const Mosfet& m : circuit_.mosfets()) {
    const MosModel& model = circuit_.model(m.model);
    const double cgg = model.cox * m.w * m.l;
    const double cov = model.cov * m.w;
    // Saturation-flavored Meyer partition with constant (linear) caps: the
    // flow only needs capacitances that scale correctly with geometry and
    // diffusion sharing, not bias-dependent charge conservation.
    const double cgs = (2.0 / 3.0) * cgg + cov;
    const double cgd = cov;
    const double cdb = model.cj * m.ad + model.cjsw * m.pd;
    const double csb = model.cj * m.as + model.cjsw * m.ps;
    if (cgs > 0) caps.push_back(LinearCap{m.g, m.s, cgs, 0.0, false});
    if (cgd > 0) caps.push_back(LinearCap{m.g, m.d, cgd, 0.0, false});
    if (cdb > 0) caps.push_back(LinearCap{m.d, m.b, cdb, 0.0, false});
    if (csb > 0) caps.push_back(LinearCap{m.s, m.b, csb, 0.0, false});
  }
  return caps;
}

/// One analysis call's solver state on the simulator's pattern: matrix
/// values, rhs, solution and the sparse LU, plus the largest linearized KCL
/// residual of its converged Newton solves. Local to the call; the one thing
/// an op() call's state shares is `first`, the simulator's remembered first
/// factorization (null for ac() and tran), read and written under its mutex.
/// The destructor adds the call's totals to the obs registry, once per call
/// on every exit path.
template <typename T>
struct Simulator::System {
  explicit System(const linalg::SparsePattern& p,
                  FirstFactorization* first_ = nullptr)
      : pattern(p),
        a(static_cast<std::size_t>(p.nnz())),
        b(static_cast<std::size_t>(p.size())),
        x(static_cast<std::size_t>(p.size())),
        lu(p),
        first(first_) {}

  /// Factors `a` and solves into `x`; false when singular.
  bool solve() {
    if (!factor()) return false;
    lu.solve(b, x);
    return true;
  }

  /// An op() call's first factor() goes through the remembered one.
  bool factor() {
    if constexpr (std::is_same_v<T, double>) {
      if (first != nullptr && lu.factorizations() == 0) {
        return first->factor(a, lu);
      }
    }
    return lu.factor(a);
  }

  /// Linearized KCL residual of a converged Newton solve: A and b are the
  /// final Jacobian and rhs the LU just solved, so this is the solver's
  /// backward error. It catches a bad factorization (stale order, missing
  /// fill, weak pivot), not a wrong stamp, which A and b share with the solve.
  void check_kcl(const std::vector<T>& x_converged) {
    kcl_max = std::max(kcl_max,
                       linalg::relative_residual(pattern, a, x_converged, b));
    ++kcl_checks;
  }

  System(const System&) = delete;
  System& operator=(const System&) = delete;
  ~System() {
    obs::counter_add("sim.lu.factorizations", lu.factorizations());
    obs::counter_add("sim.lu.orderings", lu.orderings());
    obs::counter_add("sim.lu.reorders", lu.reorders());
    if (kcl_checks > 0) obs::record("sim.kcl_residual_max", kcl_max);
  }

  const linalg::SparsePattern& pattern;
  std::vector<T> a, b, x;
  linalg::SparseLu<T> lu;
  FirstFactorization* first;
  double kcl_max = 0.0;
  long kcl_checks = 0;
};

bool Simulator::FirstFactorization::factor(const std::vector<double>& a_new,
                                           linalg::SparseLu<double>& lu_new) {
  {
    // memcmp, so -0.0 and +0.0 differ: adopting is exact only on equal bits.
    const std::lock_guard<std::mutex> lock(mu);
    if (lu && std::memcmp(a.data(), a_new.data(),
                          a_new.size() * sizeof(double)) == 0) {
      lu_new.adopt(*lu);
      return true;
    }
  }
  if (!lu_new.factor(a_new)) return false;
  const std::lock_guard<std::mutex> lock(mu);
  a = a_new;
  lu = lu_new;
  return true;
}

namespace {

/// DC Newton's iteration cap, node-voltage tolerances (absolute [V] plus
/// relative) and largest node-voltage step [V]; the transient retry ladder's
/// length.
constexpr int kMaxNewtonIterations = 200;
constexpr double kVtolAbs = 1e-9;
constexpr double kVtolRel = 1e-6;
constexpr double kDamping = 0.3;
constexpr int kMaxTranRetries = 2;

template <typename T>
void add(std::vector<T>& a, int slot, T v) {
  if (slot >= 0) a[static_cast<std::size_t>(slot)] += v;
}

/// Stamps v, v, -v, -v into a four-entry stamp's slots.
template <typename T>
void add_quad(std::vector<T>& a, const std::array<int, 4>& q, T v) {
  add(a, q[0], v);
  add(a, q[1], v);
  add(a, q[2], -v);
  add(a, q[3], -v);
}

void add_rhs(std::vector<double>& b, int row, double v) {
  if (row >= 0) b[static_cast<std::size_t>(row)] += v;
}

}  // namespace

template <typename T>
void Simulator::stamp_linear(std::vector<T>& a) const {
  for (std::size_t k = 0; k < slots_.resistors.size(); ++k) {
    add_quad(a, slots_.resistors[k], T{1.0 / circuit_.resistors()[k].r});
  }
  // Current gm * v(cp,cn) flows p -> n through a VCCS.
  for (std::size_t k = 0; k < slots_.vccs.size(); ++k) {
    add_quad(a, slots_.vccs[k], T{circuit_.vccs()[k].gm});
  }
  // Branch current unknowns flow p -> n; the branch rows read
  // v(p) - v(n) (- gain * (v(cp) - v(cn)) for a VCVS).
  for (const Quad& q : slots_.vsources) add_quad(a, q, T{1.0});
  for (std::size_t k = 0; k < slots_.vcvs.size(); ++k) {
    const double gain = circuit_.vcvs()[k].gain;
    add_quad(a, slots_.vcvs[k], T{1.0});
    add(a, slots_.vcvs_control[k][0], T{-gain});
    add(a, slots_.vcvs_control[k][1], T{gain});
  }
}

void Simulator::stamp_sources(std::vector<double>& b, double t,
                              double scale) const {
  const int nn = circuit_.node_count() - 1;
  for (std::size_t k = 0; k < circuit_.vsources().size(); ++k) {
    add_rhs(b, nn + static_cast<int>(k),
            scale * circuit_.vsources()[k].wave.value(t));
  }
  for (const ISource& i : circuit_.isources()) {
    const double val = scale * i.wave.value(t);
    // Positive current flows p -> n through the source: out of p, into n.
    add_rhs(b, i.p - 1, -val);
    add_rhs(b, i.n - 1, val);
  }
}

MosOperatingPoint Simulator::eval_mosfet(const MosEntry& m,
                                         const std::vector<double>& x) {
  auto v = [&](int k) { return k >= 0 ? x[static_cast<std::size_t>(k)] : 0.0; };
  const double vgs = v(m.g) - v(m.s);
  const double vds = v(m.d) - v(m.s);
  const double sigma = m.dev.sigma;
  const MosEval e = mos_eval(m.dev, sigma * vgs, sigma * vds);
  MosOperatingPoint op;
  // Under the sign mapping the small-signal conductances are unchanged while
  // the physical current into the drain picks up the sign.
  op.id = sigma * e.id;
  op.gm = e.gm;
  op.gds = e.gds;
  op.vgs = vgs;
  op.vds = vds;
  return op;
}

namespace {

/// The small-signal MOS conductances gm (g -> d/s) and gds (d -> s).
template <typename T>
void add_mos(std::vector<T>& a, const std::array<int, 6>& slot, double gm,
             double gds) {
  add(a, slot[0], T{gm});
  add(a, slot[1], T{gds});
  add(a, slot[2], T{-(gm + gds)});
  add(a, slot[3], T{-gm});
  add(a, slot[4], T{-gds});
  add(a, slot[5], T{gm + gds});
}

}  // namespace

void Simulator::stamp_mosfets(std::vector<double>& a, std::vector<double>& b,
                              const std::vector<double>& x) const {
  for (const MosEntry& m : mos_) {
    const MosOperatingPoint op = eval_mosfet(m, x);
    // Linearized drain current into the drain node:
    //   Id(v) = Id0 + gm (vgs - vgs0) + gds (vds - vds0)
    add_mos(a, m.slots, op.gm, op.gds);
    const double ieq = op.id - op.gm * op.vgs - op.gds * op.vds;
    add_rhs(b, m.d, -ieq);
    add_rhs(b, m.s, ieq);
  }
}

OpResult Simulator::newton_dc(const OpOptions& options, double gmin,
                              double source_scale,
                              const std::vector<double>& guess,
                              System<double>& sys) const {
  const int n = n_unknowns();
  const int nn = circuit_.node_count() - 1;
  std::vector<double> x = guess;
  if (x.empty()) x.assign(static_cast<std::size_t>(n), 0.0);
  OLP_CHECK(static_cast<int>(x.size()) == n, "bad initial guess size");

  // The iterate-independent part, once per call: linear devices with gmin to
  // ground on every node, and the scaled sources.
  std::vector<double> a0(sys.a.size()), b0(sys.b.size());
  stamp_linear(a0);
  for (const int slot : slots_.node_diag) {
    add(a0, slot, gmin + options.gmin_floor);
  }
  stamp_sources(b0, 0.0, source_scale);

  OpResult result;
  for (int iter = 0; iter < kMaxNewtonIterations; ++iter) {
    // Budget-bounded Newton: unwind with the current (non-converged) state.
    if (budget_ != nullptr && budget_->check()) break;
    sys.a = a0;
    sys.b = b0;
    stamp_mosfets(sys.a, sys.b, x);

    if (!sys.solve()) {
      result.converged = false;
      result.iterations = iter + 1;
      result.x = std::move(x);
      return result;
    }

    // Damped update on node voltages; branch currents move freely.
    bool within_tol = true;
    for (int k = 0; k < n; ++k) {
      const std::size_t ks = static_cast<std::size_t>(k);
      double delta = sys.x[ks] - x[ks];
      if (k < nn) {
        delta = std::clamp(delta, -kDamping, kDamping);
        if (std::fabs(delta) > kVtolAbs + kVtolRel * std::fabs(x[ks])) {
          within_tol = false;
        }
      }
      x[ks] += delta;
    }
    if (within_tol && iter > 0) {
      sys.check_kcl(x);
      result.converged = true;
      result.iterations = iter + 1;
      result.x = std::move(x);
      return result;
    }
  }
  result.converged = false;
  result.iterations = kMaxNewtonIterations;
  result.x = std::move(x);
  return result;
}

OpResult Simulator::op(const OpOptions& options) const {
  obs::Span span("sim.op");
  obs::counter_add("sim.op");
  System<double> sys(pattern_, &first_);
  OpResult result = op_impl(options, sys);
  obs::record("sim.op.newton_iterations", result.iterations);
  if (!result.converged) obs::counter_add("sim.op.nonconverged");
  return result;
}

OpResult Simulator::op_impl(const OpOptions& options,
                            System<double>& sys) const {
  if (FaultInjector::global().should_fail(FaultSite::kOpNonConvergence)) {
    if (diag_) {
      diag_->report(DiagSeverity::kWarning, "chaos",
                    fault_site_name(FaultSite::kOpNonConvergence),
                    "injected operating-point non-convergence");
    }
    OpResult injected;
    injected.converged = false;
    injected.x.assign(static_cast<std::size_t>(n_unknowns()), 0.0);
    return injected;
  }

  // Stage 1: plain Newton from the provided guess.
  OpResult r = newton_dc(options, 0.0, 1.0, options.initial_guess, sys);
  if (r.converged) return r;
  // Budget exhausted: skip the continuation ladder, return what we have.
  if (budget_ != nullptr && budget_->check()) return r;

  // Stage 2: gmin stepping — solve with a large conductance to ground, then
  // relax it while warm-starting each solve from the previous one.
  std::vector<double> warm = options.initial_guess;
  bool chain_ok = true;
  for (double gmin = 1e-3; gmin >= 1e-12; gmin *= 1e-2) {
    OpResult stage = newton_dc(options, gmin, 1.0, warm, sys);
    if (!stage.converged) {
      chain_ok = false;
      break;
    }
    warm = stage.x;
  }
  if (chain_ok) {
    OpResult final_stage = newton_dc(options, 0.0, 1.0, warm, sys);
    if (final_stage.converged) return final_stage;
    r = final_stage;
  }
  if (budget_ != nullptr && budget_->check()) return r;

  // Stage 3: source stepping — ramp all independent sources from zero.
  warm.assign(static_cast<std::size_t>(n_unknowns()), 0.0);
  for (double scale = 0.1; scale <= 1.0 + 1e-12; scale += 0.1) {
    OpResult stage = newton_dc(options, 1e-9, scale, warm, sys);
    if (!stage.converged) {
      OLP_WARN << "source stepping failed at scale " << scale;
      return stage;
    }
    warm = stage.x;
  }
  OpResult final_stage = newton_dc(options, 0.0, 1.0, warm, sys);
  return final_stage;
}

std::vector<std::vector<double>> Simulator::dc_sweep(
    const std::string& vsource, const std::vector<double>& values,
    const OpOptions& options) const {
  const int vs_index = circuit_.find_vsource(vsource);
  // The sweep mutates the source value; restore it on every exit, op()
  // throwing included, so the circuit's owner sees no change.
  VSource& src = const_cast<Circuit&>(circuit_)
                     .vsources()[static_cast<std::size_t>(vs_index)];
  struct Restore {
    VSource& src;
    Waveform saved;
    ~Restore() { src.wave = std::move(saved); }
  } restore{src, src.wave};

  std::vector<std::vector<double>> solutions;
  solutions.reserve(values.size());
  OpOptions opts = options;
  for (double v : values) {
    // Budget-bounded sweep: remaining points degrade to "non-converged"
    // (empty) so the result keeps its one-entry-per-value contract.
    if (budget_ != nullptr && budget_->check()) {
      solutions.emplace_back();
      continue;
    }
    src.wave = Waveform::dc(v);
    const OpResult op = this->op(opts);
    if (op.converged) {
      solutions.push_back(op.x);
      opts.initial_guess = op.x;  // continuation
    } else {
      solutions.emplace_back();
      opts.initial_guess.clear();
    }
  }
  return solutions;
}

std::vector<MosOperatingPoint> Simulator::mos_operating_points(
    const std::vector<double>& x) const {
  OLP_CHECK(static_cast<int>(x.size()) == n_unknowns(),
            "solution vector size mismatch (non-converged sweep point?)");
  std::vector<MosOperatingPoint> ops;
  ops.reserve(mos_.size());
  for (const MosEntry& m : mos_) ops.push_back(eval_mosfet(m, x));
  return ops;
}

AcResult Simulator::ac(const std::vector<double>& op_x,
                       const AcOptions& options) const {
  obs::Span span("sim.ac");
  obs::counter_add("sim.ac");
  obs::record("sim.ac.frequencies",
              static_cast<double>(options.frequencies.size()));
  const int n = n_unknowns();
  const int nn = circuit_.node_count() - 1;
  OLP_CHECK(static_cast<int>(op_x.size()) == n, "ac needs an OP solution");

  using C = std::complex<double>;
  // Small-signal MOS parameters are bias-only; compute them once.
  const std::vector<MosOperatingPoint> mos_ops = mos_operating_points(op_x);

  AcResult result;
  result.frequencies = options.frequencies;
  result.solutions.reserve(options.frequencies.size());

  // The frequency-independent part, once per call: linear devices, the
  // MOSFETs' gm/gds, a tiny conductance to ground that keeps isolated
  // internal nodes solvable, and the AC sources (the solve leaves b intact).
  // Each call orders on its first frequency: that matrix repeats an earlier
  // call's only at the same bias and frequency, which no testbench asks for,
  // so ac() neither adopts nor remembers a factorization.
  System<C> sys(pattern_);
  std::vector<C> a0(sys.a.size());
  stamp_linear(a0);
  for (std::size_t k = 0; k < mos_ops.size(); ++k) {
    add_mos(a0, mos_[k].slots, mos_ops[k].gm, mos_ops[k].gds);
  }
  for (const int slot : slots_.node_diag) add(a0, slot, C{1e-12, 0});
  for (std::size_t k = 0; k < circuit_.vsources().size(); ++k) {
    const VSource& v = circuit_.vsources()[k];
    if (v.ac_mag != 0.0) {
      sys.b[static_cast<std::size_t>(nn) + k] =
          std::polar(v.ac_mag, v.ac_phase);
    }
  }
  for (const ISource& i : circuit_.isources()) {
    if (i.ac_mag == 0.0) continue;
    const C val = std::polar(i.ac_mag, i.ac_phase);
    if (i.p > 0) sys.b[static_cast<std::size_t>(i.p - 1)] -= val;
    if (i.n > 0) sys.b[static_cast<std::size_t>(i.n - 1)] += val;
  }

  for (double freq : options.frequencies) {
    OLP_CHECK(freq > 0.0, "AC frequency must be positive");
    const double omega = 2.0 * M_PI * freq;
    sys.a = a0;
    for (std::size_t k = 0; k < caps_.size(); ++k) {
      add_quad(sys.a, slots_.caps[k], C{0.0, omega * caps_[k].c});
    }

    if (sys.solve()) {
      result.solutions.push_back(sys.x);
      continue;
    }
    // Recoverable: report and emit a zero solution at this frequency so
    // callers see a degraded (not aborted) sweep.
    OLP_WARN << "AC system singular at f=" << freq;
    if (diag_) {
      diag_->report(DiagSeverity::kError, "simulator", "ac",
                    "AC system singular at f=" + std::to_string(freq) +
                        "; emitting zero solution");
    }
    result.solutions.emplace_back(static_cast<std::size_t>(n), C{});
  }
  return result;
}

TranResult Simulator::tran(const TranOptions& options) const {
  obs::Span span("sim.tran");
  obs::counter_add("sim.tran");
  TranResult r = tran_attempt(options);
  if (r.ok) return r;

  // Retry ladder: backward Euler (maximum damping) with a halved timestep on
  // each attempt. Engages only when an attempt reports ok=false, so flows
  // whose transients converge first try are unaffected.
  TranOptions retry = options;
  int retries = 0;
  bool budget_ended = false;
  while (!r.ok && retries < kMaxTranRetries) {
    if (budget_ != nullptr && budget_->check()) {
      budget_ended = true;
      break;
    }
    ++retries;
    retry.backward_euler = true;
    retry.dt *= 0.5;
    obs::counter_add("sim.tran.retries");
    if (diag_) {
      diag_->report(DiagSeverity::kWarning, "simulator", "tran",
                    "transient attempt " + std::to_string(retries) +
                        " failed; retrying with backward Euler, dt=" +
                        std::to_string(retry.dt));
    }
    r = tran_attempt(retry);
  }
  if (!r.ok) {
    obs::counter_add("sim.tran.failed");
    if (diag_) {
      diag_->report(DiagSeverity::kError, "simulator", "tran",
                    "transient failed after " + std::to_string(retries) +
                        " retries" +
                        (budget_ended ? "; the budget ended the ladder" : ""));
    }
  }
  return r;
}

TranResult Simulator::tran_attempt(const TranOptions& options) const {
  obs::counter_add("sim.tran.attempts");
  OLP_CHECK(options.dt > 0 && options.tstop > options.dt &&
                options.record_stride >= 1,
            "transient needs dt > 0, tstop > dt and record_stride >= 1");
  if (FaultInjector::global().should_fail(FaultSite::kTranNonConvergence)) {
    if (diag_) {
      diag_->report(DiagSeverity::kWarning, "chaos",
                    fault_site_name(FaultSite::kTranNonConvergence),
                    "injected transient non-convergence");
    }
    TranResult injected;
    injected.ok = false;
    injected.times.push_back(0.0);
    injected.samples.emplace_back(static_cast<std::size_t>(n_unknowns()), 0.0);
    return injected;
  }
  const int n = n_unknowns();
  const int nn = circuit_.node_count() - 1;

  // Initial state.
  std::vector<double> x;
  if (options.start_from_op) {
    OpResult op0 = op();
    if (!op0.converged) {
      OLP_WARN << "transient: t=0 operating point failed to converge";
    }
    x = std::move(op0.x);
  } else {
    x.assign(static_cast<std::size_t>(n), 0.0);
  }
  // Node initial conditions override the OP (ring-symmetry kick).
  for (const auto& [node, value] : circuit_.initial_conditions()) {
    x[static_cast<std::size_t>(node - 1)] = value;
  }
  for (const LinearCap& c : caps_) {
    if (!c.use_ic) continue;
    // Force v(a) - v(b) = ic by shifting node a when possible.
    if (c.a > 0) {
      const double vb = c.b > 0 ? x[static_cast<std::size_t>(c.b - 1)] : 0.0;
      x[static_cast<std::size_t>(c.a - 1)] = vb + c.ic;
    }
  }

  TranResult result;
  result.times.push_back(0.0);
  result.samples.push_back(x);
  // This attempt's own copy: the caller's predicate is never called, so
  // every attempt starts from the state the caller gave it.
  auto stop_when = options.stop_when;
  auto stopped = [&] {
    if (!stop_when || !stop_when(result.times.back(), result.samples.back())) {
      return false;
    }
    obs::counter_add("sim.tran.stopped");
    result.ok = true;
    return true;
  };
  if (stopped()) return result;

  // Per-capacitor branch current state (for trapezoidal integration).
  std::vector<double> icap(caps_.size(), 0.0);
  auto cap_voltage = [&](const LinearCap& c, const std::vector<double>& v) {
    const double va = c.a > 0 ? v[static_cast<std::size_t>(c.a - 1)] : 0.0;
    const double vb = c.b > 0 ? v[static_cast<std::size_t>(c.b - 1)] : 0.0;
    return va - vb;
  };

  // A transient's first matrix carries its step's companion conductances and
  // is linearized at its t = 0 state, so it does not repeat an op()'s. It
  // neither adopts nor replaces the remembered factorization, which the op()
  // starting the next transient window then still matches.
  System<double> sys(pattern_);

  const double h = options.dt;
  const long steps = static_cast<long>(std::ceil(options.tstop / h));

  // Companion conductance of a capacitor for one step.
  auto cap_geq = [](const LinearCap& c, double h_at, bool trapezoidal) {
    return trapezoidal ? 2.0 * c.c / h_at : c.c / h_at;
  };
  // The iterate-independent matrix of one (step, method): linear devices,
  // capacitor companion conductances and the 1e-12 diagonal. A transient
  // meets at most three (h trapezoidal, h and a substep backward Euler);
  // each is stamped on first use. Map entries stay put as others are added.
  std::map<std::pair<double, bool>, std::vector<double>> companions;
  auto companion_matrix = [&](double h_at,
                              bool trapezoidal) -> const std::vector<double>& {
    const auto [it, inserted] = companions.try_emplace({h_at, trapezoidal});
    std::vector<double>& a0 = it->second;
    if (!inserted) return a0;
    a0.assign(sys.a.size(), 0.0);
    stamp_linear(a0);
    for (std::size_t k = 0; k < caps_.size(); ++k) {
      if (caps_[k].c <= 0) continue;
      add_quad(a0, slots_.caps[k], cap_geq(caps_[k], h_at, trapezoidal));
    }
    for (const int slot : slots_.node_diag) add(a0, slot, 1e-12);
    return a0;
  };
  std::vector<double> b0(sys.b.size());

  // One Newton solve of the companion system at time `t_at` with step
  // `h_at`, integrating from `x_prev` (+ cap currents icap for trapezoidal).
  auto newton_solve = [&](double t_at, double h_at, bool trapezoidal,
                          const std::vector<double>& x_prev,
                          std::vector<double>& x_out) -> bool {
    const std::vector<double>& a0 = companion_matrix(h_at, trapezoidal);
    // The step's rhs: sources at t plus each capacitor's history current.
    std::fill(b0.begin(), b0.end(), 0.0);
    stamp_sources(b0, t_at, 1.0);
    for (std::size_t k = 0; k < caps_.size(); ++k) {
      const LinearCap& c = caps_[k];
      if (c.c <= 0) continue;
      const double geq = cap_geq(c, h_at, trapezoidal);
      const double v_prev = cap_voltage(c, x_prev);
      const double ieq_into_a =
          trapezoidal ? geq * v_prev + icap[k] : geq * v_prev;
      add_rhs(b0, c.a - 1, ieq_into_a);
      add_rhs(b0, c.b - 1, -ieq_into_a);
    }

    x_out = x_prev;  // warm start
    for (int iter = 0; iter < options.max_newton; ++iter) {
      sys.a = a0;
      sys.b = b0;
      stamp_mosfets(sys.a, sys.b, x_out);

      if (!sys.solve()) return false;

      bool within_tol = true;
      for (int k = 0; k < n; ++k) {
        const std::size_t ks = static_cast<std::size_t>(k);
        double delta = sys.x[ks] - x_out[ks];
        if (k < nn) {
          delta = std::clamp(delta, -0.5, 0.5);
          if (std::fabs(delta) > 1e-7 + 1e-5 * std::fabs(x_out[ks])) {
            within_tol = false;
          }
        }
        x_out[ks] += delta;
      }
      if (within_tol && iter > 0) {
        sys.check_kcl(x_out);
        return true;
      }
    }
    return false;
  };

  auto update_icap = [&](bool trapezoidal, double h_at,
                         const std::vector<double>& x_prev,
                         const std::vector<double>& x_next) {
    for (std::size_t k = 0; k < caps_.size(); ++k) {
      const LinearCap& c = caps_[k];
      if (c.c <= 0) continue;
      const double dv = cap_voltage(c, x_next) - cap_voltage(c, x_prev);
      if (trapezoidal) {
        icap[k] = 2.0 * c.c / h_at * dv - icap[k];
      } else {
        icap[k] = c.c / h_at * dv;
      }
    }
  };

  long recorded = 0;
  for (long step = 1; step <= steps; ++step) {
    // Budget-bounded timestepping: a truncated transient is reported as
    // ok=false so callers degrade instead of trusting partial waveforms.
    if (budget_ != nullptr && budget_->check()) {
      result.ok = false;
      return result;
    }
    const double t = static_cast<double>(step) * h;
    // First step uses backward Euler (no valid cap-current history yet).
    const bool trapezoidal = !options.backward_euler && step > 1;

    std::vector<double> x_new;
    if (newton_solve(t, h, trapezoidal, x, x_new)) {
      update_icap(trapezoidal, h, x, x_new);
    } else if (newton_solve(t, h, false, x, x_new)) {
      // Trapezoidal ringing: fall back to (damped) backward Euler.
      update_icap(false, h, x, x_new);
    } else {
      // Stiff corner: subdivide the step with backward Euler.
      constexpr int kSubsteps = 4;
      const double hs = h / kSubsteps;
      std::vector<double> x_sub = x;
      bool ok = true;
      for (int j = 1; j <= kSubsteps; ++j) {
        const double tj = t - h + j * hs;
        std::vector<double> x_tmp;
        if (!newton_solve(tj, hs, false, x_sub, x_tmp)) {
          ok = false;
          break;
        }
        update_icap(false, hs, x_sub, x_tmp);
        x_sub = std::move(x_tmp);
      }
      if (!ok) {
        OLP_WARN << "transient Newton failed at t=" << t;
        if (diag_) {
          diag_->report(DiagSeverity::kWarning, "simulator", "tran",
                        "transient Newton failed at t=" + std::to_string(t));
        }
        result.ok = false;
        return result;
      }
      x_new = std::move(x_sub);
    }

    x = std::move(x_new);
    ++recorded;
    if (recorded % options.record_stride == 0 || step == steps) {
      result.times.push_back(t);
      result.samples.push_back(x);
      if (stopped()) return result;
    }
  }
  result.ok = true;
  return result;
}

}  // namespace olp::spice
