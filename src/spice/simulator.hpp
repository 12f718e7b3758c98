#pragma once
// Modified-nodal-analysis simulator: DC operating point (Newton with gmin and
// source stepping), DC sweeps, small-signal AC, and transient analysis with
// trapezoidal/backward-Euler integration.
//
// Unknown ordering: node voltages for nodes 1..N-1 first, then one branch
// current per independent voltage source, then one per VCVS.
//
// Every analysis stamps into one structural pattern built by the constructor
// (see DESIGN.md §3.3): each device knows its matrix slots, and each analysis
// call orders a sparse LU once and refactors it numerically per Newton
// iteration, timestep or frequency. An op() call whose first matrix is
// bitwise equal to the first matrix of the last op() call that ordered
// adopts that factorization instead of ordering again. The part of each
// system that does not depend on the Newton iterate is stamped once per
// call, step or step size; a Newton iteration copies it and adds only the
// MOSFETs, read from a device table the constructor builds.

#include <array>
#include <complex>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "linalg/sparse_lu.hpp"
#include "spice/circuit.hpp"

namespace olp {
class Budget;
class DiagnosticsSink;
}

namespace olp::spice {

/// Options for the DC operating-point solve.
struct OpOptions {
  /// Warm-start solution (full unknown vector); empty = start from zero.
  std::vector<double> initial_guess;
};

/// Result of a DC operating point.
struct OpResult {
  bool converged = false;
  int iterations = 0;
  /// Full unknown vector (node voltages then branch currents).
  std::vector<double> x;
};

/// One MOSFET's small-signal state at the operating point.
struct MosOperatingPoint {
  double id = 0.0;   ///< physical drain current into the drain terminal [A]
  double gm = 0.0;
  double gds = 0.0;
  double vgs = 0.0;  ///< actual node-voltage difference vg - vs [V]
  double vds = 0.0;
};

struct AcOptions {
  std::vector<double> frequencies;  ///< analysis frequencies [Hz]
};

struct AcResult {
  std::vector<double> frequencies;
  /// solutions[k] is the full complex unknown vector at frequencies[k].
  std::vector<std::vector<std::complex<double>>> solutions;
};

/// A transient starts from op(), node initial conditions overriding it (the
/// VCO testbench's symmetry kick), and records every step.
struct TranOptions {
  double tstop = 1e-9;    ///< simulation end time [s]
  double dt = 1e-12;      ///< fixed timestep [s]
  int max_newton = 80;    ///< Newton iterations per step
  /// Use backward Euler throughout instead of trapezoidal (more damping).
  bool backward_euler = false;
  /// Optional. Called with each recorded sample in time order, the t = 0
  /// sample first; when it returns true, the attempt ends at that sample
  /// with ok = true. Each attempt (every retry, every tran() call) calls its
  /// own copy, so state the predicate holds by value starts over with the
  /// attempt; state it reaches by reference does not. Set it only when no
  /// later sample can change what the caller measures (a DelayTracker that
  /// is done); a caller reading the whole window must leave it empty.
  std::function<bool(double t, const std::vector<double>& x)> stop_when;
};

struct TranResult {
  bool ok = false;
  std::vector<double> times;
  /// samples[k] is the full unknown vector at times[k].
  std::vector<std::vector<double>> samples;
};

/// The analysis engine. Holds a reference to the circuit, which must outlive
/// the simulator.
///
/// What may change under a live simulator: only the independent sources'
/// waveforms and AC magnitude/phase. Each analysis re-stamps them per call
/// (op, ac) or per timestep (tran), so a changed source is seen by the next
/// analysis. dc_sweep relies on this, and so does the evaluator, whose
/// testbenches of one evaluation share one bench and move the AC magnitudes
/// or replace a waveform between analyses. Everything else must stay fixed
/// while the simulator lives: the structure, the models and every device
/// value. The constructor copies the capacitances (explicit and MOS-derived)
/// and each MOSFET's terminals and folded model constants; to change a
/// device, construct a new Simulator.
class Simulator {
 public:
  /// `diagnostics` (optional, may be null) receives structured records for
  /// recoverable failures and engaged fallbacks; the sink must outlive the
  /// simulator. `budget` (optional, may be null) bounds the Newton/timestep
  /// loops: when it reports exhaustion the analysis returns its current
  /// (non-converged) state instead of iterating further.
  explicit Simulator(const Circuit& circuit,
                     DiagnosticsSink* diagnostics = nullptr,
                     Budget* budget = nullptr);

  /// DC operating point with robust continuation (plain Newton, then gmin
  /// stepping, then source stepping).
  OpResult op(const OpOptions& options = {}) const;

  /// DC sweep of one voltage source: repeated operating points with
  /// continuation (each point warm-starts from the previous solution).
  /// Returns one solution vector per value; non-converged points are empty.
  std::vector<std::vector<double>> dc_sweep(
      const std::string& vsource, const std::vector<double>& values,
      const OpOptions& options = {}) const;

  /// Node voltage / branch current accessors for a solution vector.
  double voltage(const std::vector<double>& x, NodeId node) const;
  double vsource_current(const std::vector<double>& x,
                         const std::string& name) const;
  std::complex<double> ac_voltage(
      const std::vector<std::complex<double>>& x, NodeId node) const;
  std::complex<double> ac_vsource_current(
      const std::vector<std::complex<double>>& x,
      const std::string& name) const;

  /// Small-signal state of every MOSFET at the given operating point.
  std::vector<MosOperatingPoint> mos_operating_points(
      const std::vector<double>& x) const;

  /// Small-signal AC sweep around the operating point `op_x` (run op() first).
  AcResult ac(const std::vector<double>& op_x, const AcOptions& options) const;

  /// Transient analysis. On non-convergence, retries up to two times with
  /// backward Euler and a halved timestep (each retry is reported to the
  /// diagnostics sink) before returning ok=false. An exhausted budget ends
  /// the ladder early. An attempt that `options.stop_when` ends is a success
  /// and is not retried.
  TranResult tran(const TranOptions& options) const;

  const Circuit& circuit() const { return circuit_; }

 private:
  struct LinearCap {
    NodeId a = 0, b = 0;
    double c = 0.0;
    double ic = 0.0;
    bool use_ic = false;
  };

  /// Slots of a four-entry stamp taking +v, +v, -v, -v: a conductance, a
  /// VCCS, or a voltage source's incidence. -1 marks a ground row/column.
  using Quad = std::array<int, 4>;

  /// Matrix slots of every device, in circuit order.
  struct Slots {
    std::vector<Quad> resistors;
    std::vector<Quad> caps;      ///< parallel to caps_
    std::vector<Quad> vccs;      ///< (p,cp) (n,cn) (p,cn) (n,cp)
    std::vector<Quad> vsources;  ///< (p,br) (br,p) (n,br) (br,n)
    std::vector<Quad> vcvs;      ///< incidence as for vsources
    std::vector<std::array<int, 2>> vcvs_control;  ///< (br,cp) (br,cn)
    std::vector<int> node_diag;  ///< (k,k) for every node unknown k
  };

  /// One MOSFET as a Newton iteration reads it, in circuit order.
  struct MosEntry {
    int d = -1, g = -1, s = -1;  ///< unknown indices; -1 is ground
    /// (d,g) (d,d) (d,s) (s,g) (s,d) (s,s)
    std::array<int, 6> slots{};
    MosDevice dev;
  };

  /// Per-analysis solver state (values, rhs, solution, LU); see the .cpp.
  template <typename T>
  struct System;

  /// The first factorization of the last op() call that ordered: its
  /// matrix and the LU right after that factor(). Empty until a call orders;
  /// guarded by `mu` for analyses pooled on one simulator.
  struct FirstFactorization {
    /// The first factor() of an op() call: adopts the remembered
    /// factorization into `lu` when `a` is bitwise equal to its matrix, and
    /// otherwise orders and, when not singular, becomes the remembered one.
    bool factor(const std::vector<double>& a, linalg::SparseLu<double>& lu);

    std::mutex mu;
    std::vector<double> a;
    std::optional<linalg::SparseLu<double>> lu;
  };

  int n_unknowns() const { return circuit_.unknown_count(); }

  /// One transient attempt with the given options (no retry ladder).
  TranResult tran_attempt(const TranOptions& options) const;

  /// op() continuation ladder without the instrumentation wrapper.
  OpResult op_impl(const OpOptions& options, System<double>& sys) const;

  /// Per-analysis limits of the damped Newton loop: the iteration cap, the
  /// largest node-voltage step [V], convergence at every node's
  /// |dv| <= vtol_abs + vtol_rel·|v|, and a budget check per iteration.
  struct NewtonLimits {
    int max_iterations;
    double max_step, vtol_abs, vtol_rel;
    bool budgeted;
  };

  /// Damped Newton from `x` on the static part (a0, b0) plus the MOSFETs
  /// linearized at each iterate; branch currents move freely. Returns
  /// convergence, the iterations run (the cap when the budget stopped it)
  /// and the last iterate.
  OpResult newton(const std::vector<double>& a0, const std::vector<double>& b0,
                  const NewtonLimits& limits, std::vector<double> x,
                  System<double>& sys) const;

  /// One Newton solve of the DC system with sources scaled by `source_scale`
  /// and `gmin` to ground on every node. Returns convergence and iterations.
  OpResult newton_dc(double gmin, double source_scale,
                     const std::vector<double>& guess,
                     System<double>& sys) const;

  /// Stamps all static linear devices (R, VCVS, VCCS) and the voltage-source
  /// incidence into the matrix values.
  template <typename T>
  void stamp_linear(std::vector<T>& a) const;
  /// Stamps independent source values at time t (or DC) scaled by `scale`.
  void stamp_sources(std::vector<double>& b, double t, double scale) const;
  /// Adds the MOSFETs linearized around `x`, an iterate of full length.
  void stamp_mosfets(std::vector<double>& a, std::vector<double>& b,
                     const std::vector<double>& x) const;

  /// One MOSFET's terminal quantities at `x`, an iterate of full length
  /// (shared by the op, tran and AC paths).
  static MosOperatingPoint eval_mosfet(const MosEntry& m,
                                       const std::vector<double>& x);

  /// All linear capacitances: explicit capacitors plus MOS parasitic caps.
  std::vector<LinearCap> gather_caps() const;

  const Circuit& circuit_;
  std::vector<LinearCap> caps_;
  linalg::SparsePattern pattern_;
  Slots slots_;
  std::vector<MosEntry> mos_;
  // Mutable: remembering a factorization changes what a later call computes,
  // never what it returns.
  mutable FirstFactorization first_;
  DiagnosticsSink* diag_ = nullptr;
  Budget* budget_ = nullptr;
};

}  // namespace olp::spice
