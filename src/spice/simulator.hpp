#pragma once
// Modified-nodal-analysis simulator: DC operating point (Newton with gmin and
// source stepping), DC sweeps, small-signal AC, and transient analysis with
// trapezoidal/backward-Euler integration.
//
// Unknown ordering: node voltages for nodes 1..N-1 first, then one branch
// current per independent voltage source, then one per VCVS.
//
// Every analysis stamps into one structural pattern built by the constructor
// (see DESIGN.md §6k): each device knows its matrix slots, and each analysis
// call orders a sparse LU once and refactors it numerically per Newton
// iteration, timestep or frequency.

#include <array>
#include <atomic>
#include <complex>
#include <functional>
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
  int max_iterations = 200;
  double vtol_abs = 1e-9;   ///< absolute voltage convergence tolerance [V]
  double vtol_rel = 1e-6;   ///< relative voltage convergence tolerance
  double damping = 0.3;     ///< max node-voltage update per Newton step [V]
  double gmin_floor = 1e-12;  ///< permanent node-to-ground conductance [S]
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

struct TranOptions {
  double tstop = 1e-9;    ///< simulation end time [s]
  double dt = 1e-12;      ///< fixed timestep [s]
  int record_stride = 1;  ///< keep every k-th sample
  /// When true, the initial state is the DC operating point at t = 0 with any
  /// node initial conditions overriding the OP values (this is how the VCO
  /// testbench breaks ring symmetry).
  bool start_from_op = true;
  int max_newton = 80;
  /// Use backward Euler throughout instead of trapezoidal (more damping).
  bool backward_euler = false;
  /// On ok=false, retry this many times with backward Euler and halved dt
  /// before giving up (0 disables the ladder).
  int max_retries = 2;
};

struct TranResult {
  bool ok = false;
  std::vector<double> times;
  /// samples[k] is the full unknown vector at times[k].
  std::vector<std::vector<double>> samples;
};

/// Process-wide analysis counters; the flow reports these in Table V / VIII.
/// Atomic so concurrent TaskPool evaluations merge instead of racing.
struct SimStats {
  std::atomic<long> op_count{0};
  std::atomic<long> ac_count{0};
  std::atomic<long> tran_count{0};
  long total() const { return op_count + ac_count + tran_count; }
  void reset() {
    op_count = 0;
    ac_count = 0;
    tran_count = 0;
  }
  static SimStats& global();
};

/// The analysis engine. Holds a reference to the circuit; the circuit must
/// outlive the simulator and not change structurally between analyses
/// (changing device *values* and re-running is allowed and cheap).
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

  /// Transient analysis. On non-convergence, retries up to
  /// `options.max_retries` times with backward Euler and a halved timestep
  /// (each retry is reported to the diagnostics sink) before returning
  /// ok=false.
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
    /// (d,g) (d,d) (d,s) (s,g) (s,d) (s,s)
    std::vector<std::array<int, 6>> mosfets;
    std::vector<int> node_diag;  ///< (k,k) for every node unknown k
  };

  /// Per-analysis solver state (values, rhs, solution, LU); see the .cpp.
  template <typename T>
  struct System;

  int n_unknowns() const { return circuit_.unknown_count(); }

  /// One transient attempt with the given options (no retry ladder).
  TranResult tran_attempt(const TranOptions& options) const;

  /// op() continuation ladder without the instrumentation wrapper.
  OpResult op_impl(const OpOptions& options, System<double>& sys) const;

  /// One Newton solve of the DC system with sources scaled by `source_scale`
  /// and `gmin` to ground on every node. Returns convergence and iterations.
  OpResult newton_dc(const OpOptions& options, double gmin,
                     double source_scale, const std::vector<double>& guess,
                     System<double>& sys) const;

  /// Stamps all static linear devices (R, VCVS, VCCS) and the voltage-source
  /// incidence into the matrix values.
  template <typename T>
  void stamp_linear(std::vector<T>& a) const;
  /// Stamps independent source values at time t (or DC) scaled by `scale`.
  void stamp_sources(std::vector<double>& b, double t, double scale) const;
  /// Stamps linearized MOSFETs around the solution `x`.
  void stamp_mosfets(std::vector<double>& a, std::vector<double>& b,
                     const std::vector<double>& x) const;

  /// Effective MOS terminal small-signal quantities (shared by OP/AC paths).
  MosOperatingPoint eval_mosfet(const Mosfet& m,
                                const std::vector<double>& x) const;

  /// All linear capacitances: explicit capacitors plus MOS parasitic caps.
  std::vector<LinearCap> gather_caps() const;

  const Circuit& circuit_;
  std::vector<LinearCap> caps_;
  linalg::SparsePattern pattern_;
  Slots slots_;
  DiagnosticsSink* diag_ = nullptr;
  Budget* budget_ = nullptr;
};

}  // namespace olp::spice
