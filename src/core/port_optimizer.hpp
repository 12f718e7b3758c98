#pragma once
// Primitive port optimization — paper Algorithm 2.
//
// After placement and global routing, each primitive knows the external
// routes attached to its ports (length per layer, via count). Step 1 sweeps
// the number of parallel routes per port and finds the interval
// [w_min, w_max] over which the primitive cost is optimized. Step 2
// reconciles the intervals of all primitives sharing a net: overlapping
// intervals take max(w_min,i) (fewest tracks in the common region, lowest
// congestion); disjoint intervals are re-simulated over the gap range
// [min(w_max,i), max(w_min,i)] and the count minimizing the summed cost wins.
// Steiner-node handling: all branches of a net's Steiner tree use the same
// parallel-route count (Sec. III-B1).

#include <map>
#include <string>
#include <vector>

#include "core/optimizer.hpp"
#include "route/global_router.hpp"
#include "util/interval.hpp"

namespace olp {
class TaskPool;
}

namespace olp::core {

/// External route attached to one primitive port.
struct PortRoute {
  std::string port;        ///< primitive port name
  std::string circuit_net; ///< circuit-level net the port connects to
  route::NetRoute route;   ///< global-route geometry (lengths, layers, vias)
};

/// One primitive instance as seen by the port optimizer.
struct PortOptPrimitive {
  std::string instance;                   ///< instance name (reporting)
  const PrimitiveEvaluator* evaluator = nullptr;
  const pcell::PrimitiveLayout* layout = nullptr;
  extract::TuningMap tuning;              ///< from primitive tuning
  std::vector<PortRoute> routes;          ///< external routes at its ports
};

/// Per-primitive, per-net constraint produced by step 1.
struct PortConstraint {
  std::string instance;
  std::string circuit_net;
  WireInterval interval;
  std::vector<double> cost_curve;  ///< cost at w = 1..N (for reporting)
};

/// Final per-net decision after reconciliation.
struct NetWireDecision {
  std::string circuit_net;
  int parallel_routes = 1;
  bool from_overlap = true;  ///< false when the gap had to be re-simulated
};

/// Costs within this fraction of the minimum count as "optimized" (defines
/// the [w_min, w_max] plateau; w_min is effectively the knee /
/// maximum-curvature point of these cost curves).
inline constexpr double kPlateauTolerance = 0.04;

struct PortOptimizerOptions {
  int max_wires = 8;
};

/// Converts a global route to a lumped RC for `parallel` routes. Parallel
/// routes divide resistance (wires and via stacks) and multiply capacitance.
extract::WireRc route_wire_rc(const tech::Technology& t,
                              const route::NetRoute& route, int parallel);

/// Algorithm 2 over a set of primitives sharing global routes.
class PortOptimizer {
 public:
  explicit PortOptimizer(const tech::Technology& technology,
                         PortOptimizerOptions options = {})
      : tech_(technology), options_(options) {}

  /// Attaches a diagnostics sink (may be null); receives budget-truncation
  /// records. The sink must outlive the optimizer.
  void set_diagnostics(DiagnosticsSink* sink) { diag_ = sink; }

  /// Attaches an execution budget (may be null). Exhaustion truncates the
  /// per-net wire sweeps and gap re-simulations: explored sweep prefixes
  /// still yield constraints (plateau over the explored range), unexplored
  /// nets fall back to the single-route default downstream.
  void set_budget(Budget* budget) { budget_ = budget; }

  /// Attaches a task pool (may be null for serial execution). Wire sweeps
  /// and gap re-simulations parallelize over sweep points; the ordered
  /// reduction keeps results bit-identical to the serial run.
  void set_pool(TaskPool* pool) { pool_ = pool; }

  /// Step 1: constraint generation for one primitive. Sweeps all its ports
  /// together per net (a net may touch several ports of one primitive).
  std::vector<PortConstraint> generate_constraints(
      const PortOptPrimitive& primitive) const;

  /// Step 2: reconciliation across primitives; returns one decision per net.
  std::vector<NetWireDecision> reconcile(
      const std::vector<PortOptPrimitive>& primitives,
      const std::vector<PortConstraint>& constraints) const;

  /// Convenience: both steps.
  std::vector<NetWireDecision> optimize(
      const std::vector<PortOptPrimitive>& primitives) const;

 private:
  double primitive_cost(const PortOptPrimitive& primitive,
                        const std::map<std::string, int>& net_wires) const;

  const tech::Technology& tech_;
  PortOptimizerOptions options_;
  DiagnosticsSink* diag_ = nullptr;
  Budget* budget_ = nullptr;
  TaskPool* pool_ = nullptr;
};

/// Extracts [w_min, w_max] from a cost-vs-wires curve per the plateau rule.
WireInterval interval_from_curve(const std::vector<double>& costs,
                                 double plateau_tolerance);

}  // namespace olp::core
