#pragma once
// Primitive layout optimization — paper Algorithm 1.
//
// Step 1 (primitive selection): generate all layout configurations for the
// target device size, evaluate each configuration's performance metrics
// post-layout (wire parasitics + LDEs), compute the weighted cost against
// the schematic reference, split the configurations into n aspect-ratio bins
// and keep the cheapest configuration per bin.
//
// Step 2 (primitive tuning): on each kept configuration, add parallel wires
// at the tuning terminals (Table II). Uncorrelated terminals are swept
// independently; correlated terminals are enumerated jointly. The sweep stops
// at the cost minimum, or at the maximum-curvature point of a monotonically
// decreasing cost curve.

#include <vector>

#include "core/cost.hpp"
#include "core/evaluator.hpp"
#include "pcell/generator.hpp"

namespace olp {
class Budget;
class DiagnosticsSink;
class TaskPool;
}

namespace olp::core {

/// Cost assigned to a candidate whose evaluation produced a quarantined
/// (non-finite) metric: large enough to lose against any healthy candidate,
/// finite so sorting and downstream arithmetic stay well-defined.
inline constexpr double kQuarantineCost = 1e12;

/// One evaluated (and possibly tuned) layout option.
struct LayoutCandidate {
  /// A footprint (layout.footprint_only) when the candidate was scored from
  /// a cache hit; PrimitiveGenerator::materialize() makes it full.
  pcell::PrimitiveLayout layout;
  extract::TuningMap tuning;   ///< parallel wires at tuning terminals
  MetricValues values;         ///< measured at the current tuning
  CostBreakdown cost;
  int bin = -1;                ///< aspect-ratio bin index
  /// Evaluation hit a non-finite metric; cost.total == kQuarantineCost.
  bool quarantined = false;
};

struct OptimizerOptions {
  int bins = 3;                ///< aspect-ratio bins (options handed to P&R)
  int max_tuning_wires = 8;    ///< sweep limit for strap tuning
  /// Explicit configuration list; empty = enumerate all valid ones.
  std::vector<pcell::LayoutConfig> configs;
};

/// Runs Algorithm 1 for one primitive.
class PrimitiveOptimizer {
 public:
  /// `diagnostics` (optional, may be null) receives records for quarantined
  /// candidates and fallback selections; the sink must outlive the optimizer.
  /// `budget` (optional, may be null) bounds candidate enumeration and tuning
  /// sweeps: on exhaustion the optimizer keeps the candidates evaluated and
  /// tuned so far instead of completing the search.
  /// `pool` (optional, may be null) parallelizes candidate evaluation and
  /// tuning sweeps; results are merged in submission order, so the output is
  /// bit-identical to the serial run (tests/test_determinism.cpp).
  PrimitiveOptimizer(const pcell::PrimitiveGenerator& generator,
                     const PrimitiveEvaluator& evaluator,
                     DiagnosticsSink* diagnostics = nullptr,
                     Budget* budget = nullptr, TaskPool* pool = nullptr)
      : generator_(generator),
        evaluator_(evaluator),
        diag_(diagnostics),
        budget_(budget),
        pool_(pool) {}

  /// Step 1 only: evaluate every configuration and assign bins. Returned in
  /// enumeration order; used directly by the Table III bench. Candidates
  /// are scored from footprints and only a cache miss builds full geometry,
  /// so a returned candidate may be a footprint:
  /// PrimitiveGenerator::materialize() it before tuning, placing or
  /// realizing it.
  std::vector<LayoutCandidate> evaluate_all(
      const pcell::PrimitiveNetlist& netlist, int fins_per_device,
      const OptimizerOptions& options = {}) const;

  /// Full Algorithm 1: selection + tuning; returns one tuned candidate per
  /// non-empty bin, cheapest first, each with its full layout. Quarantined
  /// candidates are skipped during selection; when every candidate is
  /// quarantined the optimizer degrades to the minimum-area configuration
  /// (with a warning diagnostic) rather than failing.
  std::vector<LayoutCandidate> optimize(const pcell::PrimitiveNetlist& netlist,
                                        int fins_per_device,
                                        const OptimizerOptions& options = {}) const;

  /// Step 2 only: tunes a single candidate's terminals in place. The
  /// candidate must have its full layout.
  void tune(LayoutCandidate& candidate, int max_wires = 8) const;

  /// Schematic reference metric values for this primitive (x_sch in Eq. 6).
  MetricValues schematic_reference(const pcell::PrimitiveNetlist& netlist,
                                   int fins_per_device) const;

  /// The offset spec: 10% of the random mismatch offset (Eq. 6 discussion).
  double offset_spec(const pcell::PrimitiveLayout& layout) const;

 private:
  /// Evaluates and costs `layout`; a miss materializes it in place.
  CostBreakdown cost_of(pcell::PrimitiveLayout& layout,
                        const extract::TuningMap& tuning,
                        const MetricValues& reference,
                        MetricValues* values_out) const;

  const pcell::PrimitiveGenerator& generator_;
  const PrimitiveEvaluator& evaluator_;
  DiagnosticsSink* diag_ = nullptr;
  Budget* budget_ = nullptr;
  TaskPool* pool_ = nullptr;
};

/// Assigns aspect-ratio bins: the log-aspect range of the candidates is cut
/// into `bins` equal intervals (paper Sec. III-A1). Returns per-candidate bin
/// ids in [0, bins).
std::vector<int> assign_aspect_bins(const std::vector<double>& aspect_ratios,
                                    int bins);

}  // namespace olp::core
