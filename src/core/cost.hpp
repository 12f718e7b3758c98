#pragma once
// The primitive layout cost function (paper Eqs. 5-6).
//
//   Cost = sum_i alpha_i * dx_i
//   dx_i = |x_sch - x_layout| / |x_sch|                     when x_sch != 0
//   dx_i = max(0, (|x_layout| - x_spec) / x_spec)           when x_sch == 0
//
// The second case covers metrics like systematic input offset whose
// schematic value is zero; x_spec is then 10% of the random (mismatch)
// offset. Costs are reported in the paper's units (percent-sum; a dx of
// 6.7% contributes 0.067 * alpha * 100 to the printed cost).

#include <string>
#include <vector>

#include "core/metrics.hpp"

namespace olp::core {

class PrimitiveEvaluator;

/// Cost assigned to an evaluation that produced a quarantined (non-finite)
/// metric: large enough to lose against any healthy candidate, finite so
/// sorting and downstream arithmetic stay well-defined.
inline constexpr double kQuarantineCost = 1e12;

/// One metric's contribution to the cost.
struct MetricDeviation {
  MetricSpec spec;
  double x_sch = 0.0;
  double x_layout = 0.0;
  double x_spec = 0.0;     ///< only used when x_sch == 0
  double deviation = 0.0;  ///< dx_i (fraction, not percent)
};

/// Eq. 6. `x_spec` must be positive when `x_sch` is zero.
double metric_deviation(double x_sch, double x_layout, double x_spec);

/// Detailed cost breakdown of one layout candidate.
struct CostBreakdown {
  std::vector<MetricDeviation> terms;
  double total = 0.0;  ///< Eq. 5, in percent units (paper Table III scale)
};

/// Eq. 5 over a set of measured deviations.
CostBreakdown compute_cost(const std::vector<MetricSpec>& specs,
                           const MetricValues& schematic,
                           const MetricValues& layout, double offset_spec);

/// The one cost of Algorithms 1 and 2: Eq. 5 over the Table II metrics of
/// `layout`'s family against `reference`, with an offset spec of 10% of the
/// random mismatch sigma. The total is kQuarantineCost when the evaluation
/// quarantined `quarantined` > 0 metrics or the total is not finite.
CostBreakdown layout_cost(const PrimitiveEvaluator& evaluator,
                          const pcell::PrimitiveLayout& layout,
                          const MetricValues& reference,
                          const MetricValues& values, long quarantined);

}  // namespace olp::core
