#include "core/cost.hpp"

#include <cmath>

#include "core/evaluator.hpp"
#include "util/error.hpp"

namespace olp::core {

double metric_deviation(double x_sch, double x_layout, double x_spec) {
  if (x_sch != 0.0) {
    return std::fabs(x_sch - x_layout) / std::fabs(x_sch);
  }
  OLP_CHECK(x_spec > 0.0, "zero-schematic metric needs a positive spec");
  return std::max(0.0, (std::fabs(x_layout) - x_spec) / x_spec);
}

CostBreakdown compute_cost(const std::vector<MetricSpec>& specs,
                           const MetricValues& schematic,
                           const MetricValues& layout, double offset_spec) {
  CostBreakdown result;
  for (const MetricSpec& spec : specs) {
    MetricDeviation term;
    term.spec = spec;
    const auto sit = schematic.find(spec.kind);
    const auto lit = layout.find(spec.kind);
    OLP_CHECK(sit != schematic.end() && lit != layout.end(),
              std::string("metric missing from evaluation: ") +
                  metric_name(spec.kind));
    term.x_sch = sit->second;
    term.x_layout = lit->second;
    // Zero-schematic metrics (systematic offset) measure against the spec.
    // The schematic's own systematic offset is zero by construction, so any
    // zero-schematic reading routes through the Eq. 6 second case.
    if (spec.spec_is_offset_fraction || term.x_sch == 0.0) {
      term.x_spec = offset_spec;
      term.deviation = metric_deviation(0.0, term.x_layout, offset_spec);
    } else {
      term.deviation =
          metric_deviation(term.x_sch, term.x_layout, offset_spec);
    }
    result.terms.push_back(term);
    result.total += spec.weight * term.deviation * 100.0;
  }
  return result;
}

CostBreakdown layout_cost(const PrimitiveEvaluator& evaluator,
                          const pcell::PrimitiveLayout& layout,
                          const MetricValues& reference,
                          const MetricValues& values, long quarantined) {
  CostBreakdown cb =
      compute_cost(metric_library(layout.netlist.type).metrics, reference,
                   values, 0.1 * evaluator.random_offset_sigma(layout));
  if (quarantined > 0 || !std::isfinite(cb.total)) cb.total = kQuarantineCost;
  return cb;
}

}  // namespace olp::core
