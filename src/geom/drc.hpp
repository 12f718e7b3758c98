#pragma once
// Design-rule checking (lite): minimum width and same-net-aware minimum
// spacing per routing layer, applied to generated primitive layouts and
// realized routes. Not a sign-off DRC — the subset needed to keep the
// generator and the route realization honest on the gridded rules the paper
// says it honors.

#include <string>
#include <vector>

#include "geom/layout.hpp"
#include "tech/technology.hpp"

namespace olp::geom {

/// One rule violation.
struct DrcViolation {
  enum class Kind { kMinWidth, kMinSpacing } kind = Kind::kMinWidth;
  tech::Layer layer = tech::Layer::kM1;
  Rect a;           ///< offending shape
  Rect b;           ///< second shape (spacing violations)
  double value = 0; ///< measured width/spacing [m]
  double limit = 0; ///< required minimum [m]

  std::string to_string() const;
};

/// Runs the checks on routing metals (front-end layers follow generator
/// conventions the simple rules do not model) and returns all violations
/// (empty = clean). Shapes on one net may abut or overlap freely.
std::vector<DrcViolation> check_design_rules(const tech::Technology& t,
                                             const Layout& layout);

}  // namespace olp::geom
