#pragma once
// Integer intervals over "number of parallel wires".
//
// Primitive port optimization (paper Sec. III-B) produces, per primitive and
// per net, an interval [w_min, w_max] of acceptable parallel-route counts.
// w_max may be unbounded ("cost increases are not seen over the explored
// range"). Reconciliation intersects these intervals across primitives.

#include <algorithm>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace olp {

/// A closed integer interval [lo, hi]; hi may be unbounded.
struct WireInterval {
  int lo = 1;
  /// Empty optional means "no upper bound observed" (paper: w_max unbounded).
  std::optional<int> hi;

  bool contains(int w) const { return w >= lo && (!hi || w <= *hi); }
  bool bounded() const { return hi.has_value(); }

  std::string to_string() const {
    std::string s = "[";
    s += std::to_string(lo);
    return s + ", " + (hi ? std::to_string(*hi) : "inf") + "]";
  }
};

/// Result of reconciling the intervals of all primitives sharing a net.
struct IntervalReconciliation {
  /// True when all intervals share at least one common wire count.
  bool overlap = false;
  /// When overlap: the chosen count max_i(w_min,i) — the smallest count in the
  /// common region (lowest routing congestion, paper Sec. III-B2).
  int chosen = 1;
  /// When no overlap: the gap range [min_i(w_max,i), max_i(w_min,i)] that must
  /// be re-simulated to pick the joint-cost minimizer.
  int gap_lo = 0;
  int gap_hi = 0;
};

/// Intersects the given intervals per the paper's reconciliation rule.
///
/// Overlapping intervals yield `chosen = max(w_min,i)`. Non-overlapping
/// intervals yield the simulation range [min(w_max,i), max(w_min,i)]
/// (the gap between the most constrained upper and lower bounds).
inline IntervalReconciliation reconcile(const std::vector<WireInterval>& ivs) {
  OLP_CHECK(!ivs.empty(), "reconcile requires at least one interval");
  int max_lo = 0;
  std::optional<int> min_hi;
  for (const WireInterval& iv : ivs) {
    OLP_CHECK(iv.lo >= 1, "wire counts start at 1");
    OLP_CHECK(!iv.hi || *iv.hi >= iv.lo, "interval upper bound below lower");
    max_lo = std::max(max_lo, iv.lo);
    if (iv.hi) min_hi = min_hi ? std::min(*min_hi, *iv.hi) : *iv.hi;
  }
  IntervalReconciliation r;
  if (!min_hi || max_lo <= *min_hi) {
    r.overlap = true;
    r.chosen = max_lo;
  } else {
    r.overlap = false;
    r.gap_lo = *min_hi;
    r.gap_hi = max_lo;
  }
  return r;
}

}  // namespace olp
