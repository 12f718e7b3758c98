#include "route/global_router.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "util/budget.hpp"
#include "util/diag.hpp"
#include "util/error.hpp"
#include "util/faults.hpp"
#include "util/logging.hpp"
#include "util/obs.hpp"

namespace olp::route {

/// The grid pitch [m], also the halo around the region, and the cost of a
/// via step in gcell steps.
constexpr double kGcellSize = 200e-9;
constexpr double kViaCost = 2.0;

double NetRoute::length_on(tech::Layer layer) const {
  double total = 0.0;
  for (const RouteSegment& s : segments) {
    if (s.layer == layer) total += s.length();
  }
  return total;
}

double NetRoute::total_length() const {
  double total = 0.0;
  for (const RouteSegment& s : segments) total += s.length();
  return total;
}

tech::Layer NetRoute::dominant_layer() const {
  double best_len = -1.0;
  tech::Layer best = tech::Layer::kM3;
  for (int l = 0; l < tech::kNumRoutingLayers; ++l) {
    const tech::Layer layer = tech::metal_layer(l);
    const double len = length_on(layer);
    if (len > best_len && len > 0) {
      best_len = len;
      best = layer;
    }
  }
  return best;
}

GlobalRouter::GlobalRouter(const tech::Technology& technology,
                           geom::Rect region, RouterOptions options)
    : tech_(technology), opt_(options), region_(region),
      input_region_(region) {
  OLP_CHECK(opt_.min_layer >= 0 && opt_.max_layer < tech::kNumRoutingLayers &&
                opt_.min_layer <= opt_.max_layer,
            "bad layer range");
  const geom::Coord halo = geom::to_nm(kGcellSize);
  region_ = geom::Rect{region.x_lo - halo, region.y_lo - halo,
                       region.x_hi + halo, region.y_hi + halo};
  const double w = geom::to_meters(region_.width());
  const double h = geom::to_meters(region_.height());
  nx_ = std::max(2, static_cast<int>(std::ceil(w / kGcellSize)) + 1);
  ny_ = std::max(2, static_cast<int>(std::ceil(h / kGcellSize)) + 1);
  nl_ = tech::kNumRoutingLayers;
  usage_x_.assign(static_cast<std::size_t>(nx_ * ny_ * nl_), 0);
  usage_y_.assign(static_cast<std::size_t>(nx_ * ny_ * nl_), 0);
}

bool GlobalRouter::layer_horizontal(int l) const {
  return tech_.metals[static_cast<std::size_t>(l)].horizontal;
}

void GlobalRouter::set_diagnostics(DiagnosticsSink* sink) {
  diag_ = sink;
  if (fallback_) fallback_->set_diagnostics(sink);
}

void GlobalRouter::set_budget(Budget* budget) {
  budget_ = budget;
  if (fallback_) fallback_->set_budget(budget);
}

std::pair<int, int> GlobalRouter::snap(geom::Point p) const {
  int gx = static_cast<int>(
      std::llround(geom::to_meters(p.x - region_.x_lo) / kGcellSize));
  int gy = static_cast<int>(
      std::llround(geom::to_meters(p.y - region_.y_lo) / kGcellSize));
  gx = std::clamp(gx, 0, nx_ - 1);
  gy = std::clamp(gy, 0, ny_ - 1);
  return {gx, gy};
}

NetRoute GlobalRouter::route(const std::string& net_name,
                             const std::vector<geom::Point>& pins) {
  obs::Span span("router.net", [&] { return net_name; });
  obs::counter_add("router.nets");
  NetRoute primary = attempt(net_name, pins);
  if (primary.routed) {
    obs::record("router.net_length_um", primary.total_length() * 1e6);
    return primary;
  }

  const bool window_maximal =
      opt_.min_layer == 0 && opt_.max_layer == tech::kNumRoutingLayers - 1;
  if (window_maximal) {
    obs::counter_add("router.unrouted");
    if (diag_) {
      diag_->report(DiagSeverity::kError, "router", net_name,
                    "unrouted and layer window already maximal; giving up");
    }
    return primary;
  }
  // Budget-bounded retry: exhaustion skips the widened-layer fallback; the
  // net stays unrouted and the flow degrades it downstream.
  if (budget_ != nullptr && budget_->check()) {
    obs::counter_add("router.unrouted");
    report_truncation(*budget_, diag_, "router", net_name,
                      "skipping widened-layer retry, net stays unrouted");
    return primary;
  }
  obs::counter_add("router.fallback_retries");

  if (!fallback_) {
    RouterOptions widened = opt_;
    widened.min_layer = 0;
    widened.max_layer = tech::kNumRoutingLayers - 1;
    // Built from the pre-halo region so the fallback grid covers the same
    // area (the ctor re-applies the halo).
    fallback_ = std::make_unique<GlobalRouter>(tech_, input_region_, widened);
    fallback_->set_diagnostics(diag_);
    fallback_->set_budget(budget_);
  }
  if (diag_) {
    diag_->report(DiagSeverity::kWarning, "router", net_name,
                  "unrouted in layers [" + std::to_string(opt_.min_layer) +
                      ", " + std::to_string(opt_.max_layer) +
                      "]; retrying with widened layer window [0, " +
                      std::to_string(tech::kNumRoutingLayers - 1) + "]");
  }
  OLP_WARN << "router: net " << net_name
           << " unrouted; retrying with widened layer window";
  NetRoute widened = fallback_->attempt(net_name, pins);
  if (!widened.routed) {
    obs::counter_add("router.unrouted");
    if (diag_) {
      diag_->report(DiagSeverity::kError, "router", net_name,
                    "unrouted even with widened layer window; giving up");
    }
  } else {
    obs::record("router.net_length_um", widened.total_length() * 1e6);
  }
  return widened;
}

NetRoute GlobalRouter::attempt(const std::string& net_name,
                               const std::vector<geom::Point>& pins) {
  NetRoute result;
  result.net = net_name;
  OLP_CHECK(pins.size() >= 2, "routing needs at least two pins");
  if (FaultInjector::global().should_fail(FaultSite::kRouteFailure)) {
    if (diag_) {
      diag_->report(DiagSeverity::kWarning, "chaos",
                    fault_site_name(FaultSite::kRouteFailure),
                    "injected route failure on net " + net_name);
    }
    return result;
  }

  auto unsnap = [&](int gx, int gy) {
    return geom::Point{
        region_.x_lo + geom::to_nm(gx * kGcellSize),
        region_.y_lo + geom::to_nm(gy * kGcellSize)};
  };

  const int total_nodes = nx_ * ny_ * nl_;
  // Tree membership per (x,y,l) node.
  std::vector<char> in_tree(static_cast<std::size_t>(total_nodes), 0);

  // Seed the tree with the first pin on every allowed layer at its gcell
  // (pins are block ports reachable through a via stack).
  {
    const auto [gx, gy] = snap(pins[0]);
    for (int l = opt_.min_layer; l <= opt_.max_layer; ++l) {
      in_tree[static_cast<std::size_t>(index(gx, gy, l))] = 1;
    }
  }

  struct QEntry {
    double cost;
    int node;
    bool operator<(const QEntry& o) const { return cost > o.cost; }
  };

  for (std::size_t p = 1; p < pins.size(); ++p) {
    // Budget-bounded tree growth: a partial tree is not a usable route (not
    // all pins connected), so the whole net degrades to routed=false.
    if (budget_ != nullptr && budget_->check()) {
      if (diag_) {
        diag_->report(DiagSeverity::kWarning, "router", net_name,
                      budget_->description() + "; net abandoned after " +
                          std::to_string(p - 1) + " of " +
                          std::to_string(pins.size() - 1) +
                          " pin connections");
      }
      result.routed = false;
      return result;
    }
    const auto [sx, sy] = snap(pins[p]);
    // Dijkstra from the pin to any tree node.
    std::vector<double> dist(static_cast<std::size_t>(total_nodes),
                             std::numeric_limits<double>::infinity());
    std::vector<int> prev(static_cast<std::size_t>(total_nodes), -1);
    std::priority_queue<QEntry> queue;
    for (int l = opt_.min_layer; l <= opt_.max_layer; ++l) {
      const int nid = index(sx, sy, l);
      dist[static_cast<std::size_t>(nid)] = 0.0;
      queue.push({0.0, nid});
    }

    int reached = -1;
    while (!queue.empty()) {
      const QEntry top = queue.top();
      queue.pop();
      if (top.cost > dist[static_cast<std::size_t>(top.node)] + 1e-12) continue;
      if (in_tree[static_cast<std::size_t>(top.node)]) {
        reached = top.node;
        break;
      }
      const int l = top.node / (nx_ * ny_);
      const int rem = top.node % (nx_ * ny_);
      const int y = rem / nx_;
      const int x = rem % nx_;

      auto relax = [&](int nid, double edge_cost) {
        const double nd = top.cost + edge_cost;
        if (nd < dist[static_cast<std::size_t>(nid)] - 1e-12) {
          dist[static_cast<std::size_t>(nid)] = nd;
          prev[static_cast<std::size_t>(nid)] = top.node;
          queue.push({nd, nid});
        }
      };

      // Mild preference for lower layers keeps short nets off the thick
      // upper metals (and makes routes deterministic among equal-length
      // alternatives).
      const double layer_bias = 0.02 * l;
      // Wire moves in the preferred direction of the layer.
      if (layer_horizontal(l)) {
        if (x + 1 < nx_) {
          const int over = std::max(
              0, usage_x_[static_cast<std::size_t>(top.node)] + 1 -
                     opt_.edge_capacity);
          relax(index(x + 1, y, l),
                1.0 + layer_bias + opt_.congestion_cost * over);
        }
        if (x > 0) {
          const int from = index(x - 1, y, l);
          const int over = std::max(
              0, usage_x_[static_cast<std::size_t>(from)] + 1 -
                     opt_.edge_capacity);
          relax(from, 1.0 + layer_bias + opt_.congestion_cost * over);
        }
      } else {
        if (y + 1 < ny_) {
          const int over = std::max(
              0, usage_y_[static_cast<std::size_t>(top.node)] + 1 -
                     opt_.edge_capacity);
          relax(index(x, y + 1, l),
                1.0 + layer_bias + opt_.congestion_cost * over);
        }
        if (y > 0) {
          const int from = index(x, y - 1, l);
          const int over = std::max(
              0, usage_y_[static_cast<std::size_t>(from)] + 1 -
                     opt_.edge_capacity);
          relax(from, 1.0 + layer_bias + opt_.congestion_cost * over);
        }
      }
      // Via moves.
      if (l + 1 <= opt_.max_layer) relax(index(x, y, l + 1), kViaCost);
      if (l - 1 >= opt_.min_layer) relax(index(x, y, l - 1), kViaCost);
    }

    if (reached < 0) {
      if (diag_) {
        diag_->report(DiagSeverity::kWarning, "router", net_name,
                      "no path to pin " + std::to_string(p) + " within layers [" +
                          std::to_string(opt_.min_layer) + ", " +
                          std::to_string(opt_.max_layer) + "]");
      }
      result.routed = false;
      return result;
    }

    // Trace back, emitting segments and marking tree membership + usage.
    int node = reached;
    while (node >= 0) {
      in_tree[static_cast<std::size_t>(node)] = 1;
      const int pnode = prev[static_cast<std::size_t>(node)];
      if (pnode >= 0) {
        const int l1 = node / (nx_ * ny_);
        const int r1 = node % (nx_ * ny_);
        const int l2 = pnode / (nx_ * ny_);
        const int r2 = pnode % (nx_ * ny_);
        const int y1 = r1 / nx_, x1 = r1 % nx_;
        const int y2 = r2 / nx_, x2 = r2 % nx_;
        if (l1 != l2) {
          ++result.vias;
        } else {
          RouteSegment seg;
          seg.layer = tech::metal_layer(l1);
          seg.a = unsnap(x1, y1);
          seg.b = unsnap(x2, y2);
          result.segments.push_back(seg);
          // Update usage on the traversed edge (stored at the lower node).
          if (x1 != x2) {
            const int lo = index(std::min(x1, x2), y1, l1);
            usage_x_[static_cast<std::size_t>(lo)] += 1;
          } else if (y1 != y2) {
            const int lo = index(x1, std::min(y1, y2), l1);
            usage_y_[static_cast<std::size_t>(lo)] += 1;
          }
        }
      }
      node = pnode;
    }
  }

  // Each pin connects to the grid through a via stack; account one via per
  // pin for the stack from the pin layer (M2) to the routing layer range.
  result.vias += static_cast<int>(pins.size());
  result.routed = true;
  return result;
}

double GlobalRouter::congestion_ratio() const {
  long over = 0;
  long total = 0;
  for (int v : usage_x_) {
    total += 1;
    if (v >= opt_.edge_capacity) ++over;
  }
  for (int v : usage_y_) {
    total += 1;
    if (v >= opt_.edge_capacity) ++over;
  }
  return total > 0 ? static_cast<double>(over) / static_cast<double>(total)
                   : 0.0;
}

}  // namespace olp::route
