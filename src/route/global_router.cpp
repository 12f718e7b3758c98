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
  OLP_CHECK(opt_.gcell_size > 0, "gcell size must be positive");
  OLP_CHECK(opt_.min_layer >= 0 && opt_.max_layer < tech::kNumRoutingLayers &&
                opt_.min_layer <= opt_.max_layer,
            "bad layer range");
  const geom::Coord halo = geom::to_nm(opt_.gcell_size);
  region_ = geom::Rect{region.x_lo - halo, region.y_lo - halo,
                       region.x_hi + halo, region.y_hi + halo};
  const double w = geom::to_meters(region_.width());
  const double h = geom::to_meters(region_.height());
  nx_ = std::max(2, static_cast<int>(std::ceil(w / opt_.gcell_size)) + 1);
  ny_ = std::max(2, static_cast<int>(std::ceil(h / opt_.gcell_size)) + 1);
  nl_ = tech::kNumRoutingLayers;
  usage_x_.assign(static_cast<std::size_t>(nx_ * ny_ * nl_), 0);
  usage_y_.assign(static_cast<std::size_t>(nx_ * ny_ * nl_), 0);
}


bool GlobalRouter::layer_horizontal(int l) const {
  return tech_.metals[static_cast<std::size_t>(l)].horizontal;
}

int GlobalRouter::layer_index(tech::Layer layer) const {
  for (int l = 0; l < nl_; ++l) {
    if (tech::metal_layer(l) == layer) return l;
  }
  OLP_CHECK(false, "segment on a non-routing layer");
  return 0;
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
      std::llround(geom::to_meters(p.x - region_.x_lo) / opt_.gcell_size));
  int gy = static_cast<int>(
      std::llround(geom::to_meters(p.y - region_.y_lo) / opt_.gcell_size));
  gx = std::clamp(gx, 0, nx_ - 1);
  gy = std::clamp(gy, 0, ny_ - 1);
  return {gx, gy};
}

NetRoute GlobalRouter::route(const std::string& net_name,
                             const std::vector<geom::Point>& pins,
                             const RouteRequest& request) {
  if (!request.with_fallback) return route_core(net_name, pins, request);

  // Full-service entry: instrumentation envelope + widened-layer retry.
  obs::Span span("router.net", [&] { return net_name; });
  obs::counter_add("router.nets");
  RouteRequest primary_req = request;
  primary_req.with_fallback = false;
  NetRoute primary = route_core(net_name, pins, primary_req);
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
    obs::counter_add("budget.truncations");
    if (diag_) {
      diag_->report(DiagSeverity::kWarning, "router", net_name,
                    budget_->description() +
                        "; skipping widened-layer retry, net stays unrouted");
    }
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
  // The retry runs on the fallback grid, so the caller's negotiation arrays
  // (sized for THIS grid) do not transfer.
  RouteRequest retry = primary_req;
  retry.negotiation = nullptr;
  NetRoute widened = fallback_->route_core(net_name, pins, retry);
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

NetRoute GlobalRouter::route_core(const std::string& net_name,
                                  const std::vector<geom::Point>& pins,
                                  const RouteRequest& request) {
  NetRoute result;
  result.net = net_name;
  OLP_CHECK(pins.size() >= 2, "routing needs at least two pins");
  if (FaultInjector::global().should_fail(FaultSite::kRouteFailure)) {
    if (diag_) {
      diag_->report(DiagSeverity::kWarning, "chaos",
                    fault_site_name(FaultSite::kRouteFailure),
                    "injected route failure on net " + net_name);
    }
    result.routed = false;
    return result;
  }
  if (request.fast) return route_fast(net_name, pins, request);
  return route_classic(net_name, pins);
}

NetRoute GlobalRouter::route_classic(const std::string& net_name,
                                     const std::vector<geom::Point>& pins) {
  NetRoute result;
  result.net = net_name;

  auto unsnap = [&](int gx, int gy) {
    return geom::Point{
        region_.x_lo + geom::to_nm(gx * opt_.gcell_size),
        region_.y_lo + geom::to_nm(gy * opt_.gcell_size)};
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
      if (l + 1 <= opt_.max_layer) relax(index(x, y, l + 1), opt_.via_cost);
      if (l - 1 >= opt_.min_layer) relax(index(x, y, l - 1), opt_.via_cost);
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

void GlobalRouter::apply_usage(const NetRoute& route, int delta) {
  for (const RouteSegment& s : route.segments) {
    const int l = layer_index(s.layer);
    const auto [x1, y1] = snap(s.a);
    const auto [x2, y2] = snap(s.b);
    if (y1 == y2 && x1 != x2) {
      // Segment endpoints sit on gcell centers (unsnap points), so walking
      // the gcells between them recovers the exact edges the search marked,
      // whether the segment is one step (classic) or a whole leg (pattern).
      for (int x = std::min(x1, x2); x < std::max(x1, x2); ++x) {
        usage_x_[static_cast<std::size_t>(index(x, y1, l))] += delta;
      }
    } else if (x1 == x2 && y1 != y2) {
      for (int y = std::min(y1, y2); y < std::max(y1, y2); ++y) {
        usage_y_[static_cast<std::size_t>(index(x1, y, l))] += delta;
      }
    }
  }
}

void GlobalRouter::rip_up(const NetRoute& route) { apply_usage(route, -1); }

void GlobalRouter::commit(const NetRoute& route) { apply_usage(route, +1); }

void GlobalRouter::accumulate_history(NegotiationCosts& costs,
                                      long long units) const {
  OLP_CHECK(costs.history_x.size() == usage_x_.size() &&
                costs.history_y.size() == usage_y_.size(),
            "negotiation arrays do not match this router's grid");
  for (std::size_t i = 0; i < usage_x_.size(); ++i) {
    const int over = usage_x_[i] - opt_.edge_capacity;
    if (over > 0) costs.history_x[i] += units * over;
  }
  for (std::size_t i = 0; i < usage_y_.size(); ++i) {
    const int over = usage_y_[i] - opt_.edge_capacity;
    if (over > 0) costs.history_y[i] += units * over;
  }
}

long GlobalRouter::total_overflow() const {
  long over = 0;
  for (int v : usage_x_) over += std::max(0, v - opt_.edge_capacity);
  for (int v : usage_y_) over += std::max(0, v - opt_.edge_capacity);
  return over;
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
