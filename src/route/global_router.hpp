#pragma once
// Global routing over a g-cell grid.
//
// The router works on a 3D grid (x, y, metal layer) with per-layer preferred
// directions, via costs, and soft congestion penalties. Multi-pin nets are
// routed incrementally: each additional pin is connected to the partial tree
// by a search whose target is the entire tree (so Steiner points emerge
// naturally — paper Sec. III-B1 requires Steiner-aware routes).
//
// Output per net: the wire segments (layer + endpoints), total length per
// layer and via count — exactly the information primitive port optimization
// consumes ("distance, layer and via information provided by the global
// router").
//
// Entry point: route(net, pins). The search is a binary-heap Dijkstra with
// no randomness, so a net's route depends only on its pins and on the nets
// routed before it.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "geom/geometry.hpp"
#include "tech/technology.hpp"

namespace olp {
class Budget;
class DiagnosticsSink;
}

namespace olp::route {

/// One straight routed segment on a metal layer (endpoints in nm).
struct RouteSegment {
  tech::Layer layer = tech::Layer::kM1;
  geom::Point a;
  geom::Point b;
  /// Segment length [m].
  double length() const { return geom::to_meters(geom::manhattan(a, b)); }
};

/// The routed tree of one net.
struct NetRoute {
  std::string net;
  std::vector<RouteSegment> segments;
  int vias = 0;
  bool routed = false;

  /// Total wire length on one layer [m].
  double length_on(tech::Layer layer) const;
  /// Total wire length across layers [m].
  double total_length() const;
  /// Layer carrying the most wirelength (the paper quotes routes as
  /// "on metal 3, 2 um long"); defaults to M3 for empty routes.
  tech::Layer dominant_layer() const;
};

struct RouterOptions {
  int min_layer = 2;           ///< lowest routing metal index (0 = M1); the
                               ///< paper's global routes run on M3 and up
  int max_layer = 4;           ///< highest routing metal index
  double congestion_cost = 4.0;///< extra cost per unit overflow
  int edge_capacity = 8;       ///< tracks per gcell edge per layer
};

/// Grid-based global router for a fixed region.
class GlobalRouter {
 public:
  /// `region` is the placement bounding box in nm (expanded internally by
  /// one gcell of halo).
  GlobalRouter(const tech::Technology& technology, geom::Rect region,
               RouterOptions options = {});

  /// Routes a net over the given pin locations (nm) and updates congestion
  /// so later nets avoid used edges. Pins are snapped to the nearest gcell.
  /// The call runs inside a "router.net" span and counts "router.*". When
  /// the attempt on the configured layer window fails and that window is
  /// not already every routing layer, the net is retried once on a grid
  /// widened to every routing layer. A net that still fails, or whose retry
  /// the budget skipped, comes back routed=false with a diagnostic.
  NetRoute route(const std::string& net_name,
                 const std::vector<geom::Point>& pins);

  /// Attaches a diagnostics sink (may be null to detach); the sink must
  /// outlive the router.
  void set_diagnostics(DiagnosticsSink* sink);

  /// Attaches an execution budget (may be null to detach). It is checked
  /// before each pin connection, in the widened-layer retry too; exhaustion
  /// abandons the net (routed=false) and skips a retry not yet started.
  void set_budget(Budget* budget);

  /// Fraction of edges at or above capacity.
  double congestion_ratio() const;

 private:
  int index(int x, int y, int l) const { return (l * ny_ + y) * nx_ + x; }
  bool layer_horizontal(int l) const;
  std::pair<int, int> snap(geom::Point p) const;

  /// One attempt on this grid's layer window: the route-failure fault
  /// draw, then the connect-to-tree Dijkstra for each pin after the first.
  NetRoute attempt(const std::string& net_name,
                   const std::vector<geom::Point>& pins);

  const tech::Technology& tech_;
  RouterOptions opt_;
  geom::Rect region_;
  /// The caller's region before halo expansion (seed for the fallback grid,
  /// which must not apply the halo twice).
  geom::Rect input_region_;
  int nx_ = 0, ny_ = 0, nl_ = 0;
  /// Usage per directed grid edge, stored per node per direction
  /// (0:+x, 1:+y); via usage is not capacity-limited.
  std::vector<int> usage_x_;
  std::vector<int> usage_y_;
  DiagnosticsSink* diag_ = nullptr;
  Budget* budget_ = nullptr;
  /// Lazily created widened-layer-window router for the fallback retry.
  std::unique_ptr<GlobalRouter> fallback_;
};

}  // namespace olp::route
