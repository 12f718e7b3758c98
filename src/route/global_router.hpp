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
// Entry point: ONE call, route(net, pins, RouteRequest). The request selects
// the widened-layer fallback retry, the search core (classic Dijkstra vs. the
// pattern + A*/bidirectional fast core), and optional negotiated-congestion
// cost shaping. Every search runs on the full grid. Backend-level
// orchestration (net order, rip-up-and-reroute) lives one level up in
// route/router_engine.hpp.

#include <map>
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
  double gcell_size = 200e-9;  ///< grid pitch [m]
  int min_layer = 2;           ///< lowest routing metal index (0 = M1); the
                               ///< paper's global routes run on M3 and up
  int max_layer = 4;           ///< highest routing metal index
  double via_cost = 2.0;       ///< in units of gcell steps
  double congestion_cost = 4.0;///< extra cost per unit overflow
  int edge_capacity = 8;       ///< tracks per gcell edge per layer
};

/// Per-edge negotiated-congestion state (PathFinder-style), owned by the
/// negotiated router engine and consulted by the fast search core. Arrays
/// are indexed exactly like the router's usage grids (one slot per node per
/// direction); costs are in quantized search units (see search.cpp).
struct NegotiationCosts {
  std::vector<long long> history_x;  ///< accumulated past-overflow cost, +x edges
  std::vector<long long> history_y;  ///< accumulated past-overflow cost, +y edges
  /// Multiplies the present congestion term: grows every negotiation
  /// iteration so persistent overflow becomes unaffordable.
  double present_factor = 1.0;
};

/// Everything one route(...) call needs beyond the net and its pins. The
/// defaults reproduce the historic bare route(): classic search, no retry,
/// no instrumentation envelope.
struct RouteRequest {
  /// Full-service per-net entry: wraps
  /// the attempt in the "router.net" span + router.* counters and, when the
  /// primary attempt fails and the layer window is not already maximal,
  /// retries once on a fallback grid widened to every routing layer. A net
  /// that still fails carries an error diagnostic. Budget exhaustion skips
  /// the retry.
  bool with_fallback = false;
  /// Use the fast search core: L/Z pattern candidates first (see
  /// `patterns`), then goal-directed A* — bidirectional Dijkstra for
  /// small-tree connections — on a bucket (Dial) priority queue with
  /// integer-quantized costs. A different (still deterministic) trajectory
  /// than the classic heap Dijkstra; backends using it carry their own
  /// goldens. false = the byte-identical classic search.
  bool fast = false;
  /// (fast only) Try straight/L/Z pattern candidates before full search for
  /// short connections; a pattern is accepted only when congestion-free and
  /// within a provable-optimality slack, so quality never degrades below
  /// the search result by more than the documented bound.
  bool patterns = true;
  /// (fast only) Negotiated-congestion cost shaping: history + present-cost
  /// terms added to every edge. Not owned, may be null; arrays must match
  /// this router's grid (GlobalRouter::edge_array_size).
  const NegotiationCosts* negotiation = nullptr;
};

/// Grid-based global router for a fixed region.
class GlobalRouter {
 public:
  /// `region` is the placement bounding box in nm (expanded internally by
  /// one gcell of halo).
  GlobalRouter(const tech::Technology& technology, geom::Rect region,
               RouterOptions options = {});
  ~GlobalRouter();

  /// THE routing entry point. Routes a net over the given pin locations
  /// (nm) as described by `request`; updates congestion so later nets avoid
  /// used edges. Pins are snapped to the nearest gcell.
  NetRoute route(const std::string& net_name,
                 const std::vector<geom::Point>& pins,
                 const RouteRequest& request);

  /// Attaches a diagnostics sink (may be null to detach); the sink must
  /// outlive the router.
  void set_diagnostics(DiagnosticsSink* sink);

  /// Attaches an execution budget (may be null to detach). Exhaustion stops
  /// per-pin tree growth (the net is reported routed=false) and skips the
  /// widened-layer fallback retry.
  void set_budget(Budget* budget);

  /// The attached sink/budget (may be null) — router engines orchestrating
  /// many route() calls share them instead of carrying their own.
  DiagnosticsSink* diagnostics() const { return diag_; }
  Budget* budget() const { return budget_; }

  /// Removes a previously routed net's wire usage from the congestion grid
  /// (negotiated rip-up). Only routes produced by THIS router may be ripped
  /// up; segments are walked gcell by gcell, so both per-step (classic) and
  /// per-leg (pattern) segment granularities work.
  void rip_up(const NetRoute& route);

  /// Re-applies a route's wire usage (restoring a salvaged best-so-far
  /// solution after negotiation).
  void commit(const NetRoute& route);

  /// Sum over all edges of max(0, usage - capacity): the negotiation
  /// objective. Zero means every edge fits its tracks.
  long total_overflow() const;

  /// PathFinder history accumulation: adds `units` x overflow to the
  /// history of every currently overflowing edge. `costs` arrays must be
  /// sized edge_array_size().
  void accumulate_history(NegotiationCosts& costs, long long units) const;

  /// Fraction of edges at or above capacity.
  double congestion_ratio() const;

  /// Size of the per-direction edge arrays (for NegotiationCosts sizing).
  std::size_t edge_array_size() const { return usage_x_.size(); }

  int width() const { return nx_; }
  int height() const { return ny_; }
  int layers() const { return nl_; }
  const RouterOptions& options() const { return opt_; }

 private:
  struct FastScratch;  // search.cpp: stamped dist/prev arrays + bucket queues
  struct FastScratchDeleter {
    // Out of line (search.cpp) so FastScratch can stay incomplete here.
    void operator()(FastScratch* scratch) const;
  };

  int index(int x, int y, int l) const { return (l * ny_ + y) * nx_ + x; }
  bool layer_horizontal(int l) const;
  std::pair<int, int> snap(geom::Point p) const;
  /// Layer index of a metal layer (inverse of tech::metal_layer).
  int layer_index(tech::Layer layer) const;

  /// Shared preamble (chaos draw, pin count check) + core dispatch.
  NetRoute route_core(const std::string& net_name,
                      const std::vector<geom::Point>& pins,
                      const RouteRequest& request);
  /// The classic per-net heap Dijkstra (byte-identical to the seed router).
  NetRoute route_classic(const std::string& net_name,
                         const std::vector<geom::Point>& pins);
  /// The fast core (search.cpp): patterns + A*/bidirectional on buckets.
  NetRoute route_fast(const std::string& net_name,
                      const std::vector<geom::Point>& pins,
                      const RouteRequest& request);
  /// Walks a route's segments applying `delta` to the traversed edges.
  void apply_usage(const NetRoute& route, int delta);

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
  /// Lazily created fast-core scratch (search.cpp).
  std::unique_ptr<FastScratch, FastScratchDeleter> fast_;
};

}  // namespace olp::route
