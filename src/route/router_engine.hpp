#pragma once
// Pluggable routing backends over one GlobalRouter.
//
// GlobalRouter::route(net, pins, RouteRequest) answers "route THIS net";
// a RouterEngine answers "route ALL the nets" — net ordering and global
// congestion negotiation live here, selected the same way
// FlowEngine::run(FlowMode) selects a flow. Three sibling backends:
//
//   kClassic      serial net order, classic heap Dijkstra, widened-layer
//                 fallback per net. Byte-identical to the historic serial
//                 router — the default-mode goldens pin this trajectory.
//   kFast         same serial orchestration, but each net runs the fast
//                 core (pattern candidates, bucket-queue A*/bidirectional
//                 search). Same greedy quality characteristics, much less
//                 work per net; its own golden.
//   kNegotiated   PathFinder-style rip-up-and-reroute on the fast core:
//                 every edge carries an accumulated history cost plus a
//                 present-congestion factor that grows each iteration, so
//                 persistent overflow becomes unaffordable and nets
//                 negotiate detours instead of piling onto the same edges.
//                 Deterministic net order per iteration, bounded
//                 iterations, best-so-far (min overflow, then wirelength)
//                 salvage under Budget. The only backend that can DRIVE
//                 OVERFLOW TO ZERO on workloads where greedy net-order
//                 routing cannot.
//
// Every backend routes on the calling thread. Selection:
// FlowOptions::router, or OLP_ROUTER=classic|fast|negotiated at FlowEngine
// construction (util/env precedence). Budget and diagnostics flow through
// the GlobalRouter the engine wraps.

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "route/global_router.hpp"

namespace olp::route {

/// One net to route: name + pin locations (nm), in net order.
struct NetPins {
  std::string name;
  std::vector<geom::Point> pins;
};

enum class RouterBackend {
  kClassic,
  kFast,
  kNegotiated,
};

/// Stable lowercase name ("classic", "fast", "negotiated") —
/// the OLP_ROUTER vocabulary and the BENCH_route.json backend key.
const char* router_backend_name(RouterBackend backend);

/// Inverse of router_backend_name; empty for unknown names.
std::optional<RouterBackend> parse_router_backend(std::string_view name);

struct RouterEngineOptions {
  RouterBackend backend = RouterBackend::kClassic;
  /// Negotiated backend: max rip-up-and-reroute passes after the initial
  /// greedy pass. The loop exits early the moment overflow reaches zero.
  int negotiation_iterations = 16;
};

/// One routing backend bound to a GlobalRouter. Engines are cheap to build
/// (the grid lives in the router); construct per routing stage.
class RouterEngine {
 public:
  virtual ~RouterEngine() = default;
  virtual RouterBackend backend() const = 0;
  /// Routes all nets in net order and returns one NetRoute per net,
  /// index-aligned with `nets`. Unroutable or budget-skipped nets come back
  /// routed=false; the caller decides how to degrade them.
  virtual std::vector<NetRoute> route_nets(
      const std::vector<NetPins>& nets) = 0;
};

/// Builds the backend selected by `options.backend`.
std::unique_ptr<RouterEngine> make_router_engine(
    GlobalRouter& router, RouterEngineOptions options = {});

}  // namespace olp::route
