#include "route/router_engine.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/budget.hpp"
#include "util/diag.hpp"
#include "util/obs.hpp"

namespace olp::route {

const char* router_backend_name(RouterBackend backend) {
  switch (backend) {
    case RouterBackend::kClassic:
      return "classic";
    case RouterBackend::kFast:
      return "fast";
    case RouterBackend::kNegotiated:
      return "negotiated";
  }
  return "unknown";
}

std::optional<RouterBackend> parse_router_backend(std::string_view name) {
  if (name == "classic") return RouterBackend::kClassic;
  if (name == "fast") return RouterBackend::kFast;
  if (name == "negotiated") return RouterBackend::kNegotiated;
  return std::nullopt;
}

namespace {

/// Negotiated backend: growth of the present-congestion factor per
/// iteration, and its cap (the cap keeps quantized edge costs bounded).
constexpr double kPresentGrowth = 1.6;
constexpr double kPresentCap = 64.0;

/// Serial net-order routing through the full-service per-net entry. With
/// fast=false this is EXACTLY the historic flow loop (budget check before
/// each net, skipped nets come back routed=false with only the name set),
/// so the classic backend preserves the default-mode goldens byte for
/// byte; fast=true swaps in the pattern + bucket-queue core per net.
class SerialEngine : public RouterEngine {
 public:
  SerialEngine(GlobalRouter& router, bool fast)
      : router_(router), fast_(fast) {}

  RouterBackend backend() const override {
    return fast_ ? RouterBackend::kFast : RouterBackend::kClassic;
  }

  std::vector<NetRoute> route_nets(
      const std::vector<NetPins>& nets) override {
    Budget* budget = router_.budget();
    std::vector<NetRoute> routes(nets.size());
    for (std::size_t i = 0; i < nets.size(); ++i) {
      // Budget-bounded routing: remaining nets are skipped (routed=false)
      // and degrade downstream; nets routed before the trip are kept —
      // the salvaged routed subset.
      if (budget != nullptr && budget->check()) {
        routes[i].net = nets[i].name;
        continue;
      }
      RouteRequest request;
      request.with_fallback = true;
      request.fast = fast_;
      routes[i] = router_.route(nets[i].name, nets[i].pins, request);
    }
    return routes;
  }

 private:
  GlobalRouter& router_;
  bool fast_;
};

/// PathFinder-style negotiated congestion on the fast core.
///
/// Iteration 0 routes every net greedily (fast core, no fallback — the
/// fallback grid cannot participate in negotiation). While overflow
/// remains, each pass grows the present-congestion factor, folds the
/// current overflow into per-edge history, then rips up and reroutes every
/// net in deterministic net order against the shaped costs. The
/// best-so-far solution (min overflow, then min wirelength) is snapshotted
/// each pass and restored at the end, so a budget trip or the iteration
/// cap still salvages the best state seen. Nets that remain unrouted after
/// negotiation get the widened-layer fallback retry.
class NegotiatedEngine : public RouterEngine {
 public:
  NegotiatedEngine(GlobalRouter& router, const RouterEngineOptions& options)
      : router_(router), opt_(options) {}

  RouterBackend backend() const override {
    return RouterBackend::kNegotiated;
  }

  std::vector<NetRoute> route_nets(
      const std::vector<NetPins>& nets) override {
    Budget* budget = router_.budget();
    DiagnosticsSink* diag = router_.diagnostics();
    NegotiationCosts costs;
    costs.history_x.assign(router_.edge_array_size(), 0);
    costs.history_y.assign(router_.edge_array_size(), 0);
    costs.present_factor = 1.0;
    const long long history_units =
        std::llround(router_.options().congestion_cost * 100.0);

    RouteRequest request;
    request.fast = true;
    request.negotiation = &costs;

    // Pass 0: greedy initial solution, with the same per-net envelope the
    // other serial backends emit.
    std::vector<NetRoute> routes(nets.size());
    for (std::size_t i = 0; i < nets.size(); ++i) {
      if (budget != nullptr && budget->check()) {
        routes[i].net = nets[i].name;
        continue;
      }
      obs::Span span("router.net", [&] { return nets[i].name; });
      obs::counter_add("router.nets");
      routes[i] = router_.route(nets[i].name, nets[i].pins, request);
      if (routes[i].routed) {
        obs::record("router.net_length_um", routes[i].total_length() * 1e6);
      }
    }

    auto wirelength = [&] {
      double total = 0.0;
      for (const NetRoute& r : routes) total += r.total_length();
      return total;
    };

    long cur_over = router_.total_overflow();
    std::vector<NetRoute> best = routes;
    long best_over = cur_over;
    double best_len = wirelength();
    bool current_is_best = true;

    int iterations = 0;
    for (int iter = 1;
         iter <= opt_.negotiation_iterations && cur_over > 0; ++iter) {
      if (budget != nullptr && budget->check()) {
        if (diag != nullptr) {
          diag->report(DiagSeverity::kWarning, "router", "negotiation",
                       budget->description() +
                           "; salvaging best-so-far solution after " +
                           std::to_string(iterations) + " negotiation passes");
        }
        obs::counter_add("budget.truncations");
        break;
      }
      ++iterations;
      obs::counter_add("router.negotiate.iterations");
      // Persistent overflow gets more expensive on two clocks: the history
      // term remembers every past overflowed pass, the present factor makes
      // crossing a currently-full edge dearer this pass.
      router_.accumulate_history(costs, history_units);
      costs.present_factor =
          std::min(kPresentCap, costs.present_factor * kPresentGrowth);

      for (std::size_t i = 0; i < nets.size(); ++i) {
        if (routes[i].routed) router_.rip_up(routes[i]);
        obs::counter_add("router.negotiate.reroutes");
        NetRoute rerouted =
            router_.route(nets[i].name, nets[i].pins, request);
        if (!rerouted.routed && routes[i].routed) {
          // A failed reroute (chaos injection, budget trip mid-net) must
          // not lose a previously good route: put the old one back.
          router_.commit(routes[i]);
        } else {
          routes[i] = std::move(rerouted);
        }
      }
      current_is_best = false;

      cur_over = router_.total_overflow();
      const double cur_len = wirelength();
      if (cur_over < best_over ||
          (cur_over == best_over && cur_len < best_len)) {
        best = routes;
        best_over = cur_over;
        best_len = cur_len;
        current_is_best = true;
      }
    }

    // Restore the best-so-far solution (routes AND the congestion grid, so
    // congestion_ratio()/total_overflow() describe what we return).
    if (!current_is_best) {
      for (const NetRoute& r : routes) {
        if (r.routed) router_.rip_up(r);
      }
      for (const NetRoute& r : best) {
        if (r.routed) router_.commit(r);
      }
      routes = std::move(best);
    }
    obs::record("router.negotiate.final_overflow",
                static_cast<double>(best_over));

    // Cleanup: anything still unrouted (layer window too tight for the
    // primary grid) gets the classic full-service retry, in net order.
    for (std::size_t i = 0; i < nets.size(); ++i) {
      if (routes[i].routed) continue;
      if (budget != nullptr && budget->check()) continue;
      RouteRequest fallback_request;
      fallback_request.with_fallback = true;
      fallback_request.fast = true;
      routes[i] =
          router_.route(nets[i].name, nets[i].pins, fallback_request);
    }
    return routes;
  }

 private:
  GlobalRouter& router_;
  RouterEngineOptions opt_;
};

}  // namespace

std::unique_ptr<RouterEngine> make_router_engine(
    GlobalRouter& router, RouterEngineOptions options) {
  switch (options.backend) {
    case RouterBackend::kClassic:
      return std::make_unique<SerialEngine>(router, /*fast=*/false);
    case RouterBackend::kFast:
      return std::make_unique<SerialEngine>(router, /*fast=*/true);
    case RouterBackend::kNegotiated:
      return std::make_unique<NegotiatedEngine>(router, options);
  }
  return std::make_unique<SerialEngine>(router, /*fast=*/false);
}

}  // namespace olp::route
