#include "core/port_optimizer.hpp"

#include <algorithm>
#include <limits>
#include <set>

#include "util/budget.hpp"
#include "util/diag.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/obs.hpp"
#include "util/task_pool.hpp"

namespace olp::core {

extract::WireRc route_wire_rc(const tech::Technology& t,
                              const route::NetRoute& route, int parallel) {
  OLP_CHECK(parallel >= 1, "parallel route count must be >= 1");
  extract::WireRc rc;
  for (const route::RouteSegment& seg : route.segments) {
    rc.resistance += t.wire_res(seg.layer, seg.length(), parallel);
    rc.capacitance += t.wire_cap(seg.layer, seg.length(), parallel);
  }
  // Parallel routes use parallel via stacks as well (the paper's gridded
  // effective-width trick applies to wires and vias alike).
  rc.resistance +=
      t.via_res * static_cast<double>(route.vias) / static_cast<double>(parallel);
  rc.capacitance += t.via_cap * static_cast<double>(route.vias) *
                    static_cast<double>(parallel);
  return rc;
}

WireInterval interval_from_curve(const std::vector<double>& costs,
                                 double plateau_tolerance) {
  OLP_CHECK(!costs.empty(), "empty cost curve");
  const double min_cost = *std::min_element(costs.begin(), costs.end());
  const double ceiling = min_cost * (1.0 + plateau_tolerance);
  std::size_t lo = 0;
  while (lo < costs.size() && costs[lo] > ceiling) ++lo;
  OLP_ASSERT(lo < costs.size(), "plateau search failed");
  std::size_t hi = costs.size() - 1;
  while (hi > lo && costs[hi] > ceiling) --hi;
  WireInterval iv;
  iv.lo = static_cast<int>(lo) + 1;
  // When the plateau extends to the end of the explored range no cost
  // increase was observed: the upper bound is unbounded (paper Sec. III-B1).
  if (hi == costs.size() - 1) {
    iv.hi.reset();
  } else {
    iv.hi = static_cast<int>(hi) + 1;
  }
  return iv;
}

double PortOptimizer::primitive_cost(
    const PortOptPrimitive& primitive,
    const std::map<std::string, int>& net_wires) const {
  OLP_CHECK(primitive.evaluator && primitive.layout,
            "port optimizer primitive is incomplete");
  EvalCondition cond;
  cond.ideal = false;
  cond.tuning = primitive.tuning;
  // Per-port parallel-route counts, with symmetric port pairs forced to the
  // same count (the detailed router keeps those routes symmetric, so the
  // sweep must widen both sides together).
  std::map<std::string, int> port_count;
  for (const PortRoute& pr : primitive.routes) {
    int wires = 1;
    if (auto it = net_wires.find(pr.circuit_net); it != net_wires.end()) {
      wires = it->second;
    }
    port_count[pr.port] = wires;
  }
  for (const auto& [pa, pb] : primitive.layout->netlist.symmetric_ports) {
    const auto ia = port_count.find(pa);
    const auto ib = port_count.find(pb);
    if (ia == port_count.end() || ib == port_count.end()) continue;
    const int w = std::max(ia->second, ib->second);
    ia->second = w;
    ib->second = w;
  }
  for (const PortRoute& pr : primitive.routes) {
    cond.port_wires[pr.port] =
        route_wire_rc(tech_, pr.route, port_count.at(pr.port));
  }
  const MetricValues values = primitive.evaluator->evaluate(*primitive.layout, cond);

  EvalCondition ideal;
  ideal.ideal = true;
  const MetricValues reference =
      primitive.evaluator->evaluate(*primitive.layout, ideal);
  const MetricLibraryEntry lib =
      metric_library(primitive.layout->netlist.type);
  const double offset_spec =
      0.1 * primitive.evaluator->random_offset_sigma(*primitive.layout);
  return compute_cost(lib.metrics, reference, values, offset_spec).total;
}

std::vector<PortConstraint> PortOptimizer::generate_constraints(
    const PortOptPrimitive& primitive) const {
  obs::Span span("portopt.constraints", [&] { return primitive.instance; });
  // Nets touched by this primitive's ports.
  std::set<std::string> nets;
  for (const PortRoute& pr : primitive.routes) nets.insert(pr.circuit_net);

  std::vector<PortConstraint> constraints;
  bool truncated = false;
  for (const std::string& net : nets) {
    // The sweep points are independent: evaluate them through the pool and
    // merge the contiguous explored prefix in wire order. A budget trip
    // leaves a hole; the prefix before it still yields a valid constraint
    // (plateau over the explored range) — same as the serial break.
    const std::size_t n = static_cast<std::size_t>(options_.max_wires);
    std::vector<double> costs(n, 0.0);
    std::vector<char> have(n, 0);
    run_indexed(pool_, n, [&](std::size_t k) {
      if (budget_ != nullptr && budget_->check()) return false;
      std::map<std::string, int> net_wires;
      net_wires[net] = static_cast<int>(k) + 1;  // other nets at one route
      obs::counter_add("portopt.sweep_points");
      costs[k] = primitive_cost(primitive, net_wires);
      have[k] = 1;
      return true;
    });
    std::vector<double> curve;
    for (std::size_t k = 0; k < n; ++k) {
      if (!have[k]) {
        truncated = true;
        break;
      }
      curve.push_back(costs[k]);
    }
    // Exhausted before any sweep point: no constraint for this net; the
    // realization falls back to the single-route default.
    if (curve.empty()) continue;
    PortConstraint pc;
    pc.instance = primitive.instance;
    pc.circuit_net = net;
    pc.interval = interval_from_curve(curve, kPlateauTolerance);
    pc.cost_curve = std::move(curve);
    constraints.push_back(std::move(pc));
  }
  if (truncated) {
    obs::counter_add("budget.truncations");
    if (diag_) {
      diag_->report(DiagSeverity::kWarning, "portopt", primitive.instance,
                    budget_->description() + "; port-wire sweep truncated, " +
                        std::to_string(constraints.size()) + " of " +
                        std::to_string(nets.size()) +
                        " nets constrained from explored prefixes");
    }
  }
  return constraints;
}

std::vector<NetWireDecision> PortOptimizer::reconcile(
    const std::vector<PortOptPrimitive>& primitives,
    const std::vector<PortConstraint>& constraints) const {
  obs::Span span("portopt.reconcile");
  // Group constraints per net.
  std::map<std::string, std::vector<const PortConstraint*>> by_net;
  for (const PortConstraint& pc : constraints) {
    by_net[pc.circuit_net].push_back(&pc);
  }

  std::vector<NetWireDecision> decisions;
  for (const auto& [net, pcs] : by_net) {
    std::vector<WireInterval> intervals;
    intervals.reserve(pcs.size());
    for (const PortConstraint* pc : pcs) intervals.push_back(pc->interval);
    const IntervalReconciliation rec = olp::reconcile(intervals);

    obs::counter_add("portopt.reconciliations");
    NetWireDecision d;
    d.circuit_net = net;
    if (rec.overlap) {
      d.parallel_routes = rec.chosen;
      d.from_overlap = true;
    } else {
      obs::counter_add("portopt.gap_resimulated");
      // Simulate all primitives on this net across the gap range and pick
      // the total-cost minimizer (Algorithm 2 lines 13-14).
      d.from_overlap = false;
      // Gap points are independent: evaluate them through the pool, then
      // take the strict-< argmin over the contiguous explored prefix — the
      // same "keep the best count found so far" the serial break produced
      // (best_w starts at the feasible gap_lo).
      const std::size_t gap_n =
          static_cast<std::size_t>(rec.gap_hi - rec.gap_lo + 1);
      std::vector<double> totals(gap_n, 0.0);
      std::vector<char> have(gap_n, 0);
      run_indexed(pool_, gap_n, [&](std::size_t k) {
        if (budget_ != nullptr && budget_->check()) return false;
        const int w = rec.gap_lo + static_cast<int>(k);
        double total = 0.0;
        for (const PortOptPrimitive& prim : primitives) {
          bool touches = false;
          for (const PortRoute& pr : prim.routes) {
            if (pr.circuit_net == net) {
              touches = true;
              break;
            }
          }
          if (!touches) continue;
          std::map<std::string, int> net_wires;
          net_wires[net] = w;
          total += primitive_cost(prim, net_wires);
        }
        totals[k] = total;
        have[k] = 1;
        return true;
      });
      double best_cost = std::numeric_limits<double>::infinity();
      int best_w = rec.gap_lo;
      for (std::size_t k = 0; k < gap_n; ++k) {
        if (!have[k]) {
          obs::counter_add("budget.truncations");
          if (diag_) {
            diag_->report(DiagSeverity::kWarning, "portopt", net,
                          budget_->description() +
                              "; gap re-simulation truncated at w=" +
                              std::to_string(rec.gap_lo + static_cast<int>(k)));
          }
          break;
        }
        if (totals[k] < best_cost) {
          best_cost = totals[k];
          best_w = rec.gap_lo + static_cast<int>(k);
        }
      }
      d.parallel_routes = best_w;
    }
    obs::record("portopt.decision_wires",
                static_cast<double>(d.parallel_routes));
    decisions.push_back(d);
  }
  return decisions;
}

std::vector<NetWireDecision> PortOptimizer::optimize(
    const std::vector<PortOptPrimitive>& primitives) const {
  std::vector<PortConstraint> constraints;
  for (const PortOptPrimitive& prim : primitives) {
    std::vector<PortConstraint> pcs = generate_constraints(prim);
    constraints.insert(constraints.end(), pcs.begin(), pcs.end());
  }
  return reconcile(primitives, constraints);
}

}  // namespace olp::core
