// Reproduces Table IV (and exercises Fig. 6): differential pair and passive
// current mirror cost during primitive port optimization.
//
// Setup per the paper: the global routes at the primitive ports are on
// metal 3 and 2 um long; the number of parallel routes is swept and the
// primitive cost re-measured each time. Expected shape: the DP cost curve is
// U-shaped (Gm improves, then Ctotal takes over) giving a bounded interval
// like [3,5]; the mirror's cost keeps (slowly) improving, giving an
// unbounded upper limit. The second half prints the per-net constraints and
// reconciliation for the full 5T OTA (Fig. 6 flow).

#include <iostream>

#include "circuits/experiments.hpp"
#include "core/port_optimizer.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

using namespace olp;

int main() {
  set_log_level(log_level_from_env("OLP_LOG_LEVEL", LogLevel::kError));
  const tech::Technology t = tech::make_default_finfet_tech();
  TextTable table(
      "Table IV: DP and passive CM cost during primitive port optimization\n"
      "(2 um metal-3 routes at the ports; paper: DP interval [3,5], CM\n"
      " monotone with unbounded upper limit)");
  table.set_header({"# wires", "DP dGm", "DP dGm/Ctot", "DP cost", "CM dRatio",
                    "CM dCout", "CM cost"});
  std::vector<double> dp_curve, cm_curve;
  for (const circuits::PortSweepRow& row : circuits::run_port_sweep(t)) {
    table.add_row({std::to_string(row.wires), pct(row.dp_gm),
                   pct(row.dp_gm_over_ctotal), fixed(row.dp_cost, 2),
                   pct(row.cm_current_ratio), pct(row.cm_cout),
                   fixed(row.cm_cost, 2)});
    dp_curve.push_back(row.dp_cost);
    cm_curve.push_back(row.cm_cost);
  }
  std::cout << table;
  std::cout << "\nDP interval "
            << core::interval_from_curve(dp_curve, 0.04).to_string()
            << ", CM interval "
            << core::interval_from_curve(cm_curve, 0.04).to_string()
            << " (paper: [3,5] and unbounded)\n\n";

  // --- Fig. 6 flow: constraints and reconciliation on the full 5T OTA.
  circuits::Ota5T ota(t);
  if (ota.prepare()) {
    circuits::FlowEngine engine(t, {});
    circuits::FlowReport report;
    (void)engine.run(circuits::FlowMode::kOptimize, ota.instances(), ota.routed_nets(), &report);
    TextTable fig6("Fig. 6: Per-net port constraints on the 5T OTA");
    fig6.set_header({"primitive", "net", "interval"});
    for (const core::PortConstraint& pc : report.constraints) {
      fig6.add_row({pc.instance, pc.circuit_net, pc.interval.to_string()});
    }
    std::cout << fig6 << '\n';
    TextTable dec("Reconciled parallel-route decisions");
    dec.set_header({"net", "# routes", "how"});
    for (const core::NetWireDecision& d : report.decisions) {
      dec.add_row({d.circuit_net, std::to_string(d.parallel_routes),
                   d.from_overlap ? "overlap: max(w_min)" : "gap re-simulated"});
    }
    std::cout << dec;
  }
  return 0;
}
