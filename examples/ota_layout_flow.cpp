// End-to-end flow on the high-frequency 5T OTA (the paper's Fig. 6 circuit):
// schematic simulation -> primitive optimization (Algorithm 1) -> placement
// -> global routing -> port optimization (Algorithm 2) -> final comparison
// against the conventional baseline.
//
// Observability: set OLP_TRACE_DIR=<dir> to enable flow tracing. The run
// then writes <dir>/ota_flow.trace.json (Chrome trace-event format — open
// in chrome://tracing or https://ui.perfetto.dev), <dir>/ota_flow.telemetry.json
// (machine-readable FlowTelemetry), per-stage SVG layout snapshots, and
// prints the per-stage timing table. OLP_LOG_LEVEL=debug|info|warn|error|off
// controls log verbosity.
//
// Bounded execution: OLP_DEADLINE_MS=<ms> caps the run's wall-clock time and
// OLP_TESTBENCH_BUDGET=<n> its testbench count. On exhaustion each stage
// salvages its best-so-far result and the run finishes degraded (exit 0)
// with stage-attributed "budget" diagnostics — e.g.
//   OLP_DEADLINE_MS=2000 ./ota_layout_flow

#include <cstdlib>
#include <iostream>
#include <string>

#include "circuits/flow.hpp"
#include "circuits/ota5t.hpp"
#include "util/logging.hpp"
#include "util/obs.hpp"
#include "util/table.hpp"
#include "util/env.hpp"
#include "util/jsonl.hpp"
#include "util/trace_export.hpp"
#include "util/units.hpp"

int main() {
  using namespace olp;
  set_log_level(log_level_from_env("OLP_LOG_LEVEL", LogLevel::kError));
  const tech::Technology t = tech::make_default_finfet_tech();

  const std::string trace_dir = env::str("OLP_TRACE_DIR");
  if (!trace_dir.empty()) obs::Registry::global().enable();

  circuits::Ota5T ota(t);
  if (!ota.prepare()) {
    std::cerr << "schematic preparation failed\n";
    return 1;
  }
  std::cout << "Prepared 5T OTA: " << ota.instances().size()
            << " primitive instances, Iref = "
            << units::eng(ota.reference_current(), "A") << "\n\n";

  circuits::FlowOptions fopt;
  fopt.trace_artifacts_dir = trace_dir;
  circuits::FlowEngine engine(t, fopt);
  circuits::FlowReport report;
  const circuits::Realization optimized =
      engine.run(circuits::FlowMode::kOptimize, ota.instances(), ota.routed_nets(), &report);

  if (!trace_dir.empty()) {
    const std::string trace_json =
        obs::to_chrome_trace_json(report.telemetry.snapshot);
    const std::string telemetry_json = obs::to_json(report.telemetry);
    std::string err;
    if (!jsonl::well_formed(trace_json, &err) ||
        !jsonl::well_formed(telemetry_json, &err)) {
      std::cerr << "trace export produced malformed JSON: " << err << "\n";
      return 1;
    }
    obs::write_text_file(trace_dir + "/ota_flow.trace.json", trace_json);
    obs::write_text_file(trace_dir + "/ota_flow.telemetry.json",
                         telemetry_json);
    std::cout << obs::summary_table(report.telemetry) << '\n';
    std::cout << "Trace artifacts written to " << trace_dir << "\n\n";
  }

  // What Algorithm 1 selected per instance.
  {
    TextTable table("Primitive options selected (Algorithm 1)");
    table.set_header({"instance", "chosen configuration", "tuning", "cost"});
    for (const auto& [inst, options] : report.options) {
      const int k = report.chosen_option.at(inst);
      const core::LayoutCandidate& cand =
          options[static_cast<std::size_t>(k)];
      std::string tuning;
      for (const auto& [net, wires] : cand.tuning) {
        tuning += net + "x" + std::to_string(wires) + " ";
      }
      table.add_row({inst, cand.layout.config.to_string(), tuning,
                     fixed(cand.cost.total, 2)});
    }
    std::cout << table << '\n';
  }

  // Placement and routing summary.
  std::cout << "Placement: " << fixed(report.placement.width * 1e6, 2)
            << " x " << fixed(report.placement.height * 1e6, 2)
            << " um, HPWL " << units::eng(report.placement.hpwl, "m")
            << "\n";
  for (const auto& [net, route] : report.routes) {
    std::cout << "  route " << net << ": "
              << units::eng(route.total_length(), "m") << " on "
              << tech::layer_name(route.dominant_layer()) << ", "
              << route.vias << " vias\n";
  }
  std::cout << '\n';

  // Algorithm 2 decisions.
  {
    TextTable table("Port optimization (Algorithm 2)");
    table.set_header({"net", "# parallel routes", "decision"});
    for (const core::NetWireDecision& d : report.decisions) {
      table.add_row({d.circuit_net, std::to_string(d.parallel_routes),
                     d.from_overlap ? "interval overlap" : "gap re-simulated"});
    }
    std::cout << table << '\n';
  }

  // Final circuit-level comparison.
  const auto sch =
      ota.measure(circuits::schematic_realization(ota.instances(), t));
  const auto conv =
      ota.measure(engine.run(circuits::FlowMode::kConventional, ota.instances(), ota.routed_nets()));
  const auto opt = ota.measure(optimized);
  TextTable table("Circuit performance");
  table.set_header({"metric", "schematic", "conventional", "this work"});
  auto row = [&](const std::string& label, const std::string& key, int dec) {
    table.add_row({label, fixed(sch.at(key), dec), fixed(conv.at(key), dec),
                   fixed(opt.at(key), dec)});
  };
  row("Current (uA)", "current_ua", 0);
  row("Gain (dB)", "gain_db", 1);
  row("UGF (GHz)", "ugf_ghz", 2);
  row("3-dB freq (MHz)", "f3db_mhz", 0);
  row("Phase margin (deg)", "pm_deg", 1);
  std::cout << table;
  std::cout << "\nFlow runtime: " << fixed(report.runtime_s, 3) << " s, "
            << report.testbenches << " primitive testbench simulations\n";
  if (report.budget.limited || report.budget.exhausted) {
    std::cout << "Budget: " << report.budget.to_string() << "\n";
  }

  // Resilience summary: a healthy run reports no diagnostics. The
  // "Flow degraded:" line is machine-parseable (tests/run_budget_smoke.sh).
  std::cout << "Flow degraded: " << (report.degraded ? "true" : "false")
            << "\n";
  if (report.degraded) {
    std::cout << report.diagnostics.size() << " diagnostic(s):\n";
    for (const Diagnostic& d : report.diagnostics) {
      std::cout << "  " << d.to_string() << "\n";
    }
  }
  return 0;
}
