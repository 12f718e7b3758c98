// Reproduces the paper's evaluation (Sec. IV: Fig. 2, Fig. 6, Tables I-VIII)
// and the two extension experiments (ablations and process corners on the
// 5T OTA). Each circuits::run_* experiment runs once; every table only
// prints its results.
//
//   bench_paper              print the tables
//   bench_paper DOC [OUT]    also write DOC with fresh generated blocks to
//                            OUT (DOC itself by default); exit 1, naming each
//                            block, when any block in DOC was out of date
//
// A generated block is the text between the lines
// "<!-- begin bench_paper NAME -->" and "<!-- end bench_paper NAME -->".
// Blocks hold only deterministic output: the wall times depend on the host,
// so they are printed after the blocks and never written.

#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "circuits/experiments.hpp"
#include "core/metrics.hpp"
#include "core/port_optimizer.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

namespace {

using namespace olp;
using circuits::CircuitExperiment;

struct Block {
  std::string name;
  std::string text;
};

/// The Table VIII circuits, each with the run whose optimized flow it reports.
using Flows = std::vector<std::pair<std::string, const CircuitExperiment*>>;

/// One table row: `cells`, then `key` of each flavor (scaled), "-" where the
/// flavor or the key is missing.
std::vector<std::string> flavor_row(std::vector<std::string> cells,
                                    const circuits::FlavorMetrics& results,
                                    const std::vector<std::string>& flavors,
                                    const std::string& key, int decimals,
                                    double scale = 1.0) {
  for (const std::string& flavor : flavors) {
    const auto fit = results.find(flavor);
    cells.push_back(fit != results.end() && fit->second.count(key)
                        ? fixed(fit->second.at(key) * scale, decimals)
                        : std::string("-"));
  }
  return cells;
}

// Fig. 2: narrow routes lose gain/Gm, wide routes lose UGF, the optimized
// width approaches the schematic.
std::string fig2(const CircuitExperiment& cs) {
  const std::vector<std::string> flavors = {"schematic", "narrow", "wide",
                                            "optimized"};
  TextTable table(
      "Fig. 2: Common-source amplifier vs. Vout wire width\n"
      "(paper: schematic 18.04dB/6.7GHz/291uW; narrow 17.90/6.6/290;\n"
      " wide 18.03/5.3/290; optimized 18.02/6.6/290 -- shape: narrow\n"
      " loses gain/Gm, wide loses UGF, optimized ~ schematic)");
  table.set_header({"quantity", "schematic", "narrow", "wide", "optimized"});
  table.add_row(flavor_row({"Gain (dB)"}, cs.results, flavors, "gain_db", 2));
  table.add_row(flavor_row({"UGF (GHz)"}, cs.results, flavors, "ugf_ghz", 2));
  table.add_row(
      flavor_row({"Power (uW)"}, cs.results, flavors, "power_uw", 0));
  std::ostringstream out;
  out << table << '\n'
      << "Optimized width: " << cs.results.at("optimized").at("wires")
      << " parallel routes\n\n";
  return out.str();
}

// Table I: the primitive-level metrics behind Fig. 2.
std::string table1(const CircuitExperiment& cs) {
  const std::vector<std::string> flavors = {
      "tableI_schematic", "tableI_narrow", "tableI_wide", "tableI_optimized"};
  TextTable table(
      "Table I: Primitive-level metrics, common-source amplifier\n"
      "(paper: Gm 1.96->1.93(narrow)->1.96(wide)->1.95(opt) mA/V;\n"
      " Ctotal 50.40->50.58->54.04->50.66 fF)");
  table.set_header({"metric", "schematic", "narrow", "wide", "optimized"});
  table.add_row(
      flavor_row({"Gm,M1 (mA/V)"}, cs.results, flavors, "gm_m1", 3, 1e3));
  table.add_row(
      flavor_row({"Rout,M1 (kOhm)"}, cs.results, flavors, "rout_m1", 2, 1e-3));
  table.add_row(
      flavor_row({"Ctotal (fF)"}, cs.results, flavors, "ctotal", 2, 1e15));
  table.add_row(
      flavor_row({"I,M2 (uA)"}, cs.results, flavors, "i_m2", 1, 1e6));
  return table.render();
}

// Table II: the augmented primitive library (Sec. II-B), a definition.
std::string table2() {
  using pcell::PrimitiveType;
  TextTable table(
      "Table II: Primitive metrics, tuning terminals, weights alpha");
  table.set_header(
      {"primitive", "objective", "alpha", "tuning terminals", "correlated"});
  for (PrimitiveType type :
       {PrimitiveType::kDiffPair, PrimitiveType::kCurrentMirror,
        PrimitiveType::kActiveCurrentMirror, PrimitiveType::kCurrentSource,
        PrimitiveType::kCommonSource, PrimitiveType::kCurrentStarvedInverter,
        PrimitiveType::kCrossCoupledPair, PrimitiveType::kSwitch,
        PrimitiveType::kCapacitor}) {
    const core::MetricLibraryEntry entry = core::metric_library(type);
    std::string terminals;
    for (const std::string& term : entry.tuning_terminals) {
      if (!terminals.empty()) terminals += ", ";
      terminals += term;
    }
    terminals += " (source/drain RC)";
    bool first = true;
    for (const core::MetricSpec& spec : entry.metrics) {
      table.add_row({first ? pcell::primitive_type_name(type) : "",
                     core::metric_name(spec.kind), fixed(spec.weight, 1),
                     first ? terminals : "",
                     first ? (entry.terminals_correlated ? "yes" : "no")
                           : ""});
      first = false;
    }
    table.add_rule();
  }
  return table.render() +
         "\nWeights follow the paper: high = 1.0, medium = 0.5, low = 0.1.\n";
}

// Table III: DP layout options; common-centroid options win every bin.
std::string table3(const std::vector<circuits::DpOptionRow>& rows) {
  TextTable table(
      "Table III: Cost components for DP layout options (W/L=46um/14nm)\n"
      "(paper bin-best costs: 3.6 / 3.9 / 3.0; AABB offset blow-up 101.7)");
  table.set_header({"configuration", "pattern", "bin", "dGm", "dGm/Ctot",
                    "dOffset", "Cost"});
  for (const circuits::DpOptionRow& row : rows) {
    table.add_row({"nfin=" + std::to_string(row.config.nfin) +
                       "; nf=" + std::to_string(row.config.nf) +
                       "; m=" + std::to_string(row.config.m) +
                       (row.bin_best ? "  <== bin best" : ""),
                   pcell::pattern_name(row.config.pattern),
                   std::to_string(row.bin + 1), pct(row.d_gm),
                   pct(row.d_gm_over_ctotal), pct(row.d_offset, 0),
                   fixed(row.cost, 1)});
  }
  return table.render() +
         "\nOne option per aspect-ratio bin is handed to the placer "
         "(Algorithm 1).\n";
}

// Table IV: the DP cost curve is U-shaped, the mirror's keeps improving;
// Fig. 6: the per-net constraints and their reconciliation on the OTA.
std::string table4(const std::vector<circuits::PortSweepRow>& rows,
                   const circuits::FlowReport& ota) {
  TextTable table(
      "Table IV: DP and passive CM cost during primitive port optimization\n"
      "(2 um metal-3 routes at the ports; paper: DP interval [3,5], CM\n"
      " monotone with unbounded upper limit)");
  table.set_header({"# wires", "DP dGm", "DP dGm/Ctot", "DP cost", "CM dRatio",
                    "CM dCout", "CM cost"});
  std::vector<double> dp_curve, cm_curve;
  for (const circuits::PortSweepRow& row : rows) {
    table.add_row({std::to_string(row.wires), pct(row.dp_gm),
                   pct(row.dp_gm_over_ctotal), fixed(row.dp_cost, 2),
                   pct(row.cm_current_ratio), pct(row.cm_cout),
                   fixed(row.cm_cost, 2)});
    dp_curve.push_back(row.dp_cost);
    cm_curve.push_back(row.cm_cost);
  }
  TextTable fig6("Fig. 6: Per-net port constraints on the 5T OTA");
  fig6.set_header({"primitive", "net", "interval"});
  for (const core::PortConstraint& pc : ota.constraints) {
    fig6.add_row({pc.instance, pc.circuit_net, pc.interval.to_string()});
  }
  TextTable dec("Reconciled parallel-route decisions");
  dec.set_header({"net", "# routes", "how"});
  for (const core::NetWireDecision& d : ota.decisions) {
    dec.add_row({d.circuit_net, std::to_string(d.parallel_routes),
                 d.from_overlap ? "overlap: max(w_min)" : "gap re-simulated"});
  }
  std::ostringstream out;
  out << table << "\nDP interval "
      << core::interval_from_curve(dp_curve, 0.04).to_string()
      << ", CM interval "
      << core::interval_from_curve(cm_curve, 0.04).to_string()
      << " (paper: [3,5] and unbounded)\n\n"
      << fig6 << '\n'
      << dec;
  return out.str();
}

// Table V: testbenches per optimization step. The wall-time row is printed
// with the other host-dependent values.
std::string table5(const std::vector<circuits::StepCountsRow>& rows) {
  using Row = circuits::StepCountsRow;
  TextTable table(
      "Table V: Number of testbench simulations per optimization step\n"
      "(paper: DP 113, CM 74, current-starved inverter 157; wall time 30 s\n"
      " each with 10 s parallel SPICE jobs -- our in-process testbenches run\n"
      " in milliseconds, so the measured wall time replaces the estimate)");
  // One table row: `label`, then `cell(r)` for every primitive's column.
  const auto line = [&rows](std::string label, auto cell) {
    std::vector<std::string> out = {std::move(label)};
    for (const Row& r : rows) out.push_back(cell(r));
    return out;
  };
  const auto count = [](auto field) {
    return [field](const Row& r) { return std::to_string(r.*field); };
  };
  table.set_header(line("step", [](const Row& r) { return r.primitive; }));
  table.add_row(line("configurations evaluated", count(&Row::configs)));
  table.add_row(line("1. primitive selection", count(&Row::selection)));
  table.add_row(line("2. primitive tuning", count(&Row::tuning)));
  table.add_row(line("3. net routing constraints", count(&Row::port)));
  table.add_rule();
  table.add_row(line("total simulations",
                     [](const Row& r) { return std::to_string(r.total()); }));
  return table.render() +
         "\nAll simulations within a step are independent, so the"
         " paper's parallel-dispatch argument (wall time ~ one"
         " simulation per step) applies unchanged.\n";
}

// Table VI: the conventional flow loses current, UGF and delay; this work
// recovers most of the loss and is competitive with manual layout.
std::string table6(const CircuitExperiment& ota,
                   const CircuitExperiment& sa) {
  const std::vector<std::string> flavors = {"schematic", "manual",
                                            "conventional", "this_work"};
  TextTable table(
      "Table VI: High-frequency OTA & StrongARM comparator\n"
      "(paper OTA: current 706/706/675/708 uA, gain 22.6/22.4/21.8/22.4 dB,\n"
      " UGF 5.1/4.8/4.2/4.8 GHz; StrongARM delay 19.2/25.4/35.0/31.5 ps)");
  table.set_header({"circuit", "specification", "schematic", "manual",
                    "conventional", "this work"});
  const auto row = [&](const CircuitExperiment& ex, std::string circuit,
                       std::string label, const std::string& key,
                       int decimals) {
    table.add_row(flavor_row({std::move(circuit), std::move(label)},
                             ex.results, flavors, key, decimals));
  };
  row(ota, "High-frequency", "Current (uA)", "current_ua", 0);
  row(ota, "5T OTA", "Gain (dB)", "gain_db", 1);
  row(ota, "", "UGF (GHz)", "ugf_ghz", 2);
  row(ota, "", "3-dB freq. (MHz)", "f3db_mhz", 0);
  row(ota, "", "Phase margin (deg)", "pm_deg", 1);
  table.add_rule();
  row(sa, "StrongARM", "Delay (ps)", "delay_ps", 1);
  row(sa, "comparator", "Power (uW)", "power_uw", 1);
  return table.render();
}

// Table VII: the RO-VCO's frequency and control range per layout.
std::string table7(const CircuitExperiment& vco) {
  const std::vector<std::string> flavors = {"schematic", "conventional",
                                            "this_work"};
  TextTable table(
      "Table VII: Eight-stage differential RO-VCO\n"
      "(paper: fmax 7.5/3.8/5.5 GHz, fmin 0.20/0.26/0.25 GHz, range\n"
      " 0-0.5 / 0.1-0.5 / 0-0.5 V for schematic/conventional/this work)");
  table.set_header({"specification", "schematic", "conventional",
                    "this work"});
  const auto row = [&](std::string label, const std::string& key,
                       int decimals) {
    table.add_row(
        flavor_row({std::move(label)}, vco.results, flavors, key, decimals));
  };
  row("Max. frequency (GHz)", "fmax_ghz", 2);
  row("Min. frequency (GHz)", "fmin_ghz", 2);
  row("Voltage range low (V)", "vrange_lo", 1);
  row("Voltage range high (V)", "vrange_hi", 1);
  return table.render();
}

// Table VIII: the testbenches of each optimized flow. Its runtime column is
// printed with the other host-dependent values.
std::string table8(const Flows& flows) {
  TextTable table(
      "Table VIII: Runtime of the flow for the evaluation circuits\n"
      "(paper: 80 s OTA, 85 s StrongARM, 135 s RO-VCO with 10 s parallel\n"
      " SPICE jobs; the in-process simulator shifts the absolute scale)");
  table.set_header({"circuit", "testbench simulations"});
  for (const auto& [circuit, ex] : flows) {
    table.add_row(
        {circuit, std::to_string(ex->optimized_report.testbenches)});
  }
  return table.render() +
         "\nIncluded steps: primitive generation + Algorithm 1 "
         "(selection, tuning), placement, global routing, Algorithm 2 "
         "(port optimization).\n";
}

std::string ablations(const std::vector<circuits::AblationRow>& rows) {
  TextTable table(
      "Ablations on the 5T OTA: contribution of each methodology step");
  table.set_header({"configuration", "current (uA)", "UGF (GHz)",
                    "gain (dB)", "3-dB (MHz)"});
  for (const circuits::AblationRow& r : rows) {
    const auto val = [&r](const char* key, int decimals) {
      const auto it = r.metrics.find(key);
      return it == r.metrics.end() ? std::string("-")
                                   : fixed(it->second, decimals);
    };
    table.add_row({r.label, val("current_ua", 0), val("ugf_ghz", 2),
                   val("gain_db", 1), val("f3db_mhz", 0)});
  }
  return table.render() +
         "\nReading guide: port optimization carries most of the win\n"
         "(the single-track tail route otherwise starves the OTA);\n"
         "primitive tuning moves current/UGF by under 1%;\n"
         "more bins give the placer aspect-ratio freedom at little\n"
         "performance cost.\n";
}

std::string corners(const std::vector<circuits::CornerRow>& rows) {
  TextTable table(
      "5T OTA across process corners: UGF (GHz) / current (uA)\n"
      "(optimized at TT; the advantage over the conventional layout must\n"
      " hold at every corner)");
  table.set_header({"corner", "schematic", "conventional", "this work"});
  for (const circuits::CornerRow& row : rows) {
    std::vector<std::string> cells = {circuits::corner_name(row.corner)};
    for (const char* flavor : {"schematic", "conventional", "this_work"}) {
      const auto& m = row.results.at(flavor);
      cells.push_back(m.count("ugf_ghz") ? fixed(m.at("ugf_ghz"), 2) + " / " +
                                               fixed(m.at("current_ua"), 0)
                                         : std::string("-"));
    }
    table.add_row(cells);
  }
  return table.render();
}

// The host-dependent values: Table V's wall times and Table VIII's flow
// runtimes.
std::string wall_times(const std::vector<circuits::StepCountsRow>& steps,
                       const Flows& flows) {
  TextTable table("Wall times on this host (never written to a document)");
  table.set_header({"run", "wall time (s)"});
  for (const circuits::StepCountsRow& r : steps) {
    table.add_row({"Table V: " + r.primitive, fixed(r.seconds, 2)});
  }
  for (const auto& [circuit, ex] : flows) {
    table.add_row({"Table VIII: " + circuit + " flow",
                   fixed(ex->optimized_report.runtime_s, 3)});
  }
  return table.render();
}

const std::string kBegin = "<!-- begin bench_paper ";
const std::string kEnd = "<!-- end bench_paper ";
const std::string kClose = " -->";

/// A block's text as the document holds it: one fenced code block.
std::string fenced(std::string text) {
  while (!text.empty() && text.back() == '\n') text.pop_back();
  return "```text\n" + text + "\n```\n";
}

/// Writes the document at `doc_path` to `out_path` with every generated
/// block replaced by its fresh text. Returns 0 when every block was current,
/// 1 when any block was stale, missing or unknown, or a file failed; each
/// problem is named on stderr.
int rewrite(const std::string& doc_path, const std::string& out_path,
            const std::vector<Block>& blocks) {
  std::ifstream in(doc_path);
  if (!in) {
    std::cerr << "bench_paper: cannot read " << doc_path << '\n';
    return 1;
  }
  int status = 0;
  std::set<std::string> written;
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    out += line + '\n';
    if (!line.starts_with(kBegin) || !line.ends_with(kClose)) continue;
    const std::string name = line.substr(
        kBegin.size(), line.size() - kBegin.size() - kClose.size());
    const std::string end = kEnd + name + kClose;
    std::string old;
    bool closed = false;
    while (std::getline(in, line)) {
      if (line == end) {
        closed = true;
        break;
      }
      old += line + '\n';
    }
    const Block* block = nullptr;
    for (const Block& b : blocks) {
      if (b.name == name) block = &b;
    }
    if (block == nullptr || !closed) {
      std::cerr << "bench_paper: block '" << name << "' in " << doc_path
                << (block == nullptr ? " is not generated by bench_paper\n"
                                     : " has no end marker\n");
      return 1;
    }
    const std::string fresh = fenced(block->text);
    if (old != fresh) {
      std::cerr << "bench_paper: block '" << name << "' in " << doc_path
                << " is out of date\n";
      status = 1;
    }
    out += fresh + end + '\n';
    written.insert(name);
  }
  for (const Block& b : blocks) {
    if (!written.count(b.name)) {
      std::cerr << "bench_paper: " << doc_path << " has no block '" << b.name
                << "'\n";
      status = 1;
    }
  }
  std::ofstream file(out_path);
  file << out;
  if (!file.flush()) {
    std::cerr << "bench_paper: cannot write " << out_path << '\n';
    return 1;
  }
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 3) {
    std::cerr << "usage: bench_paper [DOC [OUT]]\n";
    return 2;
  }
  set_log_level(log_level_from_env("OLP_LOG_LEVEL", LogLevel::kError));
  const tech::Technology t = tech::make_default_finfet_tech();

  const CircuitExperiment cs = circuits::run_cs_amp(t);
  const CircuitExperiment ota = circuits::run_ota(t);
  const CircuitExperiment sa = circuits::run_strongarm(t);
  const CircuitExperiment vco = circuits::run_vco(t);
  const std::vector<circuits::StepCountsRow> steps =
      circuits::run_step_counts(t);
  const Flows flows = {{"High-frequency 5T OTA", &ota},
                       {"StrongARM comparator", &sa},
                       {"RO-VCO", &vco}};

  const std::vector<Block> blocks = {
      {"fig2", fig2(cs)},
      {"table1", table1(cs)},
      {"table2", table2()},
      {"table3", table3(circuits::run_dp_options(t))},
      {"table4", table4(circuits::run_port_sweep(t), ota.optimized_report)},
      {"table5", table5(steps)},
      {"table6", table6(ota, sa)},
      {"table7", table7(vco)},
      {"table8", table8(flows)},
      {"ablations", ablations(circuits::run_ablations(t, ota))},
      {"corners", corners(circuits::run_corners(t, ota))},
  };
  for (const Block& b : blocks) std::cout << b.text;
  std::cout << '\n' << wall_times(steps, flows);
  if (argc < 2) return 0;
  return rewrite(argv[1], argc > 2 ? argv[2] : argv[1], blocks);
}
