// Reproduces Table V: number of (testbench) simulations for a set of
// primitives across the three optimization steps, plus wall-clock time.
//
// The paper counts SPICE runs: e.g. for a DP, 20 configurations x 3 metric
// testbenches for selection, 3 layouts x 7 sweep points x 1 testbench for
// tuning, and 2 testbenches x 8 sweep points x 2 nets for port constraints
// (113 total, 30 s wall clock with parallel dispatch of 10 s SPICE jobs).
// Our simulator runs in-process in milliseconds, so the wall-clock row shows
// the actual measured time; the count structure is the comparable part.
// The counting lives in circuits::run_step_counts, which
// StepCountsExperiment.TableVCounts pins.

#include <iostream>

#include "circuits/experiments.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

int main() {
  using namespace olp;
  set_log_level(log_level_from_env("OLP_LOG_LEVEL", LogLevel::kError));
  const tech::Technology t = tech::make_default_finfet_tech();
  const std::vector<circuits::StepCountsRow> rows =
      circuits::run_step_counts(t);

  TextTable table(
      "Table V: Number of testbench simulations per optimization step\n"
      "(paper: DP 113, CM 74, current-starved inverter 157; wall time 30 s\n"
      " each with 10 s parallel SPICE jobs -- our in-process testbenches run\n"
      " in milliseconds, so the measured wall time replaces the estimate)");
  using Row = circuits::StepCountsRow;
  // One table row: `label`, then `cell(r)` for every primitive's column.
  const auto line = [&rows](std::string label, auto cell) {
    std::vector<std::string> out = {std::move(label)};
    for (const Row& r : rows) out.push_back(cell(r));
    return out;
  };
  const auto count = [](long Row::*field) {
    return [field](const Row& r) { return std::to_string(r.*field); };
  };
  table.set_header(line("step", [](const Row& r) { return r.primitive; }));
  table.add_row(line("configurations evaluated",
                     [](const Row& r) { return std::to_string(r.configs); }));
  table.add_row(line("1. primitive selection", count(&Row::selection)));
  table.add_row(line("2. primitive tuning", count(&Row::tuning)));
  table.add_row(line("3. net routing constraints", count(&Row::port)));
  table.add_rule();
  table.add_row(line("total simulations",
                     [](const Row& r) { return std::to_string(r.total()); }));
  table.add_row(line("total time (s)",
                     [](const Row& r) { return fixed(r.seconds, 2); }));
  std::cout << table;
  std::cout << "\nAll simulations within a step are independent, so the"
               " paper's parallel-dispatch argument (wall time ~ one"
               " simulation per step) applies unchanged.\n";
  return 0;
}
