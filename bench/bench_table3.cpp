// Reproduces Table III: cost components for the differential-pair layout
// options. The DP (W/L = 46 um / 14 nm, 960 fins per device) is generated in
// the paper's four (nfin, nf, m) configurations under the ABBA / ABAB / AABB
// placement patterns; each option's metric deviations and weighted cost are
// measured by simulation, and options are binned by aspect ratio. The sweep
// is circuits::run_dp_options(); tests/test_experiments.cpp checks its shape.
//
// Expected shape: deviations of a few percent for Gm, tens of percent for
// Gm/Ctotal, zero offset for the common-centroid patterns, and an offset
// blow-up (cost >> 100) for the non-common-centroid AABB arrangement.

#include <cstdio>
#include <iostream>

#include "circuits/experiments.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

int main() {
  using namespace olp;
  set_log_level(log_level_from_env("OLP_LOG_LEVEL", LogLevel::kError));
  const tech::Technology t = tech::make_default_finfet_tech();

  TextTable table(
      "Table III: Cost components for DP layout options (W/L=46um/14nm)\n"
      "(paper bin-best costs: 3.6 / 3.9 / 3.0; AABB offset blow-up 101.7)");
  table.set_header({"configuration", "pattern", "bin", "dGm", "dGm/Ctot",
                    "dOffset", "Cost"});
  for (const circuits::DpOptionRow& row : circuits::run_dp_options(t)) {
    char cfg[64];
    std::snprintf(cfg, sizeof cfg, "nfin=%d; nf=%d; m=%d%s", row.config.nfin,
                  row.config.nf, row.config.m,
                  row.bin_best ? "  <== bin best" : "");
    table.add_row({cfg, pcell::pattern_name(row.config.pattern),
                   std::to_string(row.bin + 1), pct(row.d_gm),
                   pct(row.d_gm_over_ctotal), pct(row.d_offset, 0),
                   fixed(row.cost, 1)});
  }
  std::cout << table;
  std::cout << "\nOne option per aspect-ratio bin is handed to the placer "
               "(Algorithm 1).\n";
  return 0;
}
