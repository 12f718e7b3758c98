#pragma once
// The paper's evaluation experiments (Sec. IV), packaged so bench_paper and
// the claim tests read the same results for each table/figure.
//
//   Table I / Fig. 2  -> run_cs_amp()        (wire width sweep on Vout)
//   Table III         -> run_dp_options()    (DP layout options per bin)
//   Table IV          -> run_port_sweep()    (parallel routes at DP/CM ports)
//   Table V           -> run_step_counts()   (testbenches per step)
//   Table VI / Fig. 6 -> run_ota(), run_strongarm()
//   Table VII         -> run_vco()
//   Table VIII        -> the optimized_report of the Table VI and VII runs
//   extensions        -> run_ablations(), run_corners()   (5T OTA)

#include <map>
#include <string>
#include <vector>

#include "circuits/common_source.hpp"
#include "circuits/flow.hpp"
#include "circuits/ota5t.hpp"
#include "circuits/strongarm.hpp"
#include "circuits/vco.hpp"

namespace olp::circuits {

/// Metrics per flavor: flavor name -> metric key -> value.
using FlavorMetrics = std::map<std::string, std::map<std::string, double>>;

/// Metric rows per flavor ("schematic", "conventional", "this_work",
/// "manual"), the realizations they were measured on, and the flow reports
/// for runtime/constraint reporting.
struct CircuitExperiment {
  FlavorMetrics results;
  std::map<std::string, Realization> realizations;
  FlowReport conventional_report;
  FlowReport optimized_report;
  FlowReport manual_report;
};

/// Table VI, 5T OTA rows. `with_manual` also runs the exhaustive oracle.
CircuitExperiment run_ota(const tech::Technology& t,
                          const FlowOptions& options = {},
                          bool with_manual = true);

/// Table VI, StrongARM comparator rows.
CircuitExperiment run_strongarm(const tech::Technology& t,
                                const FlowOptions& options = {},
                                bool with_manual = true);

/// Table VII, eight-stage RO-VCO rows (schematic / conventional / this work).
CircuitExperiment run_vco(const tech::Technology& t,
                          const FlowOptions& options = {},
                          const std::vector<double>& vctrls =
                              RoVco::default_sweep());

/// One row of Table III: a differential-pair layout option, its aspect-ratio
/// bin (0-based) and its cost. The metric columns are relative deviations
/// from the schematic reference.
struct DpOptionRow {
  pcell::LayoutConfig config;
  int bin = 0;
  double d_gm = 0.0;
  double d_gm_over_ctotal = 0.0;
  double d_offset = 0.0;
  double cost = 0.0;
  bool bin_best = false;  ///< cheapest option of its bin (first on a tie)
};

/// Table III: the DP (W/L = 46 um / 14 nm, 960 fins per device) in the
/// paper's four (nfin, nf, m) configurations under the ABBA / ABAB / AABB
/// patterns, evaluated by Algorithm 1's optimizer and split into 3
/// aspect-ratio bins; one row per option, in the paper's order. The paper's
/// shape: common-centroid options win every bin, and the AABB offset blows
/// up.
std::vector<DpOptionRow> run_dp_options(const tech::Technology& t);

/// One row of Table IV: the differential pair's and the passive current
/// mirror's cost with `wires` parallel routes at the swept ports. The
/// metric columns are relative deviations from the schematic reference.
struct PortSweepRow {
  int wires = 0;
  double dp_gm = 0.0;
  double dp_gm_over_ctotal = 0.0;
  double dp_cost = 0.0;
  double cm_current_ratio = 0.0;
  double cm_cout = 0.0;
  double cm_cost = 0.0;
};

/// Table IV: the best DP and passive CM layouts with 1..7 parallel routes
/// at their ports (DP drains, CM output), each route 2 um on metal 3 plus a
/// 2-cut via stack; one row per wire count. The paper's DP curve is
/// U-shaped (interval [3, 5]); the CM curve keeps improving (no upper
/// limit).
std::vector<PortSweepRow> run_port_sweep(const tech::Technology& t);

/// One column of Table V: the testbenches one primitive runs in each of
/// the three optimization steps, and the wall time of all three.
struct StepCountsRow {
  std::string primitive;  ///< column title, e.g. "diff pair"
  int configs = 0;        ///< configurations evaluated by selection
  long selection = 0;     ///< step 1: primitive selection
  long tuning = 0;        ///< step 2: tuning of each bin's best layout
  long port = 0;          ///< step 3: net routing constraints
  double seconds = 0.0;   ///< wall time of the three steps
  long total() const { return selection + tuning + port; }
};

/// Table V: the DP (960 fins), the passive CM (512 fins) and the
/// current-starved inverter (96 fins), each through selection into 3
/// bins, tuning of every bin's best layout, and port constraints on the
/// first tuned layout with the reference route (2 um of metal 3 plus a
/// 2-cut via stack) at its swept ports; one row per primitive.
std::vector<StepCountsRow> run_step_counts(const tech::Technology& t);

/// Fig. 2 / Table I: CS amplifier with narrow (1), wide (8), and optimized
/// drain-wire widths. Results keyed "schematic", "narrow", "wide",
/// "optimized"; also returns the primitive metrics of Table I under
/// "tableI_<flavor>" keys: Gm (A/V), Rout (ohm), Ctotal (F), I (A).
CircuitExperiment run_cs_amp(const tech::Technology& t,
                             const FlowOptions& options = {});

/// One row of the ablation study: a flow variant and its OTA metrics.
struct AblationRow {
  std::string label;
  std::map<std::string, double> metrics;
};

/// Ablations on the 5T OTA (not a paper table), one row each, in order:
/// the schematic target; the full flow with 1..4 aspect-ratio bins; the
/// default flow without primitive tuning, without port optimization (every
/// net back to one route), and without both ("selection only"); and the
/// conventional baseline. `ota_run` is run_ota() under default options: its
/// schematic, default-flow and conventional rows are reused, not rerun.
std::vector<AblationRow> run_ablations(const tech::Technology& t,
                                       const CircuitExperiment& ota_run);

/// One process corner of the corner sweep: the OTA metrics of the
/// "schematic", "conventional" and "this_work" realizations.
struct CornerRow {
  Corner corner = Corner::kTT;
  FlavorMetrics results;
};

/// The 5T OTA's realizations from `ota_run` (run_ota() under default
/// options, made at TT) measured at TT, SS, FF, SF and FS (not a paper
/// table); one row per corner.
std::vector<CornerRow> run_corners(const tech::Technology& t,
                                   const CircuitExperiment& ota_run);

}  // namespace olp::circuits
