#pragma once
// The hierarchical layout flow driver (paper Fig. 1 with the two inserted
// optimization steps), plus the comparison baselines of Sec. IV. One entry
// point runs any of the three flows through one skeleton of four steps:
//
//   1. each instance's layout and tuning,
//   2. placement and global routing (place_and_route), which also reports
//      unrouted nets,
//   3. each routed net's parallel-route count,
//   4. the realization: net wires from the decisions, the mode's default
//      count on every other routed net.
//
// The modes differ at steps 1 and 3:
//
//   run(FlowMode::kOptimize):     Algorithm 1 selection + tuning, one option
//                                 per instance by trial floorplans; Algorithm
//                                 2 port optimization ("This work").
//   run(FlowMode::kConventional): geometric constraints only — each
//                                 primitive an ABBA configuration (multi-row
//                                 when any exists) without dummies, the one
//                                 minimizing area·(1 + 2·|ln AR|); no wire
//                                 decisions, every net routed at two tracks;
//                                 no parasitic/LDE optimization
//                                 ([19]/[20]-style baseline).
//   run(FlowMode::kManualOracle): the five cheapest configurations of each
//                                 primitive tuned and the best kept, then
//                                 Algorithm 2's wire counts without reported
//                                 constraints, standing in for expert manual
//                                 layout.
//
// Environment overrides (see util/env.hpp for the full catalog) are applied
// ONCE, at FlowEngine construction: OLP_THREADS onto num_threads,
// OLP_EVAL_CACHE onto eval_cache, OLP_DEADLINE_MS / OLP_TESTBENCH_BUDGET
// onto budget_limits. run() uses the constructed options verbatim, so two
// runs of one engine can never see different environments.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "circuits/common.hpp"
#include "core/optimizer.hpp"
#include "core/port_optimizer.hpp"
#include "place/placer.hpp"
#include "route/global_router.hpp"
#include "util/budget.hpp"
#include "util/diag.hpp"
#include "util/task_pool.hpp"
#include "util/trace_export.hpp"

namespace olp::core {
class EvalCache;
}  // namespace olp::core

namespace olp::circuits {

/// Which of the three flows run() executes.
enum class FlowMode {
  kOptimize,      ///< the paper's flow ("This work")
  kConventional,  ///< conventional automated layout baseline
  kManualOracle,  ///< exhaustive oracle standing in for manual layout
};

/// Stable lowercase name ("optimize", "conventional", "manual_oracle") —
/// also the suffix of the flow's root span, "flow.<name>".
const char* flow_mode_name(FlowMode mode);

struct FlowOptions {
  int bins = 3;
  int max_tuning_wires = 8;
  std::uint64_t seed = 1;
  int placer_iterations = 8000;
  int combo_place_iterations = 1500;  ///< quick placements during option choice
  /// When non-empty, each flow run writes per-stage SVG layout snapshots
  /// (<prefix>_placement.svg, <prefix>_routed.svg) into this directory —
  /// visual trace artifacts for debugging placement/routing regressions.
  /// Failures to write degrade to a warning diagnostic, never an error.
  std::string trace_artifacts_dir;
  /// Execution limits for each flow run: wall-clock deadline, testbench
  /// budget, deterministic check budget. OLP_DEADLINE_MS /
  /// OLP_TESTBENCH_BUDGET environment overrides apply at engine
  /// construction, and every run builds its own Budget from the result. On
  /// exhaustion every stage salvages its best-so-far result and the report
  /// is marked degraded with stage-attributed "budget" diagnostics.
  BudgetOptions budget_limits;
  /// Worker threads (including the caller) for primitive evaluation and
  /// sweep parallelization. 1 (the default) runs the exact serial seed path
  /// with no pool; 0 means one thread per hardware core. The OLP_THREADS
  /// environment variable overrides at engine construction. Any value
  /// produces bit-identical flow results (tests/test_determinism.cpp).
  /// Ignored when `pool` below is set.
  int num_threads = 1;
  /// Optional caller-owned shared pool (not owned, may be null; must outlive
  /// the flow call). When set it is used for every parallel stage instead of
  /// an engine-local pool — the batch runner points every job here so one
  /// fixed worker set serves the whole batch.
  TaskPool* pool = nullptr;
  /// Memoize primitive evaluations in a per-run cache (results are
  /// bit-identical either way; hits skip simulation, so testbench counts —
  /// and chaos fault draws — differ from the uncached run, which is why the
  /// default stays off). OLP_EVAL_CACHE=1/0 overrides at construction.
  bool eval_cache = false;
  /// Optional caller-owned evaluation cache shared ACROSS runs (not owned,
  /// may be null; must outlive the flow call). Overrides `eval_cache`: when
  /// set, every evaluator of the run uses this cache. The cache key does not
  /// cover the technology, so sharing is only sound between runs on one
  /// technology; it is in a batch, because every batch job runs on the
  /// runner's technology.
  core::EvalCache* shared_eval_cache = nullptr;
  /// Client id this run presents to `shared_eval_cache` (>= 0 enables
  /// cross-client hit attribution; see core::EvalCacheStats).
  int cache_client = -1;
  /// When true (the default) the run owns the process-wide obs registry:
  /// entry rebases it and the report gets a per-run telemetry snapshot.
  /// Concurrent runs (batch jobs) must set this false — the batch runner
  /// rebases once and attaches one pooled snapshot to the whole batch.
  bool own_telemetry = true;
};

/// Everything the flow decided, for reporting and the paper's tables.
struct FlowReport {
  double runtime_s = 0.0;
  long testbenches = 0;
  place::PlacementResult placement;
  std::vector<std::string> placed_instances;  ///< block order in `placement`
  std::map<std::string, route::NetRoute> routes;  ///< circuit net -> route
  std::vector<core::PortConstraint> constraints;
  std::vector<core::NetWireDecision> decisions;
  /// Candidates offered to the placer per instance (Algorithm 1 output).
  std::map<std::string, std::vector<core::LayoutCandidate>> options;
  /// Chosen option index per instance.
  std::map<std::string, int> chosen_option;
  /// Structured records of every recoverable failure and engaged fallback
  /// (simulator retries, quarantined candidates, router fallbacks, ...).
  /// When the obs registry is enabled each record also carries the span
  /// path it was reported under.
  std::vector<Diagnostic> diagnostics;
  /// True when any diagnostic at warning severity or above was reported:
  /// the flow completed, but some subsystem degraded along the way.
  bool degraded = false;
  /// Final consumption snapshot of this run's execution budget, the one
  /// record of it (telemetry.budget below is a copy). When the budget
  /// tripped (budget.exhausted), the stage whose work was interrupted is
  /// named by the first diagnostic with stage == "budget".
  BudgetStatus budget;
  /// Per-flow observability report (stage timings, counters, distributions,
  /// full span trace). Populated only when obs::Registry is enabled during
  /// the run AND the run owns the registry (FlowOptions::own_telemetry);
  /// `testbenches` above is then derived from its "eval.testbench" counter,
  /// so the two always agree. Export with obs::to_chrome_trace_json /
  /// obs::to_json / obs::summary_table.
  obs::FlowTelemetry telemetry;
};

class FlowEngine {
 public:
  FlowEngine(const tech::Technology& technology, FlowOptions options = {});

  /// Runs one flow end to end (see FlowMode for the three variants).
  Realization run(FlowMode mode, const std::vector<InstanceSpec>& instances,
                  const std::vector<std::string>& routed_nets,
                  FlowReport* report = nullptr) const;

  /// Builds a per-instance evaluator from its bias context.
  core::PrimitiveEvaluator make_evaluator(const InstanceSpec& inst) const;

  const tech::Technology& technology() const { return tech_; }
  const FlowOptions& options() const { return options_; }

 private:
  struct Run;
  /// Step 1's decision: the candidate (layout and tuning) each instance is
  /// placed, port-optimized and realized with, by instance name.
  using Choice = std::map<std::string, core::LayoutCandidate>;

  /// Step 1 per mode. select_optimized runs Algorithm 1 once per distinct
  /// problem and picks one option per instance by trial floorplans;
  /// generate_conventional takes each primitive's squarest ABBA
  /// configuration; select_oracle tunes the five cheapest configurations of
  /// each primitive and keeps the best.
  Choice select_optimized(Run& run) const;
  Choice generate_conventional(Run& run) const;
  Choice select_oracle(Run& run) const;

  /// Builds the run's evaluators: one per distinct (netlist, fin count,
  /// evaluation context), wired to the run's sink, budget and cache.
  void make_evaluators(Run& run) const;

  /// Step 2: places the chosen layouts at FlowOptions::placer_iterations,
  /// globally routes the run's nets and reports every net left unrouted:
  /// the final floorplan of every mode (the option choice's trial
  /// floorplans are only placed). Writes the per-stage SVG snapshots when
  /// FlowOptions::trace_artifacts_dir is set.
  void place_and_route(Run& run, const Choice& chosen) const;

  /// Step 3: each routed net's parallel-route count (Algorithm 2), equal
  /// across symmetric port pairs.
  void choose_wire_counts(Run& run, const Choice& chosen) const;

  /// Step 4: the realization of the decisions. Every routed net without a
  /// decision gets the mode's default count.
  Realization realize(const Run& run, Choice chosen) const;

  /// The pool parallel stages run on: FlowOptions::pool when set, else a
  /// lazily built engine-local pool; null when num_threads == 1 so the
  /// serial path never spawns threads (or draws pool chaos faults).
  TaskPool* pool() const;

  const tech::Technology& tech_;
  FlowOptions options_;
  mutable std::unique_ptr<TaskPool> pool_;
};

}  // namespace olp::circuits
