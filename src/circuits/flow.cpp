#include "circuits/flow.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <limits>

#include "core/eval_cache.hpp"
#include "geom/svg.hpp"
#include "route/realize.hpp"
#include "util/budget.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/obs.hpp"

namespace olp::circuits {

namespace {

/// What sets the modes apart outside their decision steps, indexed by
/// FlowMode.
struct ModeRow {
  const char* name;
  /// The root span, "flow." + name, as static storage (obs::Span keeps only
  /// the pointer).
  const char* span;
  /// Parallel routes of a routed net that the wire-count step left without
  /// a decision. Conventional routing uses the PDK's default analog route
  /// width (two tracks) everywhere, never optimized per net.
  int default_wires;
  /// The chosen candidates' tunings are part of the realization (the
  /// conventional generator tunes nothing, so its realization has none).
  bool tunes;
};

constexpr ModeRow kModes[] = {
    {"optimize", "flow.optimize", 1, true},
    {"conventional", "flow.conventional", 2, false},
    {"manual_oracle", "flow.manual_oracle", 1, true},
};

const ModeRow& mode_row(FlowMode mode) {
  return kModes[static_cast<std::size_t>(mode)];
}

/// Equalizes the parallel-route counts of nets joined by a primitive's
/// symmetric port pair (the detailed router keeps those routes symmetric, so
/// they must share one width); takes the max so every w_min stays satisfied.
void equalize_symmetric_nets(const std::vector<InstanceSpec>& instances,
                             std::vector<core::NetWireDecision>& decisions) {
  std::map<std::string, core::NetWireDecision*> by_net;
  for (core::NetWireDecision& d : decisions) by_net[d.circuit_net] = &d;
  for (const InstanceSpec& inst : instances) {
    for (const auto& [pa, pb] : inst.netlist.symmetric_ports) {
      const auto na = inst.port_nets.find(pa);
      const auto nb = inst.port_nets.find(pb);
      if (na == inst.port_nets.end() || nb == inst.port_nets.end()) continue;
      if (na->second == nb->second) continue;
      const auto da = by_net.find(na->second);
      const auto db = by_net.find(nb->second);
      if (da == by_net.end() || db == by_net.end()) continue;
      const int w =
          std::max(da->second->parallel_routes, db->second->parallel_routes);
      da->second->parallel_routes = w;
      db->second->parallel_routes = w;
    }
  }
}

/// Finalizes a report's resilience fields from the sink: moves the records
/// out and derives the degraded flag.
void finish_diagnostics(DiagnosticsSink& sink, FlowReport& report) {
  report.degraded = sink.has_at_least(DiagSeverity::kWarning);
  report.diagnostics = sink.take();
}

/// Attaches the flow telemetry when the obs registry is enabled. Must run
/// after the flow's root span is closed so stage/total timings are final.
/// The simulation count is taken from the registry's "eval.testbench"
/// counter — the exact increments that fed the evaluators' EvalStats — and
/// overwrites report.testbenches so the two views can never disagree; the
/// budget is the report's own status.
void finish_telemetry(FlowReport& report) {
  if (!obs::enabled()) return;
  report.telemetry =
      obs::make_flow_telemetry(obs::Registry::global().snapshot());
  report.telemetry.budget = report.budget;
  report.testbenches = report.telemetry.simulations;
}

/// Writes a per-stage SVG snapshot of the (partially) realized floorplan
/// into the trace-artifacts directory. Observability must never take a flow
/// down: any filesystem/rendering failure degrades to a warning diagnostic.
void write_stage_artifact(
    const tech::Technology& tech, const std::string& dir,
    const std::string& file_name,
    const std::vector<InstanceSpec>& instances,
    const std::map<std::string, const pcell::PrimitiveLayout*>& layouts,
    const FlowReport& report, bool with_routes, DiagnosticsSink* diag) {
  try {
    std::filesystem::create_directories(dir);
    geom::Layout top("stage_snapshot");
    std::map<std::string, std::size_t> placed_index;
    for (std::size_t i = 0; i < report.placed_instances.size(); ++i) {
      placed_index[report.placed_instances[i]] = i;
    }
    for (const InstanceSpec& inst : instances) {
      const auto pit = placed_index.find(inst.name);
      if (pit == placed_index.end()) continue;
      const pcell::PrimitiveLayout* layout = layouts.at(inst.name);
      const place::PlacedBlock& pb = report.placement.blocks[pit->second];
      const geom::Rect bb = layout->geometry.bounding_box();
      top.merge(layout->geometry, geom::to_nm(pb.x) - bb.x_lo,
                geom::to_nm(pb.y) - bb.y_lo, inst.name + ".");
    }
    if (with_routes) {
      // Wire-count decisions do not exist yet at this stage; render every
      // route at the single-track default.
      top.merge(route::realize_routes(tech, report.routes, {}), 0, 0, "");
    }
    geom::SvgOptions sopt;
    sopt.label_pins = false;
    geom::write_svg(top, dir + "/" + file_name, sopt);
  } catch (const std::exception& e) {
    if (diag != nullptr) {
      diag->report(DiagSeverity::kWarning, "flow", file_name,
                   std::string("trace artifact write failed: ") + e.what());
    }
  }
}

/// The placer's view of a set of chosen layouts (one block per instance, in
/// instance order, and one net per routed net with two or more placed pins)
/// and the placement annealed on it.
struct Floorplan {
  std::vector<place::Block> blocks;
  std::vector<place::PlacementNet> nets;
  place::PlacementResult placement;
};

/// Builds the floorplan of `layouts` and anneals it with `popt`, under the
/// "placement" span. `sink` receives the placer's diagnostics. The option
/// choice scores its trial floorplans on this alone; place_and_route goes on
/// to route the final one.
Floorplan place_layouts(
    const std::vector<InstanceSpec>& instances,
    const std::map<std::string, const pcell::PrimitiveLayout*>& layouts,
    const std::vector<std::string>& routed_nets,
    const place::PlacerOptions& popt, DiagnosticsSink& sink) {
  obs::Span placement_span("placement");
  Floorplan fp;
  std::vector<geom::Rect> block_bbox;  ///< per block, in instance order
  std::map<std::string, int> block_index;
  for (const InstanceSpec& inst : instances) {
    const pcell::PrimitiveLayout* layout = layouts.at(inst.name);
    OLP_CHECK(!layout->footprint_only,
              "placement got the footprint of " + inst.name);
    block_bbox.push_back(layout->geometry.bounding_box());
    place::Block b;
    b.name = inst.name;
    b.width = geom::to_meters(block_bbox.back().width());
    b.height = geom::to_meters(block_bbox.back().height());
    block_index[inst.name] = static_cast<int>(fp.blocks.size());
    fp.blocks.push_back(b);
  }
  for (const std::string& net : routed_nets) {
    place::PlacementNet pn;
    pn.name = net;
    for (std::size_t b = 0; b < instances.size(); ++b) {
      const InstanceSpec& inst = instances[b];
      for (const auto& [port, inet] : inst.port_nets) {
        if (inet != net) continue;
        const pcell::PrimitiveLayout* layout = layouts.at(inst.name);
        place::PlacementNet::PinRef ref;
        ref.block = block_index.at(inst.name);
        if (layout->geometry.has_pin(port)) {
          const geom::Pin& pin = layout->geometry.pin(port);
          const geom::Rect& bb = block_bbox[b];
          ref.dx = geom::to_meters(pin.rect.center().x - bb.x_lo);
          ref.dy = geom::to_meters(pin.rect.center().y - bb.y_lo);
        }
        pn.pins.push_back(ref);
      }
    }
    if (pn.pins.size() >= 2) fp.nets.push_back(pn);
  }

  fp.placement = place::AnnealingPlacer(popt).place(fp.blocks, fp.nets, {});
  obs::counter_add("placer.runs");
  obs::record("placer.hpwl_um", fp.placement.hpwl * 1e6);
  if (!fp.placement.legal) {
    obs::counter_add("placer.illegal_results");
    sink.report(DiagSeverity::kWarning, "placer", "placement",
                "annealing result has residual overlaps (legal=false)");
  }
  return fp;
}

}  // namespace

const char* flow_mode_name(FlowMode mode) { return mode_row(mode).name; }

/// One run's state, threaded through the skeleton's steps: the inputs, the
/// report under construction, the diagnostics sink, the budget, and the
/// evaluators that Algorithm 1 and Algorithm 2 share.
struct FlowEngine::Run {
  Run(FlowMode run_mode, const std::vector<InstanceSpec>& run_instances,
      const std::vector<std::string>& run_routed_nets,
      const BudgetOptions& limits)
      : mode(run_mode),
        instances(run_instances),
        routed_nets(run_routed_nets),
        budget(limits) {}

  /// Stage checkpoint at a flow stage boundary. Adds the budget checks
  /// spent since the previous checkpoint to `checks_counter` (e.g.
  /// "budget.checks.placement"; the deterministic per-stage cost tests use
  /// to land exhaustion at an exact stage). When the budget is exhausted it
  /// also reports a stage-attributed diagnostic with stage == "budget". The
  /// FIRST such record in a report names the stage whose work the trip
  /// interrupted (earlier checkpoints ran before the trip and stay silent);
  /// later stages also report, since they too salvaged degraded results.
  void checkpoint(const char* stage, const char* checks_counter) {
    const long checks = budget.checks();
    obs::counter_add(checks_counter, checks - checks_at_checkpoint);
    checks_at_checkpoint = checks;
    if (budget.exhausted()) {
      obs::counter_add("budget.stages_degraded");
      sink.report(DiagSeverity::kWarning, "budget", stage,
                  budget.description() + "; salvaged best-so-far results");
    }
  }

  const FlowMode mode;
  const std::vector<InstanceSpec>& instances;
  const std::vector<std::string>& routed_nets;
  FlowReport report;
  DiagnosticsSink sink;
  Budget budget;  ///< built from the options, env already folded in
  long checks_at_checkpoint = 0;  ///< budget.checks() at the last checkpoint
  /// The run-local evaluation cache, when one is on and no shared cache is
  /// given. Algorithm 2 evaluates through the same evaluators as Algorithm
  /// 1, so it lives as long as the run.
  std::unique_ptr<core::EvalCache> local_cache;
  /// One evaluator per distinct primitive problem (make_evaluators).
  std::vector<std::unique_ptr<core::PrimitiveEvaluator>> evaluators;
  std::map<std::string, core::PrimitiveEvaluator*> evaluator_of;  ///< by name
};

FlowEngine::FlowEngine(const tech::Technology& technology, FlowOptions options)
    : tech_(technology), options_(options) {
  // All environment overrides land here, once; run() never consults the
  // environment (see the header's precedence contract).
  options_.num_threads = threads_from_env(options_.num_threads);
  options_.eval_cache = env::flag("OLP_EVAL_CACHE", options_.eval_cache);
  options_.budget_limits = budget_options_from_env(options_.budget_limits);
}

TaskPool* FlowEngine::pool() const {
  if (options_.pool != nullptr) return options_.pool;
  if (options_.num_threads <= 1) return nullptr;
  if (pool_ == nullptr) pool_ = std::make_unique<TaskPool>(options_.num_threads);
  return pool_.get();
}

core::PrimitiveEvaluator FlowEngine::make_evaluator(
    const InstanceSpec& inst) const {
  return core::PrimitiveEvaluator(tech_, default_nmos(), default_pmos(),
                                  inst.bias);
}

Realization FlowEngine::run(FlowMode mode,
                            const std::vector<InstanceSpec>& instances,
                            const std::vector<std::string>& routed_nets,
                            FlowReport* report_out) const {
  const MonotonicStopwatch watch;
  // A run that owns the obs registry rebases it so the attached telemetry
  // covers exactly this run. Batch jobs run concurrently over one registry
  // and must not rebase (own_telemetry = false): the batch runner rebases
  // once and snapshots once.
  if (options_.own_telemetry) obs::Registry::global().rebase();
  obs::Span root(mode_row(mode).span);
  Run run(mode, instances, routed_nets, options_.budget_limits);

  // 1. Each instance's layout and tuning.
  Choice chosen;
  switch (mode) {
    case FlowMode::kOptimize:
      chosen = select_optimized(run);
      break;
    case FlowMode::kConventional:
      chosen = generate_conventional(run);
      break;
    case FlowMode::kManualOracle:
      chosen = select_oracle(run);
      break;
  }
  // 2. Placement and global routing of the chosen layouts.
  place_and_route(run, chosen);
  // 3. Parallel routes per net (the conventional flow decides none).
  if (mode != FlowMode::kConventional) choose_wire_counts(run, chosen);
  // 4. Net wires from the decisions, the mode's default count elsewhere.
  Realization real = realize(run, std::move(chosen));

  FlowReport& report = run.report;
  for (const auto& eval : run.evaluators) {
    report.testbenches += eval->stats().testbenches;
  }
  report.runtime_s = watch.seconds();
  report.budget = run.budget.status();
  root.close();
  if (options_.own_telemetry) finish_telemetry(report);
  finish_diagnostics(run.sink, report);
  if (report_out != nullptr) *report_out = std::move(report);
  return real;
}

void FlowEngine::make_evaluators(Run& run) const {
  // Evaluation memo cache: a caller-owned shared cache wins (cross-run
  // sharing, batch mode); else an optional run-local cache, scoped to the
  // run so cross-run state can never leak. Most valuable for the repeated
  // schematic references in tuning and port sweeps.
  core::EvalCache* cache = options_.shared_eval_cache;
  if (cache == nullptr && options_.eval_cache) {
    run.local_cache = std::make_unique<core::EvalCache>();
    cache = run.local_cache.get();
  }
  // Instances with the same netlist, fin count and evaluation context
  // (exactly what an evaluator serializes into its cache keys) pose the same
  // Algorithm 1 problem, so they share one evaluator and one result: the
  // StrongARM's four precharge switches optimize once.
  std::map<std::string, core::PrimitiveEvaluator*> by_problem;
  for (const InstanceSpec& inst : run.instances) {
    const std::string problem =
        inst.netlist.name + ';' + std::to_string(inst.fins) + ';' +
        core::EvalCache::context_key(inst.bias, default_nmos(),
                                     default_pmos());
    core::PrimitiveEvaluator*& eval = by_problem[problem];
    if (eval == nullptr) {
      run.evaluators.push_back(
          std::make_unique<core::PrimitiveEvaluator>(make_evaluator(inst)));
      eval = run.evaluators.back().get();
      eval->set_diagnostics(&run.sink);
      eval->set_budget(&run.budget);
      if (cache != nullptr) eval->set_cache(cache, options_.cache_client);
    }
    run.evaluator_of[inst.name] = eval;
  }
}

FlowEngine::Choice FlowEngine::select_optimized(Run& run) const {
  FlowReport& report = run.report;
  // --- Primitive layout optimization (Algorithm 1), once per problem.
  obs::Span selection_span("selection");
  make_evaluators(run);
  const pcell::PrimitiveGenerator generator(tech_);
  std::map<const core::PrimitiveEvaluator*,
           const std::vector<core::LayoutCandidate>*>
      solved;
  for (const InstanceSpec& inst : run.instances) {
    const core::PrimitiveEvaluator* eval = run.evaluator_of.at(inst.name);
    std::vector<core::LayoutCandidate>& options = report.options[inst.name];
    const auto [it, first] = solved.try_emplace(eval, &options);
    if (first) {
      core::PrimitiveOptimizer optimizer(generator, *eval, &run.sink,
                                         &run.budget, pool());
      core::OptimizerOptions oopt;
      oopt.bins = options_.bins;
      oopt.max_tuning_wires = options_.max_tuning_wires;
      options = optimizer.optimize(inst.netlist, inst.fins, oopt);
    } else {
      obs::counter_add("flow.dedup_hits");
      options = *it->second;
    }
  }
  selection_span.close();
  run.checkpoint("selection", "budget.checks.selection");

  // --- Choose one option per instance for the floorplan. With few
  // combinations, trial-place each; otherwise take the min-cost option.
  obs::Span combo_span("combo_choice");
  long combos = 1;
  for (const InstanceSpec& inst : run.instances) {
    combos *= static_cast<long>(report.options[inst.name].size());
    if (combos > 64) break;
  }
  // The all-first-options combination pre-seeds the choice, so a budget
  // trip before the first trial still yields a complete one.
  std::map<std::string, int> combo;
  for (const InstanceSpec& inst : run.instances) combo[inst.name] = 0;
  report.chosen_option = combo;
  if (combos > 1 && combos <= 64) {
    double best_metric = std::numeric_limits<double>::infinity();
    place::PlacerOptions trial_popt;
    trial_popt.iterations = options_.combo_place_iterations;
    trial_popt.seed = options_.seed;
    trial_popt.budget = &run.budget;
    bool done = false;
    while (!done) {
      // Budget-bounded trials: keep the best combination tried so far.
      if (run.budget.check()) break;
      // Quick placement trial of this combination.
      std::map<std::string, const pcell::PrimitiveLayout*> layouts;
      double cost_sum = 0.0;
      for (const InstanceSpec& inst : run.instances) {
        const core::LayoutCandidate& cand =
            report.options[inst.name][static_cast<std::size_t>(
                combo[inst.name])];
        layouts[inst.name] = &cand.layout;
        cost_sum += cand.cost.total;
      }
      obs::counter_add("flow.combo_trials");
      // The score reads the placement alone, so a trial is only placed:
      // never routed, and it writes no stage artifact. It reports into the
      // run's sink and anneals on the run's budget, but stage checkpoints
      // belong to the main run only.
      const place::PlacementResult trial =
          place_layouts(run.instances, layouts, run.routed_nets, trial_popt,
                        run.sink)
              .placement;
      const double area = trial.width * trial.height;
      const double metric =
          cost_sum * (1.0 + 0.2 * trial.hpwl / 1e-6) + area / 1e-12 * 0.01;
      if (metric < best_metric) {
        best_metric = metric;
        report.chosen_option = combo;
      }
      // Advance the combination counter.
      done = true;
      for (const InstanceSpec& inst : run.instances) {
        int& idx = combo[inst.name];
        if (++idx < static_cast<int>(report.options[inst.name].size())) {
          done = false;
          break;
        }
        idx = 0;
      }
    }
  }
  combo_span.close();
  run.checkpoint("combo_choice", "budget.checks.combo");

  Choice chosen;
  for (const InstanceSpec& inst : run.instances) {
    chosen[inst.name] = report.options[inst.name][static_cast<std::size_t>(
        report.chosen_option.at(inst.name))];
  }
  return chosen;
}

FlowEngine::Choice FlowEngine::generate_conventional(Run& run) const {
  // Per primitive, the ABBA configuration (multi-row when any exists, no
  // dummies) with the least area·(1 + 2·|ln AR|). Geometric constraints are
  // honored but nothing is optimized for parasitics or LDE.
  obs::Span generation_span("generation");
  const pcell::PrimitiveGenerator generator(tech_);
  Choice chosen;
  for (const InstanceSpec& inst : run.instances) {
    // Conventional tools honor the matching constraint (common-centroid
    // rows) but never look at parasitics or LDE.
    std::vector<pcell::LayoutConfig> configs =
        pcell::PrimitiveGenerator::enumerate_configs(
            inst.fins, {pcell::PlacementPattern::kABBA});
    OLP_CHECK(!configs.empty(), "no configuration for " + inst.name);
    // A conventional generator picks a compact, roughly square cell; it just
    // never looks at parasitics or LDEs when doing so.
    // Standard generators realize matched structures as 2-D common-centroid
    // arrays, so prefer multi-row configurations when any exist.
    bool has_multirow = false;
    for (const pcell::LayoutConfig& cfg : configs) {
      if (cfg.m >= 2) has_multirow = true;
    }
    // The score reads only the outline, so configurations are scored on
    // footprints and only the winner gets its full layout.
    double best_score = std::numeric_limits<double>::infinity();
    pcell::PrimitiveLayout best;
    for (pcell::LayoutConfig cfg : configs) {
      if (has_multirow && cfg.m < 2) continue;
      // Budget-bounded enumeration: always score at least one layout per
      // instance, then keep the best of the configurations scored so far.
      if (best_score < std::numeric_limits<double>::infinity() &&
          run.budget.check()) {
        break;
      }
      cfg.dummies = false;
      pcell::PrimitiveLayout cand = generator.footprint(inst.netlist, cfg);
      const double squareness = std::fabs(std::log(cand.aspect_ratio()));
      const double score = cand.area() * (1.0 + 2.0 * squareness);
      if (score < best_score) {
        best_score = score;
        best = std::move(cand);
      }
    }
    generator.materialize(best);
    chosen[inst.name].layout = std::move(best);
  }
  generation_span.close();
  run.checkpoint("generation", "budget.checks.generation");
  return chosen;
}

FlowEngine::Choice FlowEngine::select_oracle(Run& run) const {
  // Exhaustive per-primitive search: tune the five cheapest configurations
  // and keep the global minimum (no aspect-ratio binning — the "manual"
  // designer iterates as long as needed).
  obs::Span selection_span("selection");
  make_evaluators(run);
  const pcell::PrimitiveGenerator generator(tech_);
  Choice chosen;
  std::map<const core::PrimitiveEvaluator*, const core::LayoutCandidate*>
      solved;
  for (const InstanceSpec& inst : run.instances) {
    const core::PrimitiveEvaluator* eval = run.evaluator_of.at(inst.name);
    core::LayoutCandidate& pick = chosen[inst.name];
    const auto [it, first] = solved.try_emplace(eval, &pick);
    if (!first) {
      pick = *it->second;
      continue;
    }
    core::PrimitiveOptimizer optimizer(generator, *eval, &run.sink,
                                       &run.budget, pool());
    std::vector<core::LayoutCandidate> all =
        optimizer.evaluate_all(inst.netlist, inst.fins);
    std::sort(all.begin(), all.end(),
              [](const core::LayoutCandidate& a,
                 const core::LayoutCandidate& b) {
                return a.cost.total < b.cost.total;
              });
    const std::size_t try_n = std::min<std::size_t>(5, all.size());
    // The five to tune, the front-runner among them, get full layouts.
    for (std::size_t k = 0; k < try_n; ++k) {
      generator.materialize(all[k].layout);
    }
    pick = all.front();
    double best_cost = std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < try_n; ++k) {
      // Budget-bounded exhaustive tuning: keep the cheapest candidate
      // tuned so far (`pick` starts as the untuned front-runner).
      if (run.budget.check()) break;
      core::LayoutCandidate cand = all[k];
      optimizer.tune(cand, options_.max_tuning_wires);
      if (cand.cost.total < best_cost) {
        best_cost = cand.cost.total;
        pick = cand;
      }
    }
  }
  selection_span.close();
  run.checkpoint("selection", "budget.checks.selection");
  return chosen;
}

void FlowEngine::place_and_route(Run& run, const Choice& chosen) const {
  FlowReport& report = run.report;
  std::map<std::string, const pcell::PrimitiveLayout*> layouts;
  for (const auto& [name, cand] : chosen) layouts[name] = &cand.layout;
  const std::string artifact_prefix = flow_mode_name(run.mode);
  place::PlacerOptions popt;
  popt.iterations = options_.placer_iterations;
  popt.seed = options_.seed;
  popt.budget = &run.budget;
  const Floorplan fp =
      place_layouts(run.instances, layouts, run.routed_nets, popt, run.sink);
  for (const place::Block& b : fp.blocks) {
    report.placed_instances.push_back(b.name);
  }
  report.placement = fp.placement;
  run.checkpoint("placement", "budget.checks.placement");
  if (!options_.trace_artifacts_dir.empty()) {
    write_stage_artifact(tech_, options_.trace_artifacts_dir,
                         artifact_prefix + "_placement.svg", run.instances,
                         layouts, report, /*with_routes=*/false, &run.sink);
  }

  // Global routing.
  obs::Span routing_span("routing");
  const geom::Rect region{
      0, 0, geom::to_nm(report.placement.width),
      geom::to_nm(report.placement.height)};
  route::GlobalRouter router(tech_, region);
  router.set_diagnostics(&run.sink);
  router.set_budget(&run.budget);
  // Nets route one at a time in placement-net order. The budget is checked
  // before each net: once it trips, the remaining nets come back
  // routed=false with only their name set and degrade downstream, while the
  // nets routed before the trip are kept.
  for (const place::PlacementNet& pn : fp.nets) {
    route::NetRoute nr;
    if (run.budget.check()) {
      nr.net = pn.name;
    } else {
      std::vector<geom::Point> pins;
      pins.reserve(pn.pins.size());
      for (const place::PlacementNet::PinRef& ref : pn.pins) {
        const place::PlacedBlock& pb =
            report.placement.blocks[static_cast<std::size_t>(ref.block)];
        const place::Block& blk =
            fp.blocks[static_cast<std::size_t>(ref.block)];
        const double dx = pb.mirrored ? blk.width - ref.dx : ref.dx;
        pins.push_back(geom::Point{geom::to_nm(pb.x + dx),
                                   geom::to_nm(pb.y + ref.dy)});
      }
      nr = router.route(pn.name, pins);
    }
    if (!nr.routed) {
      OLP_WARN << "global routing failed for net " << pn.name;
    }
    report.routes[pn.name] = std::move(nr);
  }
  routing_span.close();
  run.checkpoint("routing", "budget.checks.routing");
  if (!options_.trace_artifacts_dir.empty()) {
    write_stage_artifact(tech_, options_.trace_artifacts_dir,
                         artifact_prefix + "_routed.svg", run.instances,
                         layouts, report, /*with_routes=*/true, &run.sink);
  }

  // Every requested net that ended up unrouted: the realization falls back
  // to schematic-net parasitics for it. Nets with fewer than two placed pins
  // are never handed to the router; that is not a failure.
  for (const std::string& net : run.routed_nets) {
    const auto it = report.routes.find(net);
    if (it == report.routes.end() || it->second.routed) continue;
    run.sink.report(DiagSeverity::kWarning, "flow", net,
                    "net unrouted; degrading to schematic-net parasitics");
  }
}

void FlowEngine::choose_wire_counts(Run& run, const Choice& chosen) const {
  FlowReport& report = run.report;
  obs::Span portopt_span("port_optimization");
  core::PortOptimizer port_opt(tech_, {kMaxPortWires});
  port_opt.set_diagnostics(&run.sink);
  port_opt.set_budget(&run.budget);
  port_opt.set_pool(pool());
  // Algorithm 2's view of each instance with a routed net at a port: its
  // evaluator, chosen layout and tuning, and those routes.
  std::vector<core::PortOptPrimitive> pops;
  for (const InstanceSpec& inst : run.instances) {
    const core::LayoutCandidate& cand = chosen.at(inst.name);
    core::PortOptPrimitive pop;
    pop.instance = inst.name;
    pop.evaluator = run.evaluator_of.at(inst.name);
    pop.layout = &cand.layout;
    pop.tuning = cand.tuning;
    for (const auto& [port, net] : inst.port_nets) {
      const auto rit = report.routes.find(net);
      if (rit == report.routes.end() || !rit->second.routed) continue;
      pop.routes.push_back(core::PortRoute{port, net, rit->second});
    }
    if (!pop.routes.empty()) pops.push_back(std::move(pop));
  }
  if (run.mode == FlowMode::kOptimize) {
    for (const core::PortOptPrimitive& pop : pops) {
      std::vector<core::PortConstraint> pcs =
          port_opt.generate_constraints(pop);
      report.constraints.insert(report.constraints.end(), pcs.begin(),
                                pcs.end());
    }
    report.decisions = port_opt.reconcile(pops, report.constraints);
  } else {
    // The oracle runs both steps through PortOptimizer::optimize and, like
    // the manual designer it stands in for, reports no constraints.
    report.decisions = port_opt.optimize(pops);
  }
  equalize_symmetric_nets(run.instances, report.decisions);
  portopt_span.close();
  run.checkpoint("port_optimization", "budget.checks.portopt");
}

Realization FlowEngine::realize(const Run& run, Choice chosen) const {
  obs::Span realization_span("realization");
  const ModeRow& row = mode_row(run.mode);
  Realization real;
  real.ideal = false;
  for (auto& [name, cand] : chosen) {
    OLP_CHECK(!cand.layout.footprint_only,
              "realization got the footprint of " + name);
    real.layouts[name] = std::move(cand.layout);
    if (row.tunes) real.tunings[name] = std::move(cand.tuning);
  }
  const std::map<std::string, route::NetRoute>& routes = run.report.routes;
  for (const core::NetWireDecision& d : run.report.decisions) {
    const auto rit = routes.find(d.circuit_net);
    if (rit == routes.end() || !rit->second.routed) continue;
    real.net_wires[d.circuit_net] =
        core::route_wire_rc(tech_, rit->second, d.parallel_routes);
  }
  // Routed nets without a decision carry their wire at the mode's default.
  for (const auto& [net, route] : routes) {
    if (!route.routed || real.net_wires.count(net)) continue;
    real.net_wires[net] = core::route_wire_rc(tech_, route, row.default_wires);
  }
  return real;
}

}  // namespace olp::circuits
