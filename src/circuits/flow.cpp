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

/// Signature for deduplicating identical primitive optimization problems
/// (same netlist, size, and bias): the VCO's 16 inverters optimize once.
std::string instance_signature(const InstanceSpec& inst) {
  std::string sig = inst.netlist.name + "/" + std::to_string(inst.fins);
  char buf[64];
  std::snprintf(buf, sizeof buf, "/%.4f/%.6g", inst.bias.vdd,
                inst.bias.bias_current);
  sig += buf;
  for (const auto& [port, v] : inst.bias.port_voltage) {
    std::snprintf(buf, sizeof buf, "/%s=%.3f", port.c_str(), v);
    sig += buf;
  }
  return sig;
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

/// Stage checkpoint at a flow stage boundary: emits the per-stage budget
/// check counter and remaining-budget distributions, and — when the budget
/// is exhausted — a stage-attributed diagnostic with stage == "budget". The
/// FIRST such record in a report names the stage whose work the trip
/// interrupted (earlier checkpoints ran before the trip and stay silent);
/// later stages also report, since they too salvaged degraded results.
void budget_checkpoint(Budget& budget, BudgetObserver& budget_obs,
                       DiagnosticsSink& sink, const char* stage,
                       const char* checks_counter) {
  budget_obs.stage_boundary(checks_counter);
  if (budget.exhausted()) {
    obs::counter_add("budget.stages_degraded");
    sink.report(DiagSeverity::kWarning, "budget", stage,
                budget.description() + "; salvaged best-so-far results");
  }
}

/// End-of-run budget bookkeeping: stores the final consumption snapshot on
/// the report and emits the budget.* summary counters the telemetry's
/// budget section is derived from. Must run before the root span closes so
/// the counters land in the same snapshot.
void finish_budget(const Budget& budget, FlowReport& report) {
  report.budget = budget.status();
  if (!obs::enabled()) return;
  const BudgetStatus& s = report.budget;
  obs::counter_add("budget.checks_total", s.checks);
  obs::counter_add("budget.testbenches_consumed", s.testbenches_consumed);
  obs::record("budget.elapsed_ms", s.elapsed_s * 1000.0);
  if (s.limited) obs::counter_add("budget.limited");
  if (s.deadline_s > 0.0) {
    // A deadline set through FlowOptions may exceed long in milliseconds;
    // converting that would be undefined behavior, so it saturates.
    constexpr long kMaxMs = std::numeric_limits<long>::max();
    const double ms = s.deadline_s * 1000.0;
    obs::counter_add("budget.deadline_ms",
                     ms < static_cast<double>(kMaxMs) ? static_cast<long>(ms)
                                                      : kMaxMs);
  }
  if (s.testbench_limit >= 0) {
    obs::counter_add("budget.testbench_limit", s.testbench_limit);
  }
  if (s.check_limit >= 0) {
    obs::counter_add("budget.check_limit", s.check_limit);
  }
  if (s.exhausted) {
    obs::counter_add("budget.exhausted");
    // The registry keys counter families by the name pointer and assumes it
    // outlives the registry's maps, so the kind must map to a string literal
    // rather than a composed temporary.
    switch (s.tripped) {
      case BudgetKind::kDeadline:
        obs::counter_add("budget.tripped.deadline");
        break;
      case BudgetKind::kTestbenches:
        obs::counter_add("budget.tripped.testbenches");
        break;
      case BudgetKind::kChecks:
        obs::counter_add("budget.tripped.checks");
        break;
      case BudgetKind::kCancelled:
        obs::counter_add("budget.tripped.cancelled");
        break;
      case BudgetKind::kInjected:
        obs::counter_add("budget.tripped.injected");
        break;
      case BudgetKind::kNone:
        break;
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
/// overwrites report.testbenches so the two views can never disagree.
void finish_telemetry(FlowReport& report) {
  if (!obs::enabled()) return;
  report.telemetry =
      obs::make_flow_telemetry(obs::Registry::global().snapshot());
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

/// Reports every requested net that ended up unrouted (the realization falls
/// back to schematic-net parasitics for it).
void report_unrouted_nets(DiagnosticsSink& sink,
                          const std::vector<std::string>& routed_nets,
                          const FlowReport& report) {
  for (const std::string& net : routed_nets) {
    const auto it = report.routes.find(net);
    // Nets with fewer than two placed pins are never handed to the router;
    // that is not a failure.
    if (it == report.routes.end() || it->second.routed) continue;
    sink.report(DiagSeverity::kWarning, "flow", net,
                "net unrouted; degrading to schematic-net parasitics");
  }
}

/// Root span name per mode ("flow." + flow_mode_name, as static storage —
/// obs::Span keeps only the pointer).
const char* flow_span_name(FlowMode mode) {
  switch (mode) {
    case FlowMode::kOptimize:
      return "flow.optimize";
    case FlowMode::kConventional:
      return "flow.conventional";
    case FlowMode::kManualOracle:
      return "flow.manual_oracle";
  }
  return "flow.unknown";
}

}  // namespace

const char* flow_mode_name(FlowMode mode) {
  switch (mode) {
    case FlowMode::kOptimize:
      return "optimize";
    case FlowMode::kConventional:
      return "conventional";
    case FlowMode::kManualOracle:
      return "manual_oracle";
  }
  return "unknown";
}

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
  obs::Span root(flow_span_name(mode));
  FlowReport report;
  DiagnosticsSink sink;
  // A caller-owned handle wins verbatim (cooperative cancellation); else
  // build a run-local budget from the options (env already folded in at
  // construction).
  Budget local_budget(options_.budget_limits);
  Budget* budget =
      options_.budget != nullptr ? options_.budget : &local_budget;
  BudgetObserver budget_obs(*budget);

  Realization real;
  switch (mode) {
    case FlowMode::kOptimize:
      real = run_optimize(instances, routed_nets, report, sink, *budget,
                          budget_obs);
      break;
    case FlowMode::kConventional:
      real = run_conventional(instances, routed_nets, report, sink, *budget,
                              budget_obs);
      break;
    case FlowMode::kManualOracle:
      real = run_manual_oracle(instances, routed_nets, report, sink, *budget,
                               budget_obs);
      break;
  }

  report.runtime_s = watch.seconds();
  finish_budget(*budget, report);
  root.close();
  if (options_.own_telemetry) finish_telemetry(report);
  finish_diagnostics(sink, report);
  if (report_out != nullptr) *report_out = std::move(report);
  return real;
}

void FlowEngine::place_and_route(
    const std::vector<InstanceSpec>& instances,
    const std::map<std::string, const pcell::PrimitiveLayout*>& layouts,
    const std::vector<std::string>& routed_nets, FlowReport& report,
    DiagnosticsSink* diag, const std::string& artifact_prefix, Budget* budget,
    BudgetObserver* budget_obs) const {
  obs::Span placement_span("placement");
  // Blocks and placement nets.
  std::vector<place::Block> blocks;
  std::vector<geom::Rect> block_bbox;  ///< per block, in instance order
  std::map<std::string, int> block_index;
  for (const InstanceSpec& inst : instances) {
    const pcell::PrimitiveLayout* layout = layouts.at(inst.name);
    OLP_CHECK(!layout->footprint_only,
              "place_and_route got the footprint of " + inst.name);
    block_bbox.push_back(layout->geometry.bounding_box());
    place::Block b;
    b.name = inst.name;
    b.width = geom::to_meters(block_bbox.back().width());
    b.height = geom::to_meters(block_bbox.back().height());
    block_index[inst.name] = static_cast<int>(blocks.size());
    blocks.push_back(b);
    report.placed_instances.push_back(inst.name);
  }
  std::vector<place::PlacementNet> pnets;
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
    if (pn.pins.size() >= 2) pnets.push_back(pn);
  }

  place::PlacerOptions popt;
  popt.iterations = options_.placer_iterations;
  popt.seed = options_.seed;
  popt.budget = budget;
  const place::AnnealingPlacer placer(popt);
  report.placement = placer.place(blocks, pnets, {});
  obs::counter_add("placer.runs");
  obs::record("placer.hpwl_um", report.placement.hpwl * 1e6);
  if (!report.placement.legal) {
    obs::counter_add("placer.illegal_results");
    if (diag != nullptr) {
      diag->report(DiagSeverity::kWarning, "placer", "placement",
                   "annealing result has residual overlaps (legal=false)");
    }
  }
  placement_span.close();
  if (budget != nullptr && budget_obs != nullptr && diag != nullptr) {
    budget_checkpoint(*budget, *budget_obs, *diag, "placement",
                      "budget.checks.placement");
  }
  if (!options_.trace_artifacts_dir.empty() && !artifact_prefix.empty()) {
    write_stage_artifact(tech_, options_.trace_artifacts_dir,
                         artifact_prefix + "_placement.svg", instances,
                         layouts, report, /*with_routes=*/false, diag);
  }

  // Global routing.
  obs::Span routing_span("routing");
  const geom::Rect region{
      0, 0, geom::to_nm(report.placement.width),
      geom::to_nm(report.placement.height)};
  route::GlobalRouter router(tech_, region);
  router.set_diagnostics(diag);
  router.set_budget(budget);
  // Nets route one at a time in placement-net order. The budget is checked
  // before each net: once it trips, the remaining nets come back
  // routed=false with only their name set and degrade downstream, while the
  // nets routed before the trip are kept.
  for (const place::PlacementNet& pn : pnets) {
    route::NetRoute nr;
    if (budget != nullptr && budget->check()) {
      nr.net = pn.name;
    } else {
      std::vector<geom::Point> pins;
      pins.reserve(pn.pins.size());
      for (const place::PlacementNet::PinRef& ref : pn.pins) {
        const place::PlacedBlock& pb =
            report.placement.blocks[static_cast<std::size_t>(ref.block)];
        const place::Block& blk = blocks[static_cast<std::size_t>(ref.block)];
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
  if (budget != nullptr && budget_obs != nullptr && diag != nullptr) {
    budget_checkpoint(*budget, *budget_obs, *diag, "routing",
                      "budget.checks.routing");
  }
  if (!options_.trace_artifacts_dir.empty() && !artifact_prefix.empty()) {
    write_stage_artifact(tech_, options_.trace_artifacts_dir,
                         artifact_prefix + "_routed.svg", instances, layouts,
                         report, /*with_routes=*/true, diag);
  }
}

Realization FlowEngine::run_optimize(
    const std::vector<InstanceSpec>& instances,
    const std::vector<std::string>& routed_nets, FlowReport& report,
    DiagnosticsSink& sink, Budget& budget, BudgetObserver& budget_obs) const {
  // --- Step A: primitive layout optimization (Algorithm 1), deduplicated.
  obs::Span selection_span("selection");
  std::map<std::string, std::vector<core::LayoutCandidate>> by_signature;
  std::vector<std::unique_ptr<core::PrimitiveEvaluator>> evaluators;
  std::map<std::string, core::PrimitiveEvaluator*> eval_by_instance;
  const pcell::PrimitiveGenerator generator(tech_);

  // Evaluation memo cache: a caller-owned shared cache wins (cross-run
  // sharing, batch mode); else an optional run-local cache, scoped to the
  // run so cross-run state can never leak. Most valuable for the repeated
  // schematic references in tuning and port sweeps.
  core::EvalCache local_cache;
  core::EvalCache* cache = options_.shared_eval_cache != nullptr
                               ? options_.shared_eval_cache
                               : (options_.eval_cache ? &local_cache : nullptr);
  for (const InstanceSpec& inst : instances) {
    auto eval = std::make_unique<core::PrimitiveEvaluator>(make_evaluator(inst));
    eval->set_diagnostics(&sink);
    eval->set_budget(&budget);
    if (cache != nullptr) eval->set_cache(cache, options_.cache_client);
    eval_by_instance[inst.name] = eval.get();
    const std::string sig = instance_signature(inst);
    if (!by_signature.count(sig)) {
      core::PrimitiveOptimizer optimizer(generator, *eval, &sink, &budget,
                                         pool());
      core::OptimizerOptions oopt;
      oopt.bins = options_.bins;
      oopt.max_tuning_wires = options_.max_tuning_wires;
      by_signature[sig] =
          optimizer.optimize(inst.netlist, inst.fins, oopt);
    } else {
      obs::counter_add("flow.dedup_hits");
    }
    report.options[inst.name] = by_signature.at(sig);
    evaluators.push_back(std::move(eval));
  }
  selection_span.close();
  budget_checkpoint(budget, budget_obs, sink, "selection",
                    "budget.checks.selection");

  // --- Step B: choose one option per instance for the floorplan. With few
  // combinations, trial-place each; otherwise take the min-cost option.
  obs::Span combo_span("combo_choice");
  std::map<std::string, int> chosen;
  long combos = 1;
  for (const InstanceSpec& inst : instances) {
    combos *= static_cast<long>(report.options[inst.name].size());
    if (combos > 64) break;
  }
  if (combos > 1 && combos <= 64) {
    double best_metric = std::numeric_limits<double>::infinity();
    std::map<std::string, int> combo, best_combo;
    for (const InstanceSpec& inst : instances) combo[inst.name] = 0;
    // Pre-seed with the all-first-options combination so a budget trip
    // before the first trial still yields a complete choice.
    best_combo = combo;
    bool done = false;
    while (!done) {
      // Budget-bounded trials: keep the best combination tried so far.
      if (budget.check()) break;
      // Quick placement trial of this combination.
      std::map<std::string, const pcell::PrimitiveLayout*> layouts;
      double cost_sum = 0.0;
      for (const InstanceSpec& inst : instances) {
        const core::LayoutCandidate& cand =
            report.options[inst.name][static_cast<std::size_t>(
                combo[inst.name])];
        layouts[inst.name] = &cand.layout;
        cost_sum += cand.cost.total;
      }
      FlowReport trial;
      FlowOptions quick = options_;
      quick.placer_iterations = options_.combo_place_iterations;
      // Quick trials never write stage artifacts (they would overwrite the
      // real run's snapshots dozens of times).
      quick.trace_artifacts_dir.clear();
      FlowEngine quick_engine(tech_, quick);
      obs::counter_add("flow.combo_trials");
      // The trial report is discarded, but its diagnostics must not be:
      // sharing the sink keeps the per-fault accounting exact. The budget is
      // shared too (trials consume real work), but without a budget observer
      // — stage checkpoints belong to the main run only.
      quick_engine.place_and_route(instances, layouts, routed_nets, trial,
                                   &sink, std::string(), &budget);
      const double area = trial.placement.width * trial.placement.height;
      const double metric =
          cost_sum * (1.0 + 0.2 * trial.placement.hpwl / 1e-6) +
          area / 1e-12 * 0.01;
      if (metric < best_metric) {
        best_metric = metric;
        best_combo = combo;
      }
      // Advance the combination counter.
      done = true;
      for (const InstanceSpec& inst : instances) {
        int& idx = combo[inst.name];
        if (++idx < static_cast<int>(report.options[inst.name].size())) {
          done = false;
          break;
        }
        idx = 0;
      }
    }
    chosen = best_combo;
  } else {
    for (const InstanceSpec& inst : instances) chosen[inst.name] = 0;
  }
  report.chosen_option = chosen;
  combo_span.close();
  budget_checkpoint(budget, budget_obs, sink, "combo_choice",
                    "budget.checks.combo");

  std::map<std::string, const pcell::PrimitiveLayout*> layouts;
  for (const InstanceSpec& inst : instances) {
    layouts[inst.name] =
        &report.options[inst.name][static_cast<std::size_t>(
                                       chosen[inst.name])]
             .layout;
  }

  // --- Step C: placement + global routing of the chosen options.
  place_and_route(instances, layouts, routed_nets, report, &sink, "optimize",
                  &budget, &budget_obs);
  report_unrouted_nets(sink, routed_nets, report);

  // --- Step D: primitive port optimization (Algorithm 2).
  obs::Span portopt_span("port_optimization");
  core::PortOptimizerOptions popt;
  popt.max_wires = options_.max_port_wires;
  core::PortOptimizer port_opt(tech_, popt);
  port_opt.set_diagnostics(&sink);
  port_opt.set_budget(&budget);
  port_opt.set_pool(pool());
  std::vector<core::PortOptPrimitive> pops;
  for (const InstanceSpec& inst : instances) {
    core::PortOptPrimitive pop;
    pop.instance = inst.name;
    pop.evaluator = eval_by_instance.at(inst.name);
    pop.layout = layouts.at(inst.name);
    pop.tuning = report.options[inst.name][static_cast<std::size_t>(
                                               chosen[inst.name])]
                     .tuning;
    for (const auto& [port, net] : inst.port_nets) {
      const auto rit = report.routes.find(net);
      if (rit == report.routes.end() || !rit->second.routed) continue;
      core::PortRoute pr;
      pr.port = port;
      pr.circuit_net = net;
      pr.route = rit->second;
      pop.routes.push_back(std::move(pr));
    }
    if (!pop.routes.empty()) pops.push_back(std::move(pop));
  }
  for (const core::PortOptPrimitive& pop : pops) {
    std::vector<core::PortConstraint> pcs = port_opt.generate_constraints(pop);
    report.constraints.insert(report.constraints.end(), pcs.begin(),
                              pcs.end());
  }
  report.decisions = port_opt.reconcile(pops, report.constraints);
  equalize_symmetric_nets(instances, report.decisions);
  portopt_span.close();
  budget_checkpoint(budget, budget_obs, sink, "port_optimization",
                    "budget.checks.portopt");

  // --- Assemble the realization.
  obs::Span realization_span("realization");
  Realization real;
  real.ideal = false;
  for (const InstanceSpec& inst : instances) {
    const core::LayoutCandidate& cand =
        report.options[inst.name][static_cast<std::size_t>(
            chosen[inst.name])];
    OLP_CHECK(!cand.layout.footprint_only,
              "realization got the footprint of " + inst.name);
    real.layouts[inst.name] = cand.layout;
    real.tunings[inst.name] = cand.tuning;
  }
  for (const core::NetWireDecision& d : report.decisions) {
    const auto rit = report.routes.find(d.circuit_net);
    if (rit == report.routes.end() || !rit->second.routed) continue;
    real.net_wires[d.circuit_net] =
        core::route_wire_rc(tech_, rit->second, d.parallel_routes);
  }
  // Routed nets without a decision (no constraints) still carry their wire.
  for (const auto& [net, route] : report.routes) {
    if (!route.routed || real.net_wires.count(net)) continue;
    real.net_wires[net] = core::route_wire_rc(tech_, route, 1);
  }
  realization_span.close();

  long tb = 0;
  for (const auto& e : evaluators) tb += e->stats().testbenches;
  report.testbenches = tb;
  return real;
}

Realization FlowEngine::run_conventional(
    const std::vector<InstanceSpec>& instances,
    const std::vector<std::string>& routed_nets, FlowReport& report,
    DiagnosticsSink& sink, Budget& budget, BudgetObserver& budget_obs) const {
  const pcell::PrimitiveGenerator generator(tech_);

  // Per primitive, the ABBA configuration (multi-row when any exists, no
  // dummies) with the least area·(1 + 2·|ln AR|); every net is then routed
  // at two tracks. Geometric constraints are honored but nothing is
  // optimized for parasitics or LDE.
  obs::Span generation_span("generation");
  Realization real;
  real.ideal = false;
  std::map<std::string, const pcell::PrimitiveLayout*> layouts;
  for (const InstanceSpec& inst : instances) {
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
          budget.check()) {
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
    real.layouts[inst.name] = std::move(best);
  }
  generation_span.close();
  budget_checkpoint(budget, budget_obs, sink, "generation",
                    "budget.checks.generation");
  for (const InstanceSpec& inst : instances) {
    layouts[inst.name] = &real.layouts.at(inst.name);
  }
  place_and_route(instances, layouts, routed_nets, report, &sink,
                  "conventional", &budget, &budget_obs);
  report_unrouted_nets(sink, routed_nets, report);
  // Conventional routing uses the PDK's default analog route width (two
  // tracks) everywhere -- fixed, never optimized per net.
  for (const auto& [net, route] : report.routes) {
    if (!route.routed) continue;
    real.net_wires[net] = core::route_wire_rc(tech_, route, 2);
  }
  return real;
}

Realization FlowEngine::run_manual_oracle(
    const std::vector<InstanceSpec>& instances,
    const std::vector<std::string>& routed_nets, FlowReport& report,
    DiagnosticsSink& sink, Budget& budget, BudgetObserver& budget_obs) const {
  const pcell::PrimitiveGenerator generator(tech_);

  // Exhaustive per-primitive search: tune the five cheapest configurations
  // and keep the global minimum (no aspect-ratio binning — the "manual"
  // designer iterates as long as needed).
  std::map<std::string, core::LayoutCandidate> chosen;
  std::vector<std::unique_ptr<core::PrimitiveEvaluator>> evaluators;
  std::map<std::string, core::PrimitiveEvaluator*> eval_by_instance;
  std::map<std::string, std::string> sig_of;
  std::map<std::string, core::LayoutCandidate> by_signature;

  obs::Span selection_span("selection");
  core::EvalCache local_cache;
  core::EvalCache* cache = options_.shared_eval_cache != nullptr
                               ? options_.shared_eval_cache
                               : (options_.eval_cache ? &local_cache : nullptr);
  for (const InstanceSpec& inst : instances) {
    auto eval = std::make_unique<core::PrimitiveEvaluator>(make_evaluator(inst));
    eval->set_diagnostics(&sink);
    eval->set_budget(&budget);
    if (cache != nullptr) eval->set_cache(cache, options_.cache_client);
    eval_by_instance[inst.name] = eval.get();
    const std::string sig = instance_signature(inst);
    sig_of[inst.name] = sig;
    if (!by_signature.count(sig)) {
      core::PrimitiveOptimizer optimizer(generator, *eval, &sink, &budget,
                                         pool());
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
      core::LayoutCandidate best = all.front();
      double best_cost = std::numeric_limits<double>::infinity();
      for (std::size_t k = 0; k < try_n; ++k) {
        // Budget-bounded exhaustive tuning: keep the cheapest candidate
        // tuned so far (`best` starts as the untuned front-runner).
        if (budget.check()) break;
        core::LayoutCandidate cand = all[k];
        optimizer.tune(cand, options_.max_tuning_wires);
        if (cand.cost.total < best_cost) {
          best_cost = cand.cost.total;
          best = cand;
        }
      }
      by_signature[sig] = best;
    }
    chosen[inst.name] = by_signature.at(sig);
    evaluators.push_back(std::move(eval));
  }
  selection_span.close();
  budget_checkpoint(budget, budget_obs, sink, "selection",
                    "budget.checks.selection");

  std::map<std::string, const pcell::PrimitiveLayout*> layouts;
  for (const InstanceSpec& inst : instances) {
    layouts[inst.name] = &chosen.at(inst.name).layout;
  }
  place_and_route(instances, layouts, routed_nets, report, &sink,
                  "manual_oracle", &budget, &budget_obs);
  report_unrouted_nets(sink, routed_nets, report);

  // Exhaustive per-net wire count by total primitive cost.
  obs::Span portopt_span("port_optimization");
  Realization real;
  real.ideal = false;
  for (const InstanceSpec& inst : instances) {
    OLP_CHECK(!chosen.at(inst.name).layout.footprint_only,
              "realization got the footprint of " + inst.name);
    real.layouts[inst.name] = chosen.at(inst.name).layout;
    real.tunings[inst.name] = chosen.at(inst.name).tuning;
  }
  core::PortOptimizerOptions popt;
  popt.max_wires = options_.max_port_wires;
  core::PortOptimizer port_opt(tech_, popt);
  port_opt.set_diagnostics(&sink);
  port_opt.set_budget(&budget);
  port_opt.set_pool(pool());
  std::vector<core::PortOptPrimitive> pops;
  for (const InstanceSpec& inst : instances) {
    core::PortOptPrimitive pop;
    pop.instance = inst.name;
    pop.evaluator = eval_by_instance.at(inst.name);
    pop.layout = layouts.at(inst.name);
    pop.tuning = chosen.at(inst.name).tuning;
    for (const auto& [port, net] : inst.port_nets) {
      const auto rit = report.routes.find(net);
      if (rit == report.routes.end() || !rit->second.routed) continue;
      pop.routes.push_back(core::PortRoute{port, net, rit->second});
    }
    if (!pop.routes.empty()) pops.push_back(std::move(pop));
  }
  report.decisions = port_opt.optimize(pops);
  equalize_symmetric_nets(instances, report.decisions);
  portopt_span.close();
  budget_checkpoint(budget, budget_obs, sink, "port_optimization",
                    "budget.checks.portopt");
  obs::Span realization_span("realization");
  for (const core::NetWireDecision& d : report.decisions) {
    const auto rit = report.routes.find(d.circuit_net);
    if (rit == report.routes.end() || !rit->second.routed) continue;
    real.net_wires[d.circuit_net] =
        core::route_wire_rc(tech_, rit->second, d.parallel_routes);
  }
  for (const auto& [net, route] : report.routes) {
    if (!route.routed || real.net_wires.count(net)) continue;
    real.net_wires[net] = core::route_wire_rc(tech_, route, 1);
  }
  realization_span.close();

  long tb = 0;
  for (const auto& eval : evaluators) tb += eval->stats().testbenches;
  report.testbenches = tb;
  return real;
}

}  // namespace olp::circuits
