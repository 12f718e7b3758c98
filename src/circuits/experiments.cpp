#include "circuits/experiments.hpp"

#include <chrono>

#include "core/cost.hpp"
#include "core/port_optimizer.hpp"
#include "pcell/generator.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace olp::circuits {

namespace {

/// The relative deviation of `kind` in a cost breakdown; 0 when absent.
double deviation_of(const core::CostBreakdown& cost, core::MetricKind kind) {
  for (const core::MetricDeviation& term : cost.terms) {
    if (term.spec.kind == kind) return term.deviation;
  }
  return 0.0;
}

/// The Table III / IV differential pair's bias: 706 uA tail, 25 fF drain
/// loads.
core::BiasContext dp_bias(const tech::Technology& t) {
  core::BiasContext bias;
  bias.vdd = t.vdd;
  bias.bias_current = 706e-6;
  bias.port_voltage = {
      {"ga", 0.5}, {"gb", 0.5}, {"da", 0.5}, {"db", 0.5}, {"s", 0.2}};
  bias.port_load_cap = {{"da", 25e-15}, {"db", 25e-15}};
  return bias;
}

/// The paper's reference port route: 2 um on metal 3 plus a 2-cut stack.
route::NetRoute reference_route() {
  route::NetRoute route;
  route.net = "ref";
  route.routed = true;
  route.vias = 2;
  route.segments.push_back(route::RouteSegment{
      tech::Layer::kM3, geom::Point{0, 0}, geom::Point{geom::to_nm(2e-6), 0}});
  return route;
}

/// One Table V column: Algorithm 1's selection and tuning, then Algorithm
/// 2's port constraints, counting each step's testbenches.
StepCountsRow count_steps(const tech::Technology& t, std::string primitive,
                          const pcell::PrimitiveNetlist& netlist, int fins,
                          const core::BiasContext& bias,
                          const std::vector<std::string>& port_nets) {
  const auto t0 = std::chrono::steady_clock::now();
  const pcell::PrimitiveGenerator generator(t);
  const core::PrimitiveEvaluator evaluator(t, default_nmos(), default_pmos(),
                                           bias);
  const core::PrimitiveOptimizer optimizer(generator, evaluator);
  StepCountsRow row;
  row.primitive = std::move(primitive);
  core::OptimizerOptions oopt;
  oopt.bins = 3;

  // Step 1: primitive selection.
  evaluator.stats().reset();
  const std::vector<core::LayoutCandidate> all =
      optimizer.evaluate_all(netlist, fins, oopt);
  row.selection = evaluator.stats().testbenches;
  row.configs = static_cast<int>(all.size());

  // Keep the per-bin best, as Algorithm 1 does.
  std::vector<int> best(3, -1);
  for (std::size_t i = 0; i < all.size(); ++i) {
    int& b = best[static_cast<std::size_t>(all[i].bin)];
    if (b < 0 || all[i].cost.total <
                     all[static_cast<std::size_t>(b)].cost.total) {
      b = static_cast<int>(i);
    }
  }

  // Step 2: primitive tuning of the selected layouts.
  evaluator.stats().reset();
  std::vector<core::LayoutCandidate> selected;
  for (const int idx : best) {
    if (idx < 0) continue;
    core::LayoutCandidate cand = all[static_cast<std::size_t>(idx)];
    optimizer.tune(cand);
    selected.push_back(std::move(cand));
  }
  row.tuning = evaluator.stats().testbenches;

  // Step 3: net routing constraints on the first tuned layout.
  evaluator.stats().reset();
  core::PortOptPrimitive pop;
  pop.instance = netlist.name;
  pop.evaluator = &evaluator;
  pop.layout = &selected.front().layout;
  pop.tuning = selected.front().tuning;
  for (const std::string& port : port_nets) {
    core::PortRoute pr;
    pr.port = port;
    pr.circuit_net = "net_" + port;
    pr.route = reference_route();
    pop.routes.push_back(std::move(pr));
  }
  (void)core::PortOptimizer(t).generate_constraints(pop);
  row.port = evaluator.stats().testbenches;

  row.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return row;
}

/// Measures `circuit`'s schematic, then runs and measures its conventional,
/// optimized and (with `with_manual`) manual-oracle flows on one engine,
/// keeping each realization with its metrics.
template <typename CircuitT, typename... Args>
CircuitExperiment run_flows(const tech::Technology& t, const CircuitT& circuit,
                            const FlowOptions& options, bool with_manual,
                            const Args&... measure_args) {
  CircuitExperiment ex;
  const auto keep = [&](const std::string& flavor, Realization real) {
    ex.results[flavor] = circuit.measure(real, measure_args...);
    ex.realizations[flavor] = std::move(real);
  };
  keep("schematic", schematic_realization(circuit.instances(), t));
  const FlowEngine engine(t, options);
  const auto run = [&](FlowMode mode, FlowReport* report) {
    return engine.run(mode, circuit.instances(), circuit.routed_nets(),
                      report);
  };
  keep("conventional", run(FlowMode::kConventional, &ex.conventional_report));
  keep("this_work", run(FlowMode::kOptimize, &ex.optimized_report));
  if (with_manual) {
    keep("manual", run(FlowMode::kManualOracle, &ex.manual_report));
  }
  return ex;
}

}  // namespace

CircuitExperiment run_ota(const tech::Technology& t,
                          const FlowOptions& options, bool with_manual) {
  Ota5T ota(t);
  OLP_CHECK(ota.prepare(), "OTA schematic preparation failed");
  return run_flows(t, ota, options, with_manual);
}

CircuitExperiment run_strongarm(const tech::Technology& t,
                                const FlowOptions& options, bool with_manual) {
  StrongArmComparator sa(t);
  OLP_CHECK(sa.prepare(), "StrongARM preparation failed");
  return run_flows(t, sa, options, with_manual);
}

CircuitExperiment run_vco(const tech::Technology& t,
                          const FlowOptions& options,
                          const std::vector<double>& vctrls) {
  RoVco vco(t);
  OLP_CHECK(vco.prepare(), "VCO preparation failed");
  return run_flows(t, vco, options, /*with_manual=*/false, vctrls);
}

CircuitExperiment run_cs_amp(const tech::Technology& t,
                             const FlowOptions& options) {
  CommonSourceAmp cs(t);
  OLP_CHECK(cs.prepare(), "CS amplifier preparation failed");

  CircuitExperiment ex;
  ex.results["schematic"] =
      cs.measure(schematic_realization(cs.instances(), t));

  // Optimize the primitive layouts once (Algorithm 1); the sweep then only
  // varies the width of the Vout route (paper Fig. 2).
  FlowEngine engine(t, options);
  FlowReport report;
  Realization opt =
      engine.run(FlowMode::kOptimize, cs.instances(), cs.routed_nets(), &report);
  ex.optimized_report = report;

  const auto rit = report.routes.find("out");
  OLP_CHECK(rit != report.routes.end() && rit->second.routed,
            "CS amplifier out net was not routed");
  const route::NetRoute& out_route = rit->second;

  int w_opt = 1;
  for (const core::NetWireDecision& d : report.decisions) {
    if (d.circuit_net == "out") w_opt = d.parallel_routes;
  }

  // Fig. 2 varies the width of everything carrying Vout: the external route
  // AND the primitives' internal drain straps. `wires <= 0` keeps the flow's
  // own tuning/port decision (the "optimized" column).
  auto measure_width = [&](int wires) {
    Realization r = opt;
    if (wires > 0) {
      r.net_wires["out"] = core::route_wire_rc(t, out_route, wires);
      for (auto& [inst, tuning] : r.tunings) {
        (void)inst;
        tuning["out"] = wires;
      }
    }
    return cs.measure(r);
  };
  ex.results["narrow"] = measure_width(1);
  ex.results["wide"] = measure_width(kMaxPortWires);
  ex.results["optimized"] = measure_width(0);
  ex.results["optimized"]["wires"] = w_opt;

  // Table I primitive-level metrics per flavor: evaluate the CS stage and
  // the load with the out-route RC attached at their out ports.
  auto primitive_metrics = [&](int wires, const std::string& tag) {
    for (const InstanceSpec& inst : cs.instances()) {
      core::PrimitiveEvaluator eval = engine.make_evaluator(inst);
      core::EvalCondition cond;
      cond.ideal = wires < 0;
      if (wires >= 0) {
        cond.tuning = opt.tunings.count(inst.name) ? opt.tunings.at(inst.name)
                                                   : extract::TuningMap{};
        const int route_wires = wires == 0 ? w_opt : wires;
        if (wires > 0) cond.tuning["out"] = wires;  // narrow/wide strap too
        extract::WireRc rc = core::route_wire_rc(t, out_route, route_wires);
        rc.resistance /= 2.0;  // per-pin share of the two-pin net
        rc.capacitance /= 2.0;
        cond.port_wires["out"] = rc;
      }
      const core::MetricValues vals =
          eval.evaluate(opt.layouts.at(inst.name), cond);
      std::map<std::string, double>& row = ex.results["tableI_" + tag];
      if (inst.name == "cs") {
        if (vals.count(core::MetricKind::kGm)) {
          row["gm_m1"] = vals.at(core::MetricKind::kGm);
        }
        if (vals.count(core::MetricKind::kRout)) {
          row["rout_m1"] = vals.at(core::MetricKind::kRout);
        }
        if (vals.count(core::MetricKind::kCout)) {
          row["ctotal"] = vals.at(core::MetricKind::kCout);
        }
      } else if (vals.count(core::MetricKind::kOutputCurrent)) {
        row["i_m2"] = vals.at(core::MetricKind::kOutputCurrent);
      }
    }
  };
  primitive_metrics(-1, "schematic");
  primitive_metrics(1, "narrow");
  primitive_metrics(kMaxPortWires, "wide");
  primitive_metrics(0, "optimized");
  return ex;
}

std::vector<AblationRow> run_ablations(const tech::Technology& t,
                                       const CircuitExperiment& ota_run) {
  Ota5T ota(t);
  OLP_CHECK(ota.prepare(), "OTA schematic preparation failed");
  std::vector<AblationRow> rows;
  rows.push_back({"schematic (target)", ota_run.results.at("schematic")});
  // The bins = 3 run is the default flow, Table VI's "this work"; the other
  // ablations strip steps from its realization.
  for (int bins : {1, 2, 3, 4}) {
    const std::string label = "full flow, bins = " + std::to_string(bins);
    if (bins == FlowOptions{}.bins) {
      rows.push_back({label, ota_run.results.at("this_work")});
      continue;
    }
    FlowOptions options;
    options.bins = bins;
    rows.push_back({label, ota.measure(FlowEngine(t, options).run(
                               FlowMode::kOptimize, ota.instances(),
                               ota.routed_nets()))});
  }

  const Realization& full = ota_run.realizations.at("this_work");
  Realization no_tuning = full;
  for (auto& [inst, tuning] : no_tuning.tunings) {
    (void)inst;
    tuning.clear();
  }
  // Every net back to a single route: what the flow would emit with
  // Algorithm 2 disabled.
  const auto single_routes = [&](Realization real) {
    for (auto& [net, rc] : real.net_wires) {
      const auto rit = ota_run.optimized_report.routes.find(net);
      if (rit != ota_run.optimized_report.routes.end() && rit->second.routed) {
        rc = core::route_wire_rc(t, rit->second, 1);
      }
    }
    return real;
  };
  rows.push_back({"no primitive tuning", ota.measure(no_tuning)});
  rows.push_back({"no port optimization", ota.measure(single_routes(full))});
  rows.push_back({"selection only", ota.measure(single_routes(no_tuning))});
  rows.push_back({"conventional baseline", ota_run.results.at("conventional")});
  return rows;
}

std::vector<CornerRow> run_corners(const tech::Technology& t,
                                   const CircuitExperiment& ota_run) {
  Ota5T ota(t);
  OLP_CHECK(ota.prepare(), "OTA schematic preparation failed");
  Realization schematic = ota_run.realizations.at("schematic");
  Realization conventional = ota_run.realizations.at("conventional");
  Realization optimized = ota_run.realizations.at("this_work");

  std::vector<CornerRow> rows;
  for (Corner c : {Corner::kTT, Corner::kSS, Corner::kFF, Corner::kSF,
                   Corner::kFS}) {
    schematic.corner = c;
    conventional.corner = c;
    optimized.corner = c;
    CornerRow row;
    row.corner = c;
    row.results["schematic"] = ota.measure(schematic);
    row.results["conventional"] = ota.measure(conventional);
    row.results["this_work"] = ota.measure(optimized);
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<DpOptionRow> run_dp_options(const tech::Technology& t) {
  constexpr int kFins = 960;  // W/L = 46 um / 14 nm at 48 nm per fin
  constexpr int kBins = 3;
  const pcell::PrimitiveGenerator generator(t);
  const core::PrimitiveEvaluator evaluator(t, default_nmos(), default_pmos(),
                                           dp_bias(t));
  const core::PrimitiveOptimizer optimizer(generator, evaluator);

  using P = pcell::PlacementPattern;
  core::OptimizerOptions opts;
  opts.bins = kBins;
  opts.configs = {
      {.nfin = 8, .nf = 20, .m = 6, .pattern = P::kABBA},
      {.nfin = 8, .nf = 20, .m = 6, .pattern = P::kABAB},
      {.nfin = 8, .nf = 20, .m = 6, .pattern = P::kAABB},
      {.nfin = 16, .nf = 12, .m = 5, .pattern = P::kABBA},
      {.nfin = 16, .nf = 12, .m = 5, .pattern = P::kABAB},
      {.nfin = 24, .nf = 20, .m = 2, .pattern = P::kABBA},
      {.nfin = 24, .nf = 20, .m = 2, .pattern = P::kABAB},
      {.nfin = 24, .nf = 20, .m = 2, .pattern = P::kAABB},
      {.nfin = 12, .nf = 20, .m = 4, .pattern = P::kABBA},
      {.nfin = 12, .nf = 20, .m = 4, .pattern = P::kABAB},
      {.nfin = 12, .nf = 20, .m = 4, .pattern = P::kAABB},
  };

  std::vector<DpOptionRow> rows;
  for (const core::LayoutCandidate& cand :
       optimizer.evaluate_all(pcell::make_diff_pair(), kFins, opts)) {
    DpOptionRow row;
    row.config = cand.layout.config;
    row.bin = cand.bin;
    row.d_gm = deviation_of(cand.cost, core::MetricKind::kGm);
    row.d_gm_over_ctotal =
        deviation_of(cand.cost, core::MetricKind::kGmOverCtotal);
    row.d_offset = deviation_of(cand.cost, core::MetricKind::kInputOffset);
    row.cost = cand.cost.total;
    rows.push_back(row);
  }
  for (int bin = 0; bin < kBins; ++bin) {
    DpOptionRow* best = nullptr;
    for (DpOptionRow& row : rows) {
      if (row.bin == bin && (best == nullptr || row.cost < best->cost)) {
        best = &row;
      }
    }
    if (best != nullptr) best->bin_best = true;
  }
  return rows;
}

std::vector<PortSweepRow> run_port_sweep(const tech::Technology& t) {
  constexpr int kMaxWires = 7;
  const pcell::PrimitiveGenerator generator(t);
  core::OptimizerOptions oopt;
  oopt.bins = 3;

  // Differential pair with the drain routes swept.
  const pcell::PrimitiveNetlist dp = pcell::make_diff_pair();
  const core::PrimitiveEvaluator dp_eval(t, default_nmos(), default_pmos(),
                                         dp_bias(t));
  const core::PrimitiveOptimizer dp_opt(generator, dp_eval);
  const core::LayoutCandidate dp_best = dp_opt.optimize(dp, 960, oopt).front();
  const core::MetricValues dp_ref = dp_opt.schematic_reference(dp, 960);

  // Passive current mirror with the output route swept.
  const pcell::PrimitiveNetlist cm = pcell::make_current_mirror(1);
  core::BiasContext cm_bias;
  cm_bias.vdd = t.vdd;
  cm_bias.bias_current = 706e-6;
  cm_bias.port_voltage = {{"out", 0.4}, {"s", 0.0}};
  cm_bias.port_load_cap = {{"out", 20e-15}};
  const core::PrimitiveEvaluator cm_eval(t, default_nmos(), default_pmos(),
                                         cm_bias);
  const core::PrimitiveOptimizer cm_opt(generator, cm_eval);
  const core::LayoutCandidate cm_best = cm_opt.optimize(cm, 512, oopt).front();
  const core::MetricValues cm_ref = cm_opt.schematic_reference(cm, 512);

  const route::NetRoute route = reference_route();
  std::vector<PortSweepRow> rows;
  for (int w = 1; w <= kMaxWires; ++w) {
    const extract::WireRc rc = core::route_wire_rc(t, route, w);

    core::EvalCondition dc;
    dc.tuning = dp_best.tuning;
    dc.port_wires["da"] = rc;  // mirrored to db (symmetric routes)
    const core::CostBreakdown dcb = core::compute_cost(
        core::metric_library(dp.type).metrics, dp_ref,
        dp_eval.evaluate(dp_best.layout, dc),
        0.1 * dp_eval.random_offset_sigma(dp_best.layout));

    core::EvalCondition cc;
    cc.tuning = cm_best.tuning;
    cc.port_wires["out"] = rc;
    const core::CostBreakdown ccb = core::compute_cost(
        core::metric_library(cm.type).metrics, cm_ref,
        cm_eval.evaluate(cm_best.layout, cc),
        0.1 * cm_eval.random_offset_sigma(cm_best.layout));

    PortSweepRow row;
    row.wires = w;
    row.dp_gm = deviation_of(dcb, core::MetricKind::kGm);
    row.dp_gm_over_ctotal =
        deviation_of(dcb, core::MetricKind::kGmOverCtotal);
    row.dp_cost = dcb.total;
    row.cm_current_ratio =
        deviation_of(ccb, core::MetricKind::kCurrentRatio);
    row.cm_cout = deviation_of(ccb, core::MetricKind::kCout);
    row.cm_cost = ccb.total;
    rows.push_back(row);
  }
  return rows;
}

std::vector<StepCountsRow> run_step_counts(const tech::Technology& t) {
  core::BiasContext cm_bias;
  cm_bias.vdd = t.vdd;
  cm_bias.bias_current = 400e-6;
  cm_bias.port_voltage = {{"out", 0.4}, {"s", 0.0}};

  core::BiasContext inv_bias;
  inv_bias.vdd = t.vdd;
  inv_bias.bias_current = 150e-6;
  inv_bias.port_voltage = {{"vbn", 0.4}, {"vbp", t.vdd - 0.4}};
  inv_bias.port_load_cap = {{"out", 4e-15}};

  std::vector<StepCountsRow> rows;
  rows.push_back(count_steps(t, "diff pair", pcell::make_diff_pair(), 960,
                             dp_bias(t), {"da", "s"}));
  rows.push_back(count_steps(t, "current mirror",
                             pcell::make_current_mirror(1), 512, cm_bias,
                             {"out"}));
  rows.push_back(count_steps(t, "curr-starved inv",
                             pcell::make_current_starved_inverter(), 96,
                             inv_bias, {"out"}));
  return rows;
}

}  // namespace olp::circuits
