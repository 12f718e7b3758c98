#include "core/evaluator.hpp"

#include <cmath>
#include <limits>

#include "core/eval_cache.hpp"
#include "spice/measure.hpp"
#include "spice/simulator.hpp"
#include "util/budget.hpp"
#include "util/diag.hpp"
#include "util/error.hpp"
#include "util/faults.hpp"
#include "util/logging.hpp"
#include "util/obs.hpp"
#include "util/rng.hpp"

namespace olp::core {

namespace {
/// Attaches the tail bias of a (cross-coupled) pair: a current source at the
/// common source "s" when present, or voltage sources at split sources.
template <typename BenchT, typename BiasT>
void attach_pair_tail(BenchT& b, const BiasT& bias) {
  if (b.ext.count("s")) {
    b.ckt.add_isource("itail", b.ext.at("s"), spice::kGround,
                      spice::Waveform::dc(bias.bias_current));
  } else {
    for (const char* src : {"sa", "sb"}) {
      if (!b.ext.count(src)) continue;
      double v = 0.5 * bias.vdd;
      if (auto it = bias.port_voltage.find(src); it != bias.port_voltage.end()) {
        v = it->second;
      }
      b.ckt.add_vsource(std::string("vtail_") + src, b.ext.at(src),
                        spice::kGround, spice::Waveform::dc(v));
    }
  }
}

/// Adds DC sources at every primitive port not in `driven` (cascode bias
/// gates and similar auxiliary terminals), at the bias-context voltage.
template <typename BenchT, typename BiasT>
void bias_remaining_ports(BenchT& b, const BiasT& bias,
                          const pcell::PrimitiveNetlist& netlist,
                          std::initializer_list<const char*> driven) {
  for (const std::string& port : netlist.ports) {
    bool is_driven = false;
    for (const char* d : driven) {
      if (port == d) is_driven = true;
    }
    if (is_driven || !b.ext.count(port)) continue;
    double v = 0.5 * bias.vdd;
    if (auto it = bias.port_voltage.find(port); it != bias.port_voltage.end()) {
      v = it->second;
    }
    b.ckt.add_vsource("vaux_" + port, b.ext.at(port), spice::kGround,
                      spice::Waveform::dc(v));
  }
}

constexpr double kGmFreq = 1e7;    // transconductance measurement [Hz]
constexpr double kCapFreq = 2e9;   // capacitance measurement [Hz]
constexpr double kRoutFreq = 1e5;  // output resistance measurement [Hz]
// The inverter delay bench's transient window [s]: the longest delay it can
// measure, and the delay reported for an inverter that never switches in it.
constexpr double kDelayWindow = 1.2e-9;
constexpr double kTwoPi = 2.0 * M_PI;
}  // namespace

/// A testbench under construction: the circuit with the primitive annotated
/// plus maps from primitive ports to the externally accessible nodes (after
/// any external route wires).
struct PrimitiveEvaluator::Bench {
  spice::Circuit ckt;
  std::map<std::string, spice::NodeId> port;  ///< primitive port nodes
  std::map<std::string, spice::NodeId> ext;   ///< beyond the external wire
};

PrimitiveEvaluator::PrimitiveEvaluator(const tech::Technology& technology,
                                       spice::MosModel nmos,
                                       spice::MosModel pmos, BiasContext bias)
    : tech_(technology),
      nmos_(std::move(nmos)),
      pmos_(std::move(pmos)),
      bias_(std::move(bias)),
      cache_context_(EvalCache::context_key(bias_, nmos_, pmos_)) {}

namespace {

double port_v(const BiasContext& b, const std::string& port) {
  if (auto it = b.port_voltage.find(port); it != b.port_voltage.end()) {
    return it->second;
  }
  return 0.5 * b.vdd;
}

double port_load(const BiasContext& b, const std::string& port) {
  if (auto it = b.port_load_cap.find(port); it != b.port_load_cap.end()) {
    return it->second;
  }
  return 0.0;
}

}  // namespace

void PrimitiveEvaluator::count_testbench() const {
  ++stats_.testbenches;
  obs::counter_add("eval.testbench");
  // Charge the execution budget. Enforcement happens at the caller's next
  // Budget::check(), so the in-flight testbench always completes.
  if (budget_ != nullptr) budget_->consume_testbench();
}

std::string PrimitiveEvaluator::cache_key(const pcell::PrimitiveLayout& layout,
                                          const EvalCondition& condition) const {
  return EvalCache::make_key(layout, condition, cache_context_);
}

MetricValues PrimitiveEvaluator::evaluate(const pcell::PrimitiveLayout& layout,
                                          const EvalCondition& c,
                                          EvalOutcome* outcome) const {
  return evaluate(
      layout, c, [&layout]() -> const pcell::PrimitiveLayout& { return layout; },
      outcome);
}

MetricValues PrimitiveEvaluator::evaluate(const pcell::PrimitiveLayout& footprint,
                                          const EvalCondition& c,
                                          const Materializer& full,
                                          EvalOutcome* outcome) const {
  if (outcome != nullptr) *outcome = EvalOutcome{};
  std::string key;
  // Held until return: the insert below lands before the claim ends, so a
  // waiter wakes to the entry (or, when nothing is inserted, evaluates for
  // itself).
  EvalCache::Claim claim;
  if (cache_ != nullptr) {
    key = cache_key(footprint, c);
    MetricValues cached;
    const bool hit = cache_->lookup(key, claim, &cached, cache_client_);
    if (claim.waited()) obs::counter_add("eval.cache_waits");
    if (hit) {
      obs::counter_add("eval.cache_hit");
      if (outcome != nullptr) outcome->cache_hit = true;
      return cached;
    }
    obs::counter_add("eval.cache_miss");
  }
  const pcell::PrimitiveLayout& layout = full();
  OLP_CHECK(!layout.footprint_only,
            "evaluating " + layout.netlist.name + " needs its full layout");
  obs::Span span("eval.evaluate",
                 [&] { return layout.netlist.name + (c.ideal ? " (sch)" : ""); });
  MetricValues out = evaluate_impl(layout, c);
  if (!out.empty() &&
      FaultInjector::global().should_fail(FaultSite::kNanMetric)) {
    if (diag_) {
      diag_->report(DiagSeverity::kWarning, "chaos",
                    fault_site_name(FaultSite::kNanMetric),
                    "injected NaN metric on " + layout.config.to_string());
    }
    out.begin()->second = std::numeric_limits<double>::quiet_NaN();
  }
  // Quarantine: never let a non-finite metric escape into cost arithmetic.
  long quarantined_here = 0;
  for (auto& [kind, value] : out) {
    if (std::isfinite(value)) continue;
    ++quarantined_here;
    ++stats_.quarantined;
    obs::counter_add("eval.quarantined");
    if (diag_) {
      diag_->report(DiagSeverity::kWarning, "evaluator", metric_name(kind),
                    std::string("non-finite metric quarantined for ") +
                        layout.config.to_string());
    }
    value = 0.0;
  }
  if (outcome != nullptr) outcome->quarantined = quarantined_here;
  // Only clean evaluations are memoized: a cached quarantined result would
  // swallow the quarantine diagnostic on replay, making cached and uncached
  // flows observably different. A budget that tripped during (or before)
  // this evaluation cut its simulator loops short, so its finite metrics
  // may still be wrong; caching them would hand them to every job sharing
  // the cache.
  const bool budget_cut = budget_ != nullptr && budget_->exhausted();
  if (cache_ != nullptr && quarantined_here == 0 && !budget_cut) {
    cache_->insert(key, out, cache_client_);
  }
  return out;
}

MetricValues PrimitiveEvaluator::evaluate_impl(
    const pcell::PrimitiveLayout& layout, const EvalCondition& c) const {
  switch (layout.netlist.type) {
    case pcell::PrimitiveType::kDiffPair:
      return eval_diff_pair(layout, c, /*cross=*/false);
    case pcell::PrimitiveType::kCrossCoupledPair:
      return eval_diff_pair(layout, c, /*cross=*/true);
    case pcell::PrimitiveType::kCurrentMirror:
      return eval_current_mirror(layout, c, /*active=*/false);
    case pcell::PrimitiveType::kActiveCurrentMirror:
      return eval_current_mirror(layout, c, /*active=*/true);
    case pcell::PrimitiveType::kCurrentSource:
      return eval_current_source(layout, c);
    case pcell::PrimitiveType::kCommonSource:
      return eval_common_source(layout, c);
    case pcell::PrimitiveType::kCurrentStarvedInverter:
      return eval_starved_inverter(layout, c);
    case pcell::PrimitiveType::kSwitch:
      return eval_switch(layout, c);
    case pcell::PrimitiveType::kCapacitor:
      throw InvalidArgumentError(
          "capacitor primitives are evaluated by evaluate_mom_cap");
  }
  throw InternalError("unhandled primitive type");
}

namespace {
/// Builds the annotated bench skeleton shared by all testbenches.
void build_bench(PrimitiveEvaluator::Bench& b,
                 const pcell::PrimitiveLayout& layout,
                 const tech::Technology& tech, const spice::MosModel& nmos,
                 const spice::MosModel& pmos, const BiasContext& bias,
                 const EvalCondition& c) {
  const int nmos_model = b.ckt.add_model(nmos);
  const int pmos_model = b.ckt.add_model(pmos);
  extract::AnnotateOptions opt;
  opt.ideal = c.ideal;
  opt.tuning = c.tuning;
  opt.extra_dvth = c.extra_dvth;
  opt.nmos_model = nmos_model;
  opt.pmos_model = pmos_model;
  opt.nmos_bulk = spice::kGround;
  // PMOS bulk at an ideal supply node (created below if the primitive has a
  // vdd port it will be merged by name, otherwise a dedicated rail is fine).
  const spice::NodeId bulk_p = b.ckt.node("vbulkp");
  b.ckt.add_vsource("vbulkp_src", bulk_p, spice::kGround,
                    spice::Waveform::dc(bias.vdd));
  opt.pmos_bulk = bulk_p;
  b.port = annotate_primitive(b.ckt, layout, tech, "p.", opt);

  // Mirror external wires across symmetric port pairs: the detailed router
  // keeps such routes geometrically symmetric (paper Sec. III-B1), so a wire
  // attached to one member is evaluated on both.
  std::map<std::string, extract::WireRc> port_wires = c.port_wires;
  for (const auto& [pa, pb] : layout.netlist.symmetric_ports) {
    const bool has_a = port_wires.count(pa) > 0;
    const bool has_b = port_wires.count(pb) > 0;
    if (has_a && !has_b) port_wires[pb] = port_wires[pa];
    if (has_b && !has_a) port_wires[pa] = port_wires[pb];
  }

  // External route wires (port optimization): testbench excitation attaches
  // beyond the wire, at ext nodes.
  for (const std::string& port : layout.netlist.ports) {
    const spice::NodeId pn = b.port.at(port);
    auto it = port_wires.find(port);
    if (it == port_wires.end()) {
      b.ext[port] = pn;
      continue;
    }
    const spice::NodeId en = b.ckt.node("ext." + port);
    extract::add_wire_pi(b.ckt, "Wext." + port, pn, en, it->second);
    b.ext[port] = en;
  }
  // Schematic-value external loads at the far side of the wires.
  for (const std::string& port : layout.netlist.ports) {
    const double cl = port_load(bias, port);
    if (cl > 0) {
      b.ckt.add_capacitor("Cload." + port, b.ext[port], spice::kGround, cl);
    }
  }
}

/// The bench's voltage source `name`, for changing its waveform or AC
/// magnitude between analyses on a live simulator.
spice::VSource& source(PrimitiveEvaluator::Bench& b, const char* name) {
  return b.ckt.vsources()[static_cast<std::size_t>(b.ckt.find_vsource(name))];
}

/// Complex admittance looking into the `src`-driven node: Y = I(src)/V.
std::complex<double> driven_admittance(const spice::Simulator& sim,
                                       const std::vector<double>& op_x,
                                       const std::string& src, double freq) {
  spice::AcOptions ac;
  ac.frequencies = {freq};
  const spice::AcResult r = sim.ac(op_x, ac);
  // Branch current of the source flows p -> n inside it; the current pushed
  // INTO the node equals -I_branch when the node is at p.
  return -sim.ac_vsource_current(r.solutions[0], src);
}

}  // namespace

double PrimitiveEvaluator::random_offset_sigma(
    const pcell::PrimitiveLayout& layout) const {
  // Pelgrom: sigma(dVth of a pair) = AVT / sqrt(W L) of one device.
  const auto it = layout.devices.begin();
  OLP_CHECK(it != layout.devices.end(), "layout has no devices");
  const pcell::DevicePhysical& d = it->second;
  const spice::MosModel& model =
      layout.netlist.devices.front().mos_type == spice::MosType::kNmos ? nmos_
                                                                       : pmos_;
  return model.avt / std::sqrt(d.w * d.l);
}

PrimitiveEvaluator::MonteCarloOffset PrimitiveEvaluator::monte_carlo_offset(
    const pcell::PrimitiveLayout& layout, const EvalCondition& condition,
    int samples, std::uint64_t seed) const {
  OLP_CHECK(samples >= 2, "Monte Carlo needs at least two samples");
  OLP_CHECK(layout.netlist.type == pcell::PrimitiveType::kDiffPair ||
                layout.netlist.type == pcell::PrimitiveType::kCrossCoupledPair,
            "Monte Carlo offset applies to matched pairs");
  Rng rng(seed);
  double sum = 0.0;
  double sum_sq = 0.0;
  int done = 0;
  for (int s = 0; s < samples; ++s) {
    // Budget-bounded sampling: salvage the statistics gathered so far once
    // the minimum two samples for a variance estimate are in.
    if (done >= 2 && budget_ != nullptr && budget_->check()) break;
    EvalCondition cond = condition;
    for (const pcell::LogicalDevice& ld : layout.netlist.devices) {
      const pcell::DevicePhysical& phys = layout.devices.at(ld.name);
      const spice::MosModel& model =
          ld.mos_type == spice::MosType::kNmos ? nmos_ : pmos_;
      // Per-device sigma: pair sigma AVT/sqrt(WL) splits as sqrt(2)/2 each.
      const double sigma_dev =
          model.avt / std::sqrt(phys.w * phys.l) / std::sqrt(2.0);
      cond.extra_dvth[ld.name] += rng.gaussian(sigma_dev);
    }
    const MetricValues v = evaluate(layout, cond);
    const auto it = v.find(MetricKind::kInputOffset);
    OLP_CHECK(it != v.end(), "offset metric missing from evaluation");
    sum += it->second;
    sum_sq += it->second * it->second;
    ++done;
  }
  MonteCarloOffset out;
  out.samples = done;
  out.mean = sum / done;
  const double var = sum_sq / done - out.mean * out.mean;
  out.sigma = var > 0 ? std::sqrt(var) : 0.0;
  return out;
}

MetricValues PrimitiveEvaluator::eval_diff_pair(
    const pcell::PrimitiveLayout& layout, const EvalCondition& c,
    bool cross) const {
  MetricValues out;
  const bool has_gates = !cross;

  // One bench and one simulator for all three testbenches: they share every
  // element and DC value, and differ only in which source carries AC = 1
  // and, during the offset secant, in vga's DC value.
  Bench b;
  build_bench(b, layout, tech_, nmos_, pmos_, bias_, c);
  if (has_gates) {
    b.ckt.add_vsource("vga", b.ext.at("ga"), spice::kGround,
                      spice::Waveform::dc(port_v(bias_, "ga")), 1.0);
    b.ckt.add_vsource("vgb", b.ext.at("gb"), spice::kGround,
                      spice::Waveform::dc(port_v(bias_, "gb")));
  }
  b.ckt.add_vsource("vda", b.ext.at("da"), spice::kGround,
                    spice::Waveform::dc(port_v(bias_, "da")),
                    has_gates ? 0.0 : 1.0);
  b.ckt.add_vsource("vdb", b.ext.at("db"), spice::kGround,
                    spice::Waveform::dc(port_v(bias_, "db")));
  attach_pair_tail(b, bias_);
  bias_remaining_ports(b, bias_, layout.netlist,
                       {"da", "db", "ga", "gb", "s", "sa", "sb"});
  const spice::Simulator sim(b.ckt, diag_, budget_);

  // --- Testbench 1: Gm (paper Fig. 4 — AC at the gate, AC drain current).
  {
    const spice::OpResult op = sim.op();
    if (!op.converged) {
      OLP_WARN << "DP Gm testbench OP failed for "
               << layout.config.to_string();
    }
    spice::AcOptions ac;
    ac.frequencies = {kGmFreq};
    const spice::AcResult r = sim.ac(op.x, ac);
    // AC drain current of the side opposite the excitation for the
    // cross-coupled pair, same side for the DP.
    const std::string meter = cross ? "vdb" : "vda";
    out[MetricKind::kGm] =
        std::abs(sim.ac_vsource_current(r.solutions[0], meter));
    count_testbench();
  }

  // --- Testbench 2: total drain capacitance (drive the drain with AC).
  if (has_gates) source(b, "vga").ac_mag = 0.0;
  source(b, "vda").ac_mag = 1.0;
  {
    const spice::OpResult op = sim.op();
    const std::complex<double> y =
        driven_admittance(sim, op.x, "vda", kCapFreq);
    const double ctotal = y.imag() / (kTwoPi * kCapFreq);
    out[MetricKind::kCout] = ctotal;
    if (out[MetricKind::kGm] > 0 && ctotal > 0) {
      out[MetricKind::kGmOverCtotal] = out[MetricKind::kGm] / ctotal;
    } else {
      out[MetricKind::kGmOverCtotal] = 0.0;
    }
    count_testbench();
  }

  // --- Testbench 3: systematic input offset (DC null by secant iteration).
  if (has_gates) {
    spice::VSource& vga = source(b, "vga");
    const double vcm = port_v(bias_, "ga");
    // Each secant point moves only vga's DC value, and each op() solves
    // anew from a cold start.
    auto imbalance = [&](double dv) {
      vga.wave = spice::Waveform::dc(vcm + dv);
      const spice::OpResult op = sim.op();
      return sim.vsource_current(op.x, "vda") -
             sim.vsource_current(op.x, "vdb");
    };
    // Secant iteration on the differential drive of side A.
    double x0 = -2e-3, x1 = 2e-3;
    double f0 = imbalance(x0), f1 = imbalance(x1);
    double offset = 0.0;
    for (int it = 0; it < 12; ++it) {
      if (std::fabs(f1 - f0) < 1e-18) break;
      const double x2 = x1 - f1 * (x1 - x0) / (f1 - f0);
      x0 = x1;
      f0 = f1;
      x1 = x2;
      f1 = imbalance(x1);
      offset = x1;
      if (std::fabs(f1) < 1e-12) break;
    }
    // Signed: the cost function's Eq. 6 takes |x| itself, and Monte Carlo
    // statistics need the sign.
    out[MetricKind::kInputOffset] = offset;
    count_testbench();
  }
  return out;
}

MetricValues PrimitiveEvaluator::eval_current_mirror(
    const pcell::PrimitiveLayout& layout, const EvalCondition& c,
    bool active) const {
  MetricValues out;
  const int ratio = layout.netlist.devices.back().unit_ratio;

  Bench b;
  build_bench(b, layout, tech_, nmos_, pmos_, bias_, c);
  if (active) {
    // PMOS mirror: the source port is vdd; reference current is pulled out
    // of the diode node.
    b.ckt.add_vsource("vs", b.ext.at("vdd"), spice::kGround,
                      spice::Waveform::dc(bias_.vdd));
    b.ckt.add_isource("iref", b.ext.at("ref"), spice::kGround,
                      spice::Waveform::dc(bias_.bias_current));
  } else {
    b.ckt.add_vsource("vs", b.ext.at("s"), spice::kGround,
                      spice::Waveform::dc(0.0));
    b.ckt.add_isource("iref", spice::kGround, b.ext.at("ref"),
                      spice::Waveform::dc(bias_.bias_current));
  }
  b.ckt.add_vsource("vout", b.ext.at("out"), spice::kGround,
                    spice::Waveform::dc(port_v(bias_, "out")), 1.0);

  spice::Simulator sim(b.ckt, diag_, budget_);
  const spice::OpResult op = sim.op();
  if (!op.converged) {
    OLP_WARN << "CM testbench OP failed for " << layout.config.to_string();
  }
  // Branch current through vout: for an NMOS mirror the device sinks current
  // from the source into the out node.
  const double iout = std::fabs(sim.vsource_current(op.x, "vout"));
  out[MetricKind::kCurrentRatio] =
      iout / (bias_.bias_current * static_cast<double>(ratio));
  out[MetricKind::kOutputCurrent] = iout;
  count_testbench();

  const std::complex<double> y = driven_admittance(sim, op.x, "vout", kCapFreq);
  out[MetricKind::kCout] = y.imag() / (kTwoPi * kCapFreq);
  const std::complex<double> ylow =
      driven_admittance(sim, op.x, "vout", kRoutFreq);
  if (ylow.real() > 0) out[MetricKind::kRout] = 1.0 / ylow.real();
  count_testbench();
  return out;
}

MetricValues PrimitiveEvaluator::eval_current_source(
    const pcell::PrimitiveLayout& layout, const EvalCondition& c) const {
  MetricValues out;
  const bool is_pmos =
      layout.netlist.devices.front().mos_type == spice::MosType::kPmos;

  Bench b;
  build_bench(b, layout, tech_, nmos_, pmos_, bias_, c);
  const double vs_rail = is_pmos ? bias_.vdd : 0.0;
  b.ckt.add_vsource("vs", b.ext.at("s"), spice::kGround,
                    spice::Waveform::dc(vs_rail));
  b.ckt.add_vsource("vbias", b.ext.at("bias"), spice::kGround,
                    spice::Waveform::dc(port_v(bias_, "bias")));
  b.ckt.add_vsource("vout", b.ext.at("out"), spice::kGround,
                    spice::Waveform::dc(port_v(bias_, "out")), 1.0);

  spice::Simulator sim(b.ckt, diag_, budget_);
  const spice::OpResult op = sim.op();
  out[MetricKind::kOutputCurrent] =
      std::fabs(sim.vsource_current(op.x, "vout"));
  count_testbench();

  const std::complex<double> ylow =
      driven_admittance(sim, op.x, "vout", kRoutFreq);
  if (ylow.real() > 0) out[MetricKind::kRout] = 1.0 / ylow.real();
  const std::complex<double> y = driven_admittance(sim, op.x, "vout", kCapFreq);
  out[MetricKind::kCout] = y.imag() / (kTwoPi * kCapFreq);
  count_testbench();
  return out;
}

MetricValues PrimitiveEvaluator::eval_common_source(
    const pcell::PrimitiveLayout& layout, const EvalCondition& c) const {
  MetricValues out;
  Bench b;
  build_bench(b, layout, tech_, nmos_, pmos_, bias_, c);
  b.ckt.add_vsource("vs", b.ext.at("s"), spice::kGround,
                    spice::Waveform::dc(0.0));
  b.ckt.add_vsource("vin", b.ext.at("in"), spice::kGround,
                    spice::Waveform::dc(port_v(bias_, "in")), 1.0);
  b.ckt.add_vsource("vout", b.ext.at("out"), spice::kGround,
                    spice::Waveform::dc(port_v(bias_, "out")));

  // The amplifier's bias network holds the DC drain current (the bias
  // current from the circuit-level schematic simulation); servo the gate to
  // that current so the Gm measurement reflects wire/LDE effects at the
  // operating point rather than bias drift the surrounding mirrors absorb.
  const spice::Simulator sim(b.ckt, diag_, budget_);
  spice::VSource& vin = source(b, "vin");
  double vg = port_v(bias_, "in");
  spice::OpResult op = sim.op();
  for (int it = 0; it < 8; ++it) {
    const double id = std::fabs(sim.vsource_current(op.x, "vout"));
    if (std::fabs(id - bias_.bias_current) < 1e-3 * bias_.bias_current) break;
    // Newton on log-current (gm/Id is the local slope).
    const std::vector<spice::MosOperatingPoint> ops =
        sim.mos_operating_points(op.x);
    const double gm = std::max(ops.front().gm, 1e-6);
    vg += (bias_.bias_current - id) / gm;
    vin.wave = spice::Waveform::dc(vg);
    spice::OpOptions oo;
    oo.initial_guess = op.x;
    op = sim.op(oo);
  }
  spice::AcOptions ac;
  ac.frequencies = {kGmFreq};
  const spice::AcResult r = sim.ac(op.x, ac);
  out[MetricKind::kGm] = std::abs(sim.ac_vsource_current(r.solutions[0], "vout"));
  out[MetricKind::kOutputCurrent] =
      std::fabs(sim.vsource_current(op.x, "vout"));
  count_testbench();

  // Output admittance needs the input at AC ground: the same bench with vin
  // at the servoed bias point (where the servo left it) and the AC source
  // moved to the output, solved anew from a cold start.
  vin.ac_mag = 0.0;
  source(b, "vout").ac_mag = 1.0;
  const spice::OpResult op2 = sim.op();
  const std::complex<double> y2 =
      driven_admittance(sim, op2.x, "vout", kRoutFreq);
  if (y2.real() > 0) out[MetricKind::kRout] = 1.0 / y2.real();
  const std::complex<double> yc =
      driven_admittance(sim, op2.x, "vout", kCapFreq);
  out[MetricKind::kCout] = yc.imag() / (kTwoPi * kCapFreq);
  count_testbench();
  return out;
}

MetricValues PrimitiveEvaluator::eval_starved_inverter(
    const pcell::PrimitiveLayout& layout, const EvalCondition& c) const {
  MetricValues out;
  Bench b;
  build_bench(b, layout, tech_, nmos_, pmos_, bias_, c);
  b.ckt.add_vsource("vdd", b.ext.at("vdd"), spice::kGround,
                    spice::Waveform::dc(bias_.vdd));
  b.ckt.add_vsource("vss", b.ext.at("vss"), spice::kGround,
                    spice::Waveform::dc(0.0));
  b.ckt.add_vsource("vbp", b.ext.at("vbp"), spice::kGround,
                    spice::Waveform::dc(port_v(bias_, "vbp")));
  b.ckt.add_vsource("vbn", b.ext.at("vbn"), spice::kGround,
                    spice::Waveform::dc(port_v(bias_, "vbn")));
  b.ckt.add_vsource("vin", b.ext.at("in"), spice::kGround,
                    spice::Waveform::dc(0.5 * bias_.vdd), 1.0);
  const spice::Simulator sim(b.ckt, diag_, budget_);
  const spice::NodeId in = b.ext.at("in");
  const spice::NodeId outn = b.ext.at("out");

  // --- Testbench 1: starved current + small-signal gain at mid-rail.
  {
    const spice::OpResult op = sim.op();
    out[MetricKind::kOutputCurrent] =
        std::fabs(sim.vsource_current(op.x, "vdd"));
    spice::AcOptions ac;
    ac.frequencies = {kRoutFreq};
    const spice::AcResult r = sim.ac(op.x, ac);
    out[MetricKind::kGain] = std::abs(sim.ac_voltage(r.solutions[0], outn));
    count_testbench();
  }

  // --- Testbench 2: propagation delay (transient with an input pulse).
  {
    spice::VSource& vin = source(b, "vin");
    vin.wave = spice::Waveform::pulse(0.0, bias_.vdd, 50e-12, 10e-12, 10e-12,
                                      2e-9, 4e-9);
    vin.ac_mag = 0.0;
    const double mid = 0.5 * bias_.vdd;
    spice::TranOptions tr;
    tr.tstop = kDelayWindow;
    tr.dt = 1e-12;
    // End at the sample that decides the delay: no later sample changes what
    // delay_between reads below.
    tr.stop_when = [&sim, in, outn,
                    tracker = spice::DelayTracker(mid, true, mid, false)](
                       double t, const std::vector<double>& x) mutable {
      return tracker.add(t, sim.voltage(x, in), sim.voltage(x, outn));
    };
    const spice::TranResult res = sim.tran(tr);
    const std::vector<double> win = spice::tran_waveform(sim, res, in);
    const std::vector<double> wout = spice::tran_waveform(sim, res, outn);
    const auto delay =
        spice::delay_between(res.times, win, mid, true, wout, mid, false);
    out[MetricKind::kDelay] = delay.value_or(kDelayWindow);
    count_testbench();
  }
  return out;
}

MetricValues PrimitiveEvaluator::eval_switch(
    const pcell::PrimitiveLayout& layout, const EvalCondition& c) const {
  MetricValues out;
  Bench b;
  build_bench(b, layout, tech_, nmos_, pmos_, bias_, c);
  const bool is_pmos =
      layout.netlist.devices.front().mos_type == spice::MosType::kPmos;
  b.ckt.add_vsource("vclk", b.ext.at("clk"), spice::kGround,
                    spice::Waveform::dc(is_pmos ? 0.0 : bias_.vdd));
  b.ckt.add_vsource("va", b.ext.at("a"), spice::kGround,
                    spice::Waveform::dc(port_v(bias_, "a")), 1.0);
  b.ckt.add_vsource("vb", b.ext.at("b"), spice::kGround,
                    spice::Waveform::dc(port_v(bias_, "b")));
  spice::Simulator sim(b.ckt, diag_, budget_);
  const spice::OpResult op = sim.op();
  out[MetricKind::kOutputCurrent] = std::fabs(sim.vsource_current(op.x, "va"));
  const std::complex<double> y = driven_admittance(sim, op.x, "va", kCapFreq);
  out[MetricKind::kCout] = y.imag() / (kTwoPi * kCapFreq);
  count_testbench();
  return out;
}

MetricValues evaluate_mom_cap(const tech::Technology& t,
                              const pcell::MomCapLayout& cap,
                              const EvalCondition& condition) {
  MetricValues out;
  // Effective series resistance includes any terminal route wires; the C
  // metric is the plate capacitance, the frequency metric the RC corner.
  double r = cap.series_res;
  for (const auto& [port, wire] : condition.port_wires) {
    (void)port;
    r += wire.resistance;
  }
  (void)t;
  out[MetricKind::kCapacitance] = cap.capacitance;
  out[MetricKind::kCornerFreq] =
      1.0 / (kTwoPi * std::max(r, 1e-3) * std::max(cap.capacitance, 1e-18));
  return out;
}

}  // namespace olp::core
