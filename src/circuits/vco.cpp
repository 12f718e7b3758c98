#include "circuits/vco.hpp"

#include <cmath>

#include "spice/measure.hpp"
#include "spice/simulator.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace olp::circuits {

RoVco::RoVco(const tech::Technology& technology, int stages)
    : tech_(technology), stages_(stages) {
  OLP_CHECK(stages_ >= 3, "ring oscillator needs at least 3 stages");
  {
    InstanceSpec inv;
    inv.name = "inv";
    inv.netlist = pcell::make_current_starved_inverter();
    inv.fins = 32;
    // Representative connectivity (one stage's positive-phase inverter).
    inv.port_nets = {{"in", "stage_in"}, {"out", "stage_out"},
                     {"vbp", "vbp"},     {"vbn", "vbn"},
                     {"vdd", "vdd"},     {"vss", "vssa"}};
    instances_.push_back(inv);
  }
  {
    // Weak cross-coupled *starved* inverters latch the two phases in
    // antiphase; starving them from the same control keeps the latch/drive
    // strength ratio constant so the ring oscillates across the whole
    // control range.
    InstanceSpec xi;
    xi.name = "xinv";
    xi.netlist = pcell::make_current_starved_inverter();
    xi.fins = 8;
    xi.port_nets = {{"in", "stage_out"}, {"out", "stage_outb"},
                    {"vbp", "vbp"},      {"vbn", "vbn"},
                    {"vdd", "vdd"},      {"vss", "vssa"}};
    instances_.push_back(xi);
  }
}

bool RoVco::prepare() {
  // Representative bias at mid-range control.
  const double vctrl_rep = 0.4;
  for (InstanceSpec& inst : instances_) {
    inst.bias.vdd = tech_.vdd;
    if (inst.name == "inv") {
      inst.bias.port_voltage = {{"vbn", vctrl_rep},
                                {"vbp", tech_.vdd - vctrl_rep},
                                {"in", 0.5 * tech_.vdd},
                                {"out", 0.5 * tech_.vdd},
                                {"vdd", tech_.vdd},
                                {"vss", 0.0}};
      // Load: next stage's inverter input plus the latch devices.
      inst.bias.port_load_cap = {{"out", 4e-15}};
      inst.bias.bias_current = 150e-6;
    } else {  // xinv
      inst.bias.port_voltage = {{"vbn", vctrl_rep},
                                {"vbp", tech_.vdd - vctrl_rep},
                                {"in", 0.5 * tech_.vdd},
                                {"out", 0.5 * tech_.vdd},
                                {"vdd", tech_.vdd},
                                {"vss", 0.0}};
      inst.bias.port_load_cap = {{"out", 4e-15}};
      inst.bias.bias_current = 40e-6;
    }
  }
  return true;
}

spice::Circuit RoVco::build(const Realization& realization,
                            double vctrl) const {
  // Expand the representative realization to all stages.
  std::vector<InstanceSpec> expanded;
  Realization expanded_real;
  expanded_real.ideal = realization.ideal;

  auto rep_layout = [&](const std::string& name) -> const auto& {
    const auto it = realization.layouts.find(name);
    OLP_CHECK(it != realization.layouts.end(),
              "VCO realization missing representative layout " + name);
    return it->second;
  };
  auto rep_tuning = [&](const std::string& name) {
    const auto it = realization.tunings.find(name);
    return it != realization.tunings.end() ? it->second
                                           : extract::TuningMap{};
  };

  auto out_p = [&](int i) { return "op" + std::to_string(i); };
  auto out_n = [&](int i) { return "on" + std::to_string(i); };

  for (int i = 0; i < stages_; ++i) {
    const int prev = (i + stages_ - 1) % stages_;
    // One polarity twist at the wrap keeps the differential ring oscillating.
    const std::string in_p = (i == 0) ? out_n(prev) : out_p(prev);
    const std::string in_n = (i == 0) ? out_p(prev) : out_n(prev);

    InstanceSpec invp = instances_[0];
    invp.name = "s" + std::to_string(i) + ".invp";
    invp.port_nets = {{"in", in_p},   {"out", out_p(i)}, {"vbp", "vbp"},
                      {"vbn", "vbn"}, {"vdd", "vdd"},    {"vss", "vssa"}};
    InstanceSpec invn = instances_[0];
    invn.name = "s" + std::to_string(i) + ".invn";
    invn.port_nets = {{"in", in_n},   {"out", out_n(i)}, {"vbp", "vbp"},
                      {"vbn", "vbn"}, {"vdd", "vdd"},    {"vss", "vssa"}};
    InstanceSpec xa = instances_[1];
    xa.name = "s" + std::to_string(i) + ".xa";
    xa.port_nets = {{"in", out_p(i)}, {"out", out_n(i)}, {"vbp", "vbp"},
                    {"vbn", "vbn"},   {"vdd", "vdd"},    {"vss", "vssa"}};
    InstanceSpec xb = instances_[1];
    xb.name = "s" + std::to_string(i) + ".xb";
    xb.port_nets = {{"in", out_n(i)}, {"out", out_p(i)}, {"vbp", "vbp"},
                    {"vbn", "vbn"},   {"vdd", "vdd"},    {"vss", "vssa"}};

    for (const InstanceSpec* src : {&invp, &invn}) {
      expanded_real.layouts[src->name] = rep_layout("inv");
      expanded_real.tunings[src->name] = rep_tuning("inv");
    }
    for (const InstanceSpec* src : {&xa, &xb}) {
      expanded_real.layouts[src->name] = rep_layout("xinv");
      expanded_real.tunings[src->name] = rep_tuning("xinv");
    }
    expanded.push_back(invp);
    expanded.push_back(invn);
    expanded.push_back(xa);
    expanded.push_back(xb);

    // The representative "stage_out" wire applies to every stage output.
    if (auto it = realization.net_wires.find("stage_out");
        it != realization.net_wires.end()) {
      expanded_real.net_wires[out_p(i)] = it->second;
      expanded_real.net_wires[out_n(i)] = it->second;
    }
  }

  BuildContext bc = make_build_context(realization.corner);
  const spice::NodeId vdd = bc.net("vdd");
  const spice::NodeId vssa = bc.net("vssa");
  // Supply/bias straps are lumped (capacitance only) to bound the MNA size
  // of the 32-inverter ring; the signal path keeps full strap fidelity.
  instantiate(bc, expanded, expanded_real, tech_, "0", "vdd",
              {"vdd", "vssa", "vbp", "vbn"});
  bc.ckt.add_vsource("vdd_src", vdd, spice::kGround,
                     spice::Waveform::dc(tech_.vdd));
  bc.ckt.add_vsource("vss_src", vssa, spice::kGround,
                     spice::Waveform::dc(0.0));
  bc.ckt.add_vsource("vbn_src", bc.net("vbn"), spice::kGround,
                     spice::Waveform::dc(vctrl));
  bc.ckt.add_vsource("vbp_src", bc.net("vbp"), spice::kGround,
                     spice::Waveform::dc(tech_.vdd - vctrl));
  // Symmetry-breaking kick.
  bc.ckt.set_initial_condition(bc.net("op0"), tech_.vdd);
  bc.ckt.set_initial_condition(bc.net("on0"), 0.0);
  return bc.ckt;
}

std::optional<double> RoVco::frequency(const Realization& realization,
                                       double vctrl) const {
  spice::Circuit ckt = build(realization, vctrl);
  spice::Simulator sim(ckt);

  // Adaptive window: try a short fast window first; if the ring has not
  // produced enough full-swing crossings, widen the window (the paper's
  // "voltage range" row is about whether the ring oscillates at all).
  struct Window {
    double tstop, dt;
  };
  const Window windows[] = {{2.5e-9, 1e-12}, {20e-9, 8e-12}, {160e-9, 64e-12}};
  for (const Window& win : windows) {
    spice::TranOptions tr;
    tr.tstop = win.tstop;
    tr.dt = win.dt;
    const spice::TranResult res = sim.tran(tr);
    if (!res.ok) continue;

    const std::vector<double> w =
        spice::tran_waveform(sim, res, ckt.find_node("op0"));
    const auto freq =
        spice::oscillation_frequency(res.times, w, 0.5 * tech_.vdd, 4);
    if (!freq) continue;
    // Require sustained full-swing amplitude late in the window.
    double lo = 1e9, hi = -1e9;
    for (std::size_t i = w.size() / 2; i < w.size(); ++i) {
      lo = std::min(lo, w[i]);
      hi = std::max(hi, w[i]);
    }
    if (hi - lo < 0.5 * tech_.vdd) continue;
    // Demand adequate sampling of the period before trusting the number.
    if (1.0 / (*freq) < 8.0 * win.dt) continue;
    return freq;
  }
  return std::nullopt;
}

std::vector<double> RoVco::default_sweep() {
  return {0.0, 0.1, 0.2, 0.3, 0.4, 0.5};
}

std::map<std::string, double> RoVco::measure(
    const Realization& realization, const std::vector<double>& vctrls) const {
  std::map<std::string, double> out;
  double fmax = 0.0, fmin = 1e300;
  double vlo = 1e300, vhi = -1e300;
  for (double v : vctrls) {
    const std::optional<double> f = frequency(realization, v);
    if (!f) continue;
    fmax = std::max(fmax, *f);
    fmin = std::min(fmin, *f);
    vlo = std::min(vlo, v);
    vhi = std::max(vhi, v);
  }
  if (fmax > 0.0) {
    out["fmax_ghz"] = fmax / 1e9;
    out["fmin_ghz"] = fmin / 1e9;
    out["vrange_lo"] = vlo;
    out["vrange_hi"] = vhi;
  }
  return out;
}

}  // namespace olp::circuits
