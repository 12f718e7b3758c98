#include "spice/writer.hpp"

#include <cctype>
#include <cmath>
#include <sstream>

namespace olp::spice {

namespace {

/// Compact numeric formatting that parse_spice_number reads back exactly.
std::string num(double v) {
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

std::string source_suffix(const Waveform& wave, double ac_mag,
                          double ac_phase) {
  std::string s = wave.to_spice();
  if (ac_mag != 0.0) {
    s += " AC ";
    s += num(ac_mag);
    if (ac_phase != 0.0) {
      s += ' ';
      s += num(ac_phase * 180.0 / M_PI);
    }
  }
  return s;
}

/// The element name as written: prefixed with the element's letter unless it
/// already starts with it. A flattened subcircuit element ("X1.R1") must not
/// start with 'X', which every SPICE reader takes for an instance line.
std::string element_name(char letter, const std::string& name) {
  if (!name.empty() &&
      std::tolower(static_cast<unsigned char>(name[0])) ==
          std::tolower(static_cast<unsigned char>(letter))) {
    return name;
  }
  return letter + name;
}

}  // namespace

std::string write_netlist(const Circuit& c, const std::string& title) {
  std::ostringstream os;
  os << "* " << title << "\n";

  for (const MosModel& m : c.models()) {
    os << ".model " << m.name << ' '
       << (m.type == MosType::kNmos ? "nmos" : "pmos")
       << " vth0=" << num(m.vth0) << " kp=" << num(m.kp)
       << " nslope=" << num(m.nslope) << " lambda=" << num(m.lambda)
       << " lref=" << num(m.lref) << " cox=" << num(m.cox)
       << " cov=" << num(m.cov) << " cj=" << num(m.cj)
       << " cjsw=" << num(m.cjsw) << " avt=" << num(m.avt) << "\n";
  }

  auto node = [&](NodeId n) { return c.node_name(n); };

  for (const Resistor& r : c.resistors()) {
    os << element_name('R', r.name) << ' ' << node(r.a) << ' ' << node(r.b)
       << ' ' << num(r.r) << "\n";
  }
  for (const Capacitor& cap : c.capacitors()) {
    os << element_name('C', cap.name) << ' ' << node(cap.a) << ' '
       << node(cap.b) << ' ' << num(cap.c);
    if (cap.use_ic) os << " ic=" << num(cap.ic);
    os << "\n";
  }
  for (const VSource& v : c.vsources()) {
    os << element_name('V', v.name) << ' ' << node(v.p) << ' ' << node(v.n)
       << ' ' << source_suffix(v.wave, v.ac_mag, v.ac_phase) << "\n";
  }
  for (const ISource& i : c.isources()) {
    os << element_name('I', i.name) << ' ' << node(i.p) << ' ' << node(i.n)
       << ' ' << source_suffix(i.wave, i.ac_mag, i.ac_phase) << "\n";
  }
  for (const Vcvs& e : c.vcvs()) {
    os << element_name('E', e.name) << ' ' << node(e.p) << ' ' << node(e.n)
       << ' ' << node(e.cp) << ' ' << node(e.cn) << ' ' << num(e.gain)
       << "\n";
  }
  for (const Vccs& g : c.vccs()) {
    os << element_name('G', g.name) << ' ' << node(g.p) << ' ' << node(g.n)
       << ' ' << node(g.cp) << ' ' << node(g.cn) << ' ' << num(g.gm)
       << "\n";
  }
  for (const Mosfet& m : c.mosfets()) {
    os << element_name('M', m.name) << ' ' << node(m.d) << ' ' << node(m.g)
       << ' ' << node(m.s) << ' ' << node(m.b) << ' '
       << c.model(m.model).name << " w=" << num(m.w) << " l=" << num(m.l)
       << " as=" << num(m.as) << " ad=" << num(m.ad) << " ps=" << num(m.ps)
       << " pd=" << num(m.pd);
    if (m.delta_vth != 0.0) os << " dvth=" << num(m.delta_vth);
    if (m.mobility_mult != 1.0) os << " mob=" << num(m.mobility_mult);
    os << "\n";
  }
  for (const auto& [n, v] : c.initial_conditions()) {
    os << ".ic v(" << node(n) << ")=" << num(v) << "\n";
  }
  os << ".end\n";
  return os.str();
}

}  // namespace olp::spice
