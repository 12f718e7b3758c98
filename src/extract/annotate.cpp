#include "extract/annotate.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace olp::extract {

namespace {
/// Nominal (schematic-assumption) junction geometry: every finger fully
/// shared, i.e. half an inner diffusion pitch per side.
void nominal_junctions(const tech::Technology& t, double w, double l,
                       double& as, double& ad, double& ps, double& pd) {
  const double inner = (t.poly_pitch - t.gate_length) * 0.5;
  (void)l;
  as = ad = inner * w;
  ps = pd = 2.0 * (inner + w);
}
}  // namespace

std::map<std::string, spice::NodeId> annotate_primitive(
    spice::Circuit& ckt, const pcell::PrimitiveLayout& layout,
    const tech::Technology& t, const std::string& prefix,
    const AnnotateOptions& options) {
  std::map<std::string, spice::NodeId> port_nodes;
  std::map<std::string, spice::NodeId> inner_nodes;

  auto port_node = [&](const std::string& net_name) {
    if (auto it = options.port_mapping.find(net_name);
        it != options.port_mapping.end()) {
      return it->second;
    }
    return ckt.node(prefix + net_name);
  };

  // Create port and (extracted mode) internal nodes, plus strap parasitics.
  for (const auto& [net_name, strap] : layout.nets) {
    const spice::NodeId port = port_node(net_name);
    port_nodes[net_name] = port;
    if (options.ideal) {
      inner_nodes[net_name] = port;
      continue;
    }
    int wires = 1;
    if (auto it = options.tuning.find(net_name); it != options.tuning.end()) {
      OLP_CHECK(it->second >= 1, "tuning wire count must be >= 1");
      wires = it->second;
    }
    const double r = strap.resistance(t, wires);
    const double c = strap.capacitance(t, wires);
    if (options.lump_nets.count(net_name)) {
      inner_nodes[net_name] = port;
      if (c > 0) {
        ckt.add_capacitor(prefix + "Cw." + net_name, port, spice::kGround, c);
      }
      continue;
    }
    const spice::NodeId inner = ckt.node(prefix + net_name + ".x");
    inner_nodes[net_name] = inner;
    ckt.add_resistor(prefix + "R." + net_name, inner, port,
                     std::max(r, 1e-3));
    if (c > 0) {
      ckt.add_capacitor(prefix + "Cw." + net_name + ".i", inner,
                        spice::kGround, 0.5 * c);
      ckt.add_capacitor(prefix + "Cw." + net_name + ".o", port,
                        spice::kGround, 0.5 * c);
    }
  }
  // Ports that exist in the netlist but carry no devices (possible for
  // degenerate configs) still get nodes.
  for (const std::string& port : layout.netlist.ports) {
    if (!port_nodes.count(port)) {
      const spice::NodeId n = port_node(port);
      port_nodes[port] = n;
      inner_nodes[port] = n;
    }
  }

  for (const pcell::LogicalDevice& ld : layout.netlist.devices) {
    const auto it = layout.devices.find(ld.name);
    OLP_CHECK(it != layout.devices.end(),
              "layout missing device " + ld.name);
    const pcell::DevicePhysical& phys = it->second;

    spice::Mosfet m;
    m.name = prefix + ld.name;
    m.d = inner_nodes.at(ld.drain_net);
    m.g = inner_nodes.at(ld.gate_net);
    m.s = inner_nodes.at(ld.source_net);
    m.b = ld.mos_type == spice::MosType::kNmos ? options.nmos_bulk
                                               : options.pmos_bulk;
    m.model = ld.mos_type == spice::MosType::kNmos ? options.nmos_model
                                                   : options.pmos_model;
    m.w = phys.w;
    m.l = phys.l;
    double extra = 0.0;
    if (const auto dvth = options.extra_dvth.find(ld.name);
        dvth != options.extra_dvth.end()) {
      extra = dvth->second;
    }
    if (options.ideal) {
      nominal_junctions(t, phys.w, phys.l, m.as, m.ad, m.ps, m.pd);
      m.delta_vth = ld.vth_offset + extra;
      m.mobility_mult = 1.0;
    } else {
      m.as = phys.as;
      m.ad = phys.ad;
      m.ps = phys.ps;
      m.pd = phys.pd;
      m.delta_vth = phys.delta_vth + ld.vth_offset + extra;
      m.mobility_mult = phys.mobility_mult;
    }
    ckt.add_mosfet(std::move(m));
  }
  return port_nodes;
}

void add_wire_pi(spice::Circuit& ckt, const std::string& name,
                 spice::NodeId a, spice::NodeId b, const WireRc& rc) {
  OLP_CHECK(a != b, "wire endpoints must differ");
  ckt.add_resistor(name + ".r", a, b, std::max(rc.resistance, 1e-3));
  if (rc.capacitance > 0) {
    ckt.add_capacitor(name + ".ca", a, spice::kGround,
                      0.5 * rc.capacitance);
    ckt.add_capacitor(name + ".cb", b, spice::kGround,
                      0.5 * rc.capacitance);
  }
}

WireRc wire_rc(const tech::Technology& t, tech::Layer layer, double length,
               int parallel) {
  WireRc rc;
  rc.resistance = t.wire_res(layer, length, parallel);
  rc.capacitance = t.wire_cap(layer, length, parallel);
  return rc;
}

WireRc series(const WireRc& a, const WireRc& b) {
  return WireRc{a.resistance + b.resistance, a.capacitance + b.capacitance};
}

}  // namespace olp::extract
