#pragma once
// Primitive definitions: the leaf cells of the hierarchical flow.
//
// A primitive is a small group of devices (differential pair, current mirror,
// ...) with named logical devices and named terminal nets. The generator in
// generator.hpp realizes a primitive as FinFET rows for a given layout
// configuration (nfin, nf, m, placement pattern — paper Fig. 5), and attaches
// the parasitic/LDE annotations the optimizer consumes.

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "geom/layout.hpp"
#include "spice/model.hpp"
#include "tech/technology.hpp"

namespace olp::pcell {

/// Primitive families from the paper's library taxonomy (Sec. II-A).
enum class PrimitiveType {
  kDiffPair,
  kCurrentMirror,        ///< passive (diode-connected reference)
  kActiveCurrentMirror,  ///< load mirror in the signal path
  kCurrentSource,
  kCommonSource,
  kCurrentStarvedInverter,
  kCrossCoupledPair,
  kSwitch,
  kCapacitor,
};

const char* primitive_type_name(PrimitiveType type);

/// Placement patterns for matched devices (paper Table III).
enum class PlacementPattern {
  kABBA,  ///< common centroid
  kABAB,  ///< interdigitated
  kAABB,  ///< non-common-centroid (split halves)
};

const char* pattern_name(PlacementPattern pattern);

/// One logical transistor within a primitive.
struct LogicalDevice {
  std::string name;          ///< e.g. "MA"
  spice::MosType mos_type = spice::MosType::kNmos;
  std::string drain_net;     ///< primitive-level net names
  std::string gate_net;
  std::string source_net;
  /// Relative size: this device gets `unit_ratio` units per multiplicity
  /// step (mirror ratios, starve devices sized differently, ...).
  int unit_ratio = 1;
  /// Index of the matching group; devices sharing a group are interleaved
  /// by the placement pattern. -1 = unmatched (gets its own rows).
  int match_group = -1;
  /// Device-flavor threshold offset (e.g. low-Vt starve devices), applied in
  /// both schematic and extracted mode, on top of any LDE shift.
  double vth_offset = 0.0;
};

/// Netlist + matching description of a primitive (technology independent).
struct PrimitiveNetlist {
  PrimitiveType type = PrimitiveType::kDiffPair;
  std::string name;
  std::vector<LogicalDevice> devices;
  /// Terminal nets exposed as ports, in display order.
  std::vector<std::string> ports;
  /// Port pairs that the detailed router must keep geometrically symmetric
  /// (paper Sec. III-B1: offset "is maintained by the detailed router
  /// through a geometric constraint that keeps symmetric routes"). External
  /// wires on one member are mirrored onto the other during evaluation, and
  /// the flow equalizes the parallel-route counts of the nets they join.
  std::vector<std::pair<std::string, std::string>> symmetric_ports;
};

/// One layout configuration of a primitive (paper Fig. 5(b)):
/// nfin fins per finger, nf fingers per unit, m units (multiplicity), with
/// nfin * nf * m = total fins per unit-ratio-1 device.
struct LayoutConfig {
  int nfin = 8;
  int nf = 4;
  int m = 1;
  PlacementPattern pattern = PlacementPattern::kABBA;
  bool dummies = true;  ///< edge dummy fingers (reduce LOD, cost area)

  int fins_per_device() const { return nfin * nf * m; }
  std::string to_string() const;
};

/// An internal (within-primitive) routed net: enough information to evaluate
/// its RC for any number of parallel strap wires (primitive tuning).
///
/// Mesh model (the paper: "in FinFET nodes it is common to use mesh-like
/// routing to reduce resistive parasitics in lower metal layers"): every
/// contacted diffusion region carries a short vertical M1 bar of
/// `bar_length`; the bars of one row drop onto a horizontal bus of
/// `span_length`, `base_tracks` wide; the `rows` buses act in parallel and
/// join through a via ladder. Tuning ("add parallel wires at the tuning
/// terminal") multiplies the bus track count, cutting bus resistance at the
/// price of bus capacitance.
struct InternalNet {
  tech::Layer layer = tech::Layer::kM1;
  double span_length = 0.0;   ///< per-row bus length [m]
  double bar_length = 0.0;    ///< per-contact vertical bar length [m]
  double trunk_length = 0.0;  ///< via-ladder trunk length [m] (cap only)
  int rows = 1;               ///< parallel row buses
  int n_contacts = 1;         ///< contact bars in parallel (all rows)
  double contact_res = 0.0;   ///< single-contact resistance [ohm]
  int base_tracks = 2;        ///< bus width in tracks before tuning

  /// Distributed-collection factor: with current injected uniformly along a
  /// bus and collected at a via ladder, the effective series resistance of
  /// the bus is about a quarter of its end-to-end value.
  static constexpr double kBusDistribution = 0.25;

  /// Lumped series resistance with `parallel` bus-width multiplier.
  double resistance(const tech::Technology& t, int parallel = 1) const;
  /// Lumped capacitance with `parallel` bus-width multiplier.
  double capacitance(const tech::Technology& t, int parallel = 1) const;
};

/// Realized geometry/parasitics of one logical device in one configuration.
struct DevicePhysical {
  double w = 0.0;          ///< total effective width [m]
  double l = 0.0;          ///< channel length [m]
  double as = 0.0, ad = 0.0;  ///< diffusion areas (sharing-aware) [m^2]
  double ps = 0.0, pd = 0.0;  ///< diffusion perimeters [m]
  double delta_vth = 0.0;     ///< mean LDE Vth shift (LOD + WPE + gradient) [V]
  double mobility_mult = 1.0; ///< mean LDE mobility multiplier
};

/// A generated primitive layout: geometry plus per-device annotations.
struct PrimitiveLayout {
  PrimitiveNetlist netlist;
  LayoutConfig config;
  geom::Layout geometry;
  std::map<std::string, DevicePhysical> devices;  ///< by LogicalDevice::name
  /// Internal strap of every primitive net (shared nets have one strap).
  std::map<std::string, InternalNet> nets;
  /// Set by PrimitiveGenerator::footprint(): `geometry` holds only the cell
  /// outline and the pins, `devices` only W and L, `nets` nothing. The
  /// bounding box, pins and W/L equal the full layout's, so width(),
  /// height(), aspect_ratio() and area() hold; nothing else may be read
  /// before PrimitiveGenerator::materialize().
  bool footprint_only = false;

  double width() const { return geom::to_meters(geometry.bounding_box().width()); }
  double height() const {
    return geom::to_meters(geometry.bounding_box().height());
  }
  double aspect_ratio() const { return geometry.aspect_ratio(); }
  double area() const { return width() * height(); }
};

// --- Primitive netlist factories -------------------------------------------

/// NMOS differential pair: devices MA/MB, ports da, db, ga, gb, s.
PrimitiveNetlist make_diff_pair();
/// Passive NMOS current mirror 1:ratio: devices MREF/MOUT, ports ref, out, s.
PrimitiveNetlist make_current_mirror(int ratio = 1);
/// Cascoded NMOS current mirror 1:ratio (paper Sec. II-A: "cascoded ...
/// structures"): two matched device rows (mirror pair + cascode pair),
/// ports ref, out, s.
PrimitiveNetlist make_cascode_current_mirror(int ratio = 1);
/// Cascoded differential pair: input pair + cascode pair biased at vcasc;
/// ports da, db, ga, gb, vcasc, s.
PrimitiveNetlist make_cascode_diff_pair();
/// PMOS active (load) current mirror: ports ref, out, vdd.
PrimitiveNetlist make_active_current_mirror();
/// Single-transistor current source: ports bias (gate), out, s.
PrimitiveNetlist make_current_source(spice::MosType type = spice::MosType::kNmos);
/// Common-source amplifier device: ports in, out, s.
PrimitiveNetlist make_common_source();
/// Current-starved inverter: devices MPI/MNI (inverter) + MPS/MNS (starve),
/// ports in, out, vbp, vbn, vdd, vss. The starve devices are low-Vt
/// (`starve_vth_offset` below the regular threshold) so the stage keeps a
/// residual current at zero control voltage.
PrimitiveNetlist make_current_starved_inverter(double starve_vth_offset = -0.26);
/// NMOS cross-coupled pair: devices MA/MB, ports da, db, s.
PrimitiveNetlist make_cross_coupled_pair(spice::MosType type = spice::MosType::kNmos);
/// Cross-coupled pair with split sources (StrongARM latch stack):
/// MA: d=da g=db s=sa, MB: d=db g=da s=sb; ports da, db, sa, sb.
PrimitiveNetlist make_latch_pair(spice::MosType type = spice::MosType::kNmos);
/// Clocked switch transistor: ports clk (gate), a (drain), b (source).
PrimitiveNetlist make_switch(spice::MosType type = spice::MosType::kNmos);

}  // namespace olp::pcell
