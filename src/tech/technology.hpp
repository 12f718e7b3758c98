#pragma once
// Synthetic gridded FinFET technology ("PDK substitute").
//
// The paper's flow was demonstrated on a proprietary FinFET PDK. The flow
// itself only consumes a small technology surface: fin/poly pitches, the
// per-fin effective width, metal sheet resistances and capacitances, via
// resistance, minimum widths/spacings (for the gridded parallel-wire trick),
// and LDE coefficients. This module provides a self-consistent synthetic
// 12 nm-class technology with values in the publicly documented range for
// 7-14 nm nodes, so all RC and LDE trade-offs have the same shape as in the
// paper.

#include <array>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace olp::tech {

/// Routing/drawing layers. Fin/diffusion/poly are front-end layers; M1..M6
/// are gridded routing metals; V1..V5 connect Mi to Mi+1.
enum class Layer {
  kFin,
  kDiffusion,
  kPoly,
  kM1,
  kM2,
  kM3,
  kM4,
  kM5,
  kM6,
};

inline constexpr int kNumRoutingLayers = 6;

/// Returns the routing metal index (0 for M1) or -1 for front-end layers.
inline int metal_index(Layer layer) {
  switch (layer) {
    case Layer::kM1: return 0;
    case Layer::kM2: return 1;
    case Layer::kM3: return 2;
    case Layer::kM4: return 3;
    case Layer::kM5: return 4;
    case Layer::kM6: return 5;
    default: return -1;
  }
}

inline Layer metal_layer(int index) {
  OLP_CHECK(index >= 0 && index < kNumRoutingLayers, "bad metal index");
  return static_cast<Layer>(static_cast<int>(Layer::kM1) + index);
}

const char* layer_name(Layer layer);

/// Per-metal-layer electrical and geometric parameters.
struct MetalLayerInfo {
  double min_width = 0.0;      ///< [m]
  double min_spacing = 0.0;    ///< [m]
  double pitch = 0.0;          ///< routing pitch [m]
  double sheet_res = 0.0;      ///< [ohm/square]
  double cap_per_length = 0.0; ///< total (area+fringe+coupling) [F/m] at min width
  bool horizontal = false;     ///< preferred routing direction
};

/// Layout-dependent-effect coefficients (paper Sec. III-A: LOD and WPE shift
/// Vth and mobility; values scaled to produce shifts of a few to tens of mV,
/// consistent with [10], [11]).
struct LdeCoefficients {
  /// LOD (length-of-diffusion / stress) threshold shift:
  ///   dVth = k_lod_vth * (1/(SA + L/2) + 1/(SB + L/2) - 2/(SA_ref + L/2))
  /// Calibrated so a finger hugging the diffusion edge (SA ~ 30 nm) shifts
  /// by ~20-30 mV and a dummy-protected finger (SA ~ 90 nm) by ~10 mV,
  /// in the range reported for FinFET nodes [10], [11].
  double k_lod_vth = 1.0e-9;    ///< [V*m]
  double sa_ref = 2e-6;         ///< relaxed-stress reference extension [m]
  /// LOD mobility multiplier: mob *= 1 + k_lod_mob * (same geometric term).
  double k_lod_mob = -1.5e-12;  ///< [m] (~ -4% at the diffusion edge)
  /// WPE threshold shift: dVth = k_wpe_vth / (SC + sc_offset), SC = distance
  /// from the gate to the well edge (~10 mV close to the well edge).
  double k_wpe_vth = 1.5e-9;    ///< [V*m]
  double sc_offset = 80e-9;     ///< [m]
  /// Linear systematic process gradient across the die: dVth = grad_vth * x.
  double grad_vth = 0.6e-3 / 1e-6;  ///< [V/m] (0.6 mV per um)
};

/// The full technology description.
struct Technology {
  std::string name;

  // Front-end geometry.
  double fin_pitch = 0.0;       ///< [m]
  double poly_pitch = 0.0;      ///< contacted poly pitch [m]
  double fin_width_eff = 0.0;   ///< effective electrical width per fin [m]
  double gate_length = 0.0;     ///< drawn channel length [m]
  double diff_extension = 0.0;  ///< S/D diffusion extension past end gate [m]
  double row_height = 0.0;      ///< placement row height quantum [m]

  // Diffusion/contact parasitics.
  double diff_cont_res = 0.0;   ///< resistance of one S/D contact stack [ohm]
  double diff_sheet_res = 0.0;  ///< diffusion sheet resistance [ohm/sq]

  std::array<MetalLayerInfo, kNumRoutingLayers> metals{};
  double via_res = 0.0;         ///< single-cut via resistance [ohm]
  double via_cap = 0.0;         ///< via parasitic capacitance [F]

  LdeCoefficients lde;

  // Supply.
  double vdd = 0.0;             ///< nominal supply [V]

  const MetalLayerInfo& metal(Layer layer) const {
    const int idx = metal_index(layer);
    OLP_CHECK(idx >= 0, "layer is not a routing metal");
    return metals[static_cast<std::size_t>(idx)];
  }

  /// Wire resistance of a `length` run on `layer` at minimum width with
  /// `parallel` parallel tracks (the paper's gridded effective-width trick).
  double wire_res(Layer layer, double length, int parallel = 1) const;
  /// Wire capacitance of the same run (parallel tracks add capacitance).
  double wire_cap(Layer layer, double length, int parallel = 1) const;
  /// Resistance of a via stack from `from` to `to` with `cuts` parallel cuts.
  double via_stack_res(Layer from, Layer to, int cuts = 1) const;
};

/// Builds the default synthetic 12 nm-class FinFET technology.
Technology make_default_finfet_tech();

/// Builds a synthetic 65 nm-class planar bulk technology (the paper's
/// conclusion: "this work can readily be extended to other technologies
/// including bulk nodes"). The generator's fin abstraction maps onto width
/// quanta: one "fin" is one 0.28 um slice of planar width; LDE coefficients
/// keep LOD/WPE (both originated in bulk nodes) with a relaxed gradient.
Technology make_bulk_65nm_tech();

}  // namespace olp::tech
