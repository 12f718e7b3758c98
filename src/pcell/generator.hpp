#pragma once
// Parameterized primitive layout generation (the "cell generator" box of the
// paper's Fig. 1, in the style of ALIGN's primitive generators).
//
// For a primitive netlist and a layout configuration (nfin, nf, m, pattern,
// dummies) the generator:
//   1. builds the per-row finger sequence implied by the placement pattern
//      (finger-level ABBA / ABAB / AABB interleaving of matched devices),
//   2. walks the sequence choosing source/drain orientations that maximize
//      diffusion sharing, inserting diffusion breaks where adjacent nets are
//      incompatible,
//   3. derives sharing-aware junction geometry (AS/AD/PS/PD),
//   4. evaluates layout-dependent effects per finger (LOD from the contiguous
//      diffusion run, WPE from the well edge distance, and the systematic
//      process gradient) and averages them per logical device,
//   5. sizes the internal source/drain/gate straps (mesh routing) so the
//      optimizer can trade their R against C by adding parallel wires,
//   6. emits the actual rectangles (diffusion, fins, poly, M1 bars, M2
//      straps) and the port pins.
//
// Steps 1-2 are the plan: sections, one row plan per distinct finger
// sequence (on interned net ids), slot counts, the cell outline with its
// pins, and each device's finger count. footprint() runs only the plan;
// generate() runs the plan and then steps 3-6 on it. A footprint has the
// full layout's bounding box, pins and device W/L bit for bit
// (tests/test_pcell.cpp checks every library netlist), which is all that
// scoring a candidate whose evaluation is cached reads.

#include <vector>

#include "pcell/primitive.hpp"
#include "tech/technology.hpp"

namespace olp::pcell {

/// Generates primitive layouts for a technology.
class PrimitiveGenerator {
 public:
  explicit PrimitiveGenerator(const tech::Technology& technology)
      : tech_(technology) {}

  /// Realizes `netlist` in configuration `config`. The configuration's
  /// fins_per_device() applies to unit_ratio == 1 devices; a device with
  /// unit_ratio k gets k times the fingers.
  PrimitiveLayout generate(const PrimitiveNetlist& netlist,
                           const LayoutConfig& config) const;

  /// The plan of generate() alone: the netlist, the configuration, the cell
  /// outline with its pins, and each device's W and L. The result has
  /// footprint_only set; materialize() turns it into generate()'s layout.
  PrimitiveLayout footprint(const PrimitiveNetlist& netlist,
                            const LayoutConfig& config) const;

  /// Replaces a footprint by the full layout of its (netlist, config) and
  /// returns it; a full layout is returned as it is.
  const PrimitiveLayout& materialize(PrimitiveLayout& layout) const;

  /// Enumerates layout configurations realizing `fins_per_device` total fins,
  /// one per valid (nfin, nf, m) divisor triple and placement pattern.
  /// `patterns` restricts the patterns (useful for unmatched primitives).
  static std::vector<LayoutConfig> enumerate_configs(
      int fins_per_device,
      const std::vector<PlacementPattern>& patterns = {
          PlacementPattern::kABBA, PlacementPattern::kABAB,
          PlacementPattern::kAABB});

  const tech::Technology& technology() const { return tech_; }

 private:
  const tech::Technology& tech_;
};

/// Builds one row's device-label sequence for a matched group.
/// `counts[i]` fingers of device i per row; the pattern controls interleaving.
/// Exposed for unit testing.
std::vector<int> build_row_sequence(const std::vector<int>& counts,
                                    PlacementPattern pattern);

}  // namespace olp::pcell
