#pragma once
// SVG rendering of layouts: a lightweight viewer format for inspecting
// generated primitives and assembled floorplans (fins, diffusion, poly,
// metals, pins), with a per-layer color scheme and optional net labels.

#include <string>

#include "geom/layout.hpp"

namespace olp::geom {

struct SvgOptions {
  double scale = 0.2;        ///< SVG pixels per nm
  bool label_pins = true;
  bool label_nets = false;   ///< annotate shapes with their net name
};

/// Renders the layout as a standalone SVG document.
std::string to_svg(const Layout& layout, const SvgOptions& options = {});

/// Convenience: renders and writes to `path`; throws on I/O failure.
void write_svg(const Layout& layout, const std::string& path,
               const SvgOptions& options = {});

}  // namespace olp::geom
