#include "geom/svg.hpp"

#include <fstream>
#include <sstream>

#include "util/error.hpp"

namespace olp::geom {

namespace {

constexpr double kScale = 0.2;  ///< SVG pixels per nm
constexpr double kMarginPx = 10.0;

struct LayerStyle {
  const char* fill;
  double opacity;
};

LayerStyle style_of(tech::Layer layer) {
  switch (layer) {
    case tech::Layer::kFin: return {"#d0d0d0", 0.5};
    case tech::Layer::kDiffusion: return {"#3cb44b", 0.6};
    case tech::Layer::kPoly: return {"#e6194b", 0.7};
    case tech::Layer::kM1: return {"#4363d8", 0.55};
    case tech::Layer::kM2: return {"#f58231", 0.55};
    case tech::Layer::kM3: return {"#911eb4", 0.5};
    case tech::Layer::kM4: return {"#42d4f4", 0.5};
    case tech::Layer::kM5: return {"#bfef45", 0.5};
    case tech::Layer::kM6: return {"#fabed4", 0.5};
  }
  return {"#000000", 0.5};
}

}  // namespace

std::string to_svg(const Layout& layout, const SvgOptions& opt) {
  const Rect bb = layout.bounding_box();
  const double w = static_cast<double>(bb.width()) * kScale;
  const double h = static_cast<double>(bb.height()) * kScale;

  auto sx = [&](Coord x) {
    return (static_cast<double>(x - bb.x_lo)) * kScale + kMarginPx;
  };
  // SVG y grows downward; layout y grows upward.
  auto sy = [&](Coord y) {
    return h - (static_cast<double>(y - bb.y_lo)) * kScale + kMarginPx;
  };

  std::ostringstream os;
  os << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\""
     << w + 2 * kMarginPx << "\" height=\"" << h + 2 * kMarginPx
     << "\">\n";
  os << "<title>" << layout.name() << "</title>\n";
  os << "<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n";

  for (const Shape& s : layout.shapes()) {
    if (s.rect.width() == 0 || s.rect.height() == 0) continue;
    const LayerStyle st = style_of(s.layer);
    os << "<rect x=\"" << sx(s.rect.x_lo) << "\" y=\"" << sy(s.rect.y_hi)
       << "\" width=\"" << static_cast<double>(s.rect.width()) * kScale
       << "\" height=\"" << static_cast<double>(s.rect.height()) * kScale
       << "\" fill=\"" << st.fill << "\" fill-opacity=\"" << st.opacity
       << "\"";
    if (!s.net.empty()) {
      os << "><title>" << tech::layer_name(s.layer) << " / " << s.net
         << "</title></rect>\n";
    } else {
      os << "/>\n";
    }
    if (opt.label_nets && !s.net.empty() && s.rect.width() > 200) {
      os << "<text x=\"" << sx(s.rect.center().x) << "\" y=\""
         << sy(s.rect.center().y) << "\" font-size=\"8\" fill=\"black\" "
         << "text-anchor=\"middle\">" << s.net << "</text>\n";
    }
  }
  for (const Pin& p : layout.pins()) {
    os << "<rect x=\"" << sx(p.rect.x_lo) << "\" y=\"" << sy(p.rect.y_hi)
       << "\" width=\""
       << std::max(2.0, static_cast<double>(p.rect.width()) * kScale)
       << "\" height=\""
       << std::max(2.0, static_cast<double>(p.rect.height()) * kScale)
       << "\" fill=\"black\"/>\n";
    if (opt.label_pins) {
      os << "<text x=\"" << sx(p.rect.x_hi) + 2 << "\" y=\""
         << sy(p.rect.y_lo) << "\" font-size=\"10\" fill=\"black\">"
         << p.name << "</text>\n";
    }
  }
  os << "</svg>\n";
  return os.str();
}

void write_svg(const Layout& layout, const std::string& path,
               const SvgOptions& options) {
  std::ofstream out(path);
  OLP_CHECK(static_cast<bool>(out), "cannot open " + path + " for writing");
  out << to_svg(layout, options);
  OLP_CHECK(static_cast<bool>(out), "failed writing " + path);
}

}  // namespace olp::geom
