#include "geom/drc.hpp"

#include <algorithm>
#include <map>
#include <sstream>

namespace olp::geom {

std::string DrcViolation::to_string() const {
  std::ostringstream os;
  os << (kind == Kind::kMinWidth ? "min-width" : "min-spacing") << " on "
     << tech::layer_name(layer) << ": " << value * 1e9 << " nm < "
     << limit * 1e9 << " nm at (" << a.x_lo << "," << a.y_lo << ")";
  return os.str();
}

namespace {

/// Edge-to-edge spacing between two non-intersecting rects [nm].
Coord rect_spacing(const Rect& a, const Rect& b) {
  const Coord dx = std::max<Coord>(
      0, std::max(a.x_lo, b.x_lo) - std::min(a.x_hi, b.x_hi));
  const Coord dy = std::max<Coord>(
      0, std::max(a.y_lo, b.y_lo) - std::min(a.y_hi, b.y_hi));
  // Corner-to-corner counts as the Euclidean-free Manhattan max (the common
  // simplified rule): use the larger of the two gaps.
  return std::max(dx, dy);
}

}  // namespace

std::vector<DrcViolation> check_design_rules(const tech::Technology& t,
                                             const Layout& layout) {
  std::vector<DrcViolation> violations;

  // Bucket shapes per layer.
  std::map<tech::Layer, std::vector<const Shape*>> by_layer;
  for (const Shape& s : layout.shapes()) {
    if (tech::metal_index(s.layer) < 0) continue;
    if (s.rect.width() == 0 || s.rect.height() == 0) continue;  // markers
    by_layer[s.layer].push_back(&s);
  }

  for (const auto& [layer, shapes] : by_layer) {
    const tech::MetalLayerInfo& m = t.metal(layer);
    const Coord min_w = to_nm(m.min_width);
    const Coord min_s = to_nm(m.min_spacing);

    for (const Shape* s : shapes) {
      const Coord w = std::min(s->rect.width(), s->rect.height());
      if (w < min_w) {
        DrcViolation v;
        v.kind = DrcViolation::Kind::kMinWidth;
        v.layer = layer;
        v.a = s->rect;
        v.value = to_meters(w);
        v.limit = m.min_width;
        violations.push_back(v);
      }
    }

    for (std::size_t i = 0; i < shapes.size(); ++i) {
      for (std::size_t j = i + 1; j < shapes.size(); ++j) {
        const Shape* a = shapes[i];
        const Shape* b = shapes[j];
        if (!a->net.empty() && a->net == b->net) continue;
        if (a->rect.intersects(b->rect)) {
          // Different-net overlap is a short: report as zero spacing.
          DrcViolation v;
          v.kind = DrcViolation::Kind::kMinSpacing;
          v.layer = layer;
          v.a = a->rect;
          v.b = b->rect;
          v.value = 0.0;
          v.limit = m.min_spacing;
          violations.push_back(v);
          continue;
        }
        const Coord gap = rect_spacing(a->rect, b->rect);
        if (gap < min_s) {
          DrcViolation v;
          v.kind = DrcViolation::Kind::kMinSpacing;
          v.layer = layer;
          v.a = a->rect;
          v.b = b->rect;
          v.value = to_meters(gap);
          v.limit = m.min_spacing;
          violations.push_back(v);
        }
      }
    }
  }
  return violations;
}

}  // namespace olp::geom
