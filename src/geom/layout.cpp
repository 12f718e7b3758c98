#include "geom/layout.hpp"

namespace olp::geom {

const Pin& Layout::pin(const std::string& pin_name) const {
  for (const Pin& p : pins_) {
    if (p.name == pin_name) return p;
  }
  throw InvalidArgumentError("layout '" + name_ + "' has no pin '" +
                             pin_name + "'");
}

bool Layout::has_pin(const std::string& pin_name) const {
  for (const Pin& p : pins_) {
    if (p.name == pin_name) return true;
  }
  return false;
}

Rect Layout::bounding_box() const {
  OLP_CHECK(!shapes_.empty() || !pins_.empty(),
            "bounding box of empty layout");
  Rect bb = shapes_.empty() ? pins_.front().rect : shapes_.front().rect;
  for (const Shape& s : shapes_) bb = bb.united(s.rect);
  for (const Pin& p : pins_) bb = bb.united(p.rect);
  return bb;
}

void Layout::merge(const Layout& other, Coord dx, Coord dy,
                   const std::string& pin_prefix) {
  for (const Shape& s : other.shapes_) {
    shapes_.push_back(Shape{s.layer, s.rect.translated(dx, dy), s.net});
  }
  for (const Pin& p : other.pins_) {
    pins_.push_back(Pin{pin_prefix.empty() ? p.name : pin_prefix + p.name,
                        p.layer, p.rect.translated(dx, dy)});
  }
}

CellAbstract make_abstract(const Layout& layout) {
  const Rect bb = layout.bounding_box();
  CellAbstract abs;
  abs.name = layout.name();
  abs.bbox = Rect{0, 0, bb.width(), bb.height()};
  for (const Pin& p : layout.pins()) {
    abs.pins.push_back(
        Pin{p.name, p.layer, p.rect.translated(-bb.x_lo, -bb.y_lo)});
  }
  return abs;
}

}  // namespace olp::geom
