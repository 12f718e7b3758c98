#include "pcell/generator.hpp"

#include <algorithm>
#include <numeric>
#include <string>

#include "util/error.hpp"
#include "util/units.hpp"

namespace olp::pcell {

namespace {

/// Proportional (Bresenham-style) interleave of device labels: device i
/// appears counts[i] times, spread as evenly as possible.
std::vector<int> proportional_interleave(const std::vector<int>& counts) {
  const int total = std::accumulate(counts.begin(), counts.end(), 0);
  std::vector<double> err(counts.size(), 0.0);
  std::vector<int> placed(counts.size(), 0);
  std::vector<int> seq;
  seq.reserve(static_cast<std::size_t>(total));
  for (int slot = 0; slot < total; ++slot) {
    // Pick the device with the largest deficit relative to its quota.
    int best = -1;
    double best_deficit = -1e300;
    for (std::size_t d = 0; d < counts.size(); ++d) {
      if (placed[d] >= counts[d]) continue;
      const double quota =
          static_cast<double>(counts[d]) * (slot + 1) / total;
      const double deficit = quota - placed[d];
      if (deficit > best_deficit) {
        best_deficit = deficit;
        best = static_cast<int>(d);
      }
    }
    OLP_ASSERT(best >= 0, "interleave ran out of devices");
    seq.push_back(best);
    placed[static_cast<std::size_t>(best)]++;
  }
  return seq;
}

}  // namespace

std::vector<int> build_row_sequence(const std::vector<int>& counts,
                                    PlacementPattern pattern) {
  OLP_CHECK(!counts.empty(), "row sequence needs at least one device");
  for (int c : counts) OLP_CHECK(c >= 0, "negative finger count");
  const int total = std::accumulate(counts.begin(), counts.end(), 0);
  OLP_CHECK(total > 0, "row sequence needs at least one finger");

  switch (pattern) {
    case PlacementPattern::kAABB: {
      // Split halves: all of device 0, then all of device 1, ...
      std::vector<int> seq;
      seq.reserve(static_cast<std::size_t>(total));
      for (std::size_t d = 0; d < counts.size(); ++d) {
        seq.insert(seq.end(), static_cast<std::size_t>(counts[d]),
                   static_cast<int>(d));
      }
      return seq;
    }
    case PlacementPattern::kABAB:
      return proportional_interleave(counts);
    case PlacementPattern::kABBA: {
      // Common centroid. For a balanced pair, repeat the ABBA block: the
      // pairwise-mirrored order A B B A A B B A ... keeps the centroids
      // matched AND every diffusion boundary shareable (source at A|B and
      // B|A boundaries, drain at A|A and B|B boundaries).
      if (counts.size() == 2 && counts[0] == counts[1]) {
        std::vector<int> seq;
        seq.reserve(static_cast<std::size_t>(total));
        for (int k = 0; k < counts[0]; ++k) {
          if (k % 2 == 0) {
            seq.push_back(0);
            seq.push_back(1);
          } else {
            seq.push_back(1);
            seq.push_back(0);
          }
        }
        return seq;
      }
      // General case: interleave half the fingers, then mirror. Odd
      // remainders go in the middle (their centroid error is minimal there).
      std::vector<int> half_counts(counts.size());
      std::vector<int> odd;
      for (std::size_t d = 0; d < counts.size(); ++d) {
        half_counts[d] = counts[d] / 2;
        if (counts[d] % 2 != 0) odd.push_back(static_cast<int>(d));
      }
      std::vector<int> first = proportional_interleave(half_counts);
      std::vector<int> seq = first;
      seq.insert(seq.end(), odd.begin(), odd.end());
      seq.insert(seq.end(), first.rbegin(), first.rend());
      return seq;
    }
  }
  throw InternalError("unknown placement pattern");
}

std::vector<LayoutConfig> PrimitiveGenerator::enumerate_configs(
    int fins_per_device, const std::vector<PlacementPattern>& patterns) {
  OLP_CHECK(fins_per_device >= 4, "too few fins to enumerate configurations");
  static constexpr int kNfinChoices[] = {4, 6, 8, 12, 16, 20, 24, 32};
  std::vector<LayoutConfig> configs;
  for (int nfin : kNfinChoices) {
    if (fins_per_device % nfin != 0) continue;
    const int rest = fins_per_device / nfin;
    for (int m = 1; m <= 12; ++m) {
      if (rest % m != 0) continue;
      const int nf = rest / m;
      if (nf < 2 || nf > 64) continue;
      for (PlacementPattern p : patterns) {
        LayoutConfig c;
        c.nfin = nfin;
        c.nf = nf;
        c.m = m;
        c.pattern = p;
        configs.push_back(c);
      }
    }
  }
  return configs;
}

namespace {

using geom::Rect;
using geom::to_nm;

constexpr double kRowGap = 40e-9;
constexpr double kEdgeMargin = 100e-9;  // well/guard enclosure

/// A device's source, drain and gate nets as interned net ids.
struct DeviceNets {
  int source = 0;
  int drain = 0;
  int gate = 0;
};

/// One finger in a row: which device it belongs to and its S/D orientation.
struct Finger {
  int device = 0;    ///< index into the section's device list
  bool src_left = true;  ///< source on the left side
  int run_id = 0;    ///< contiguous diffusion run the finger belongs to
  int pos_in_run = 0;
  int x_index = 0;   ///< finger slot index within the row (incl. dummies)
};

/// A device terminal attached to a diffusion region.
struct Terminal {
  int device = 0;  ///< index into the section's device list
  bool source = true;
};

/// A diffusion region between/beside gates.
struct DiffRegion {
  int net = 0;  ///< interned net id
  /// A run-edge region carries one terminal, a shared region two.
  Terminal terminals[2];
  int n_terminals = 0;
  bool inner = false;  ///< shared-pitch region (vs. run-end extension)
  int x_index = 0;     ///< slot position
};

/// The plan of one distinct row sequence.
struct RowPlan {
  std::vector<Finger> fingers;
  std::vector<DiffRegion> regions;
  std::vector<int> run_len;  ///< fingers per diffusion run
  int n_slots = 0;  ///< total horizontal slots incl. dummies and breaks
};

/// Walks the row sequence assigning orientations to maximize diffusion
/// sharing and collecting diffusion regions.
RowPlan plan_row(const std::vector<int>& seq,
                 const std::vector<DeviceNets>& devices, bool dummies) {
  RowPlan plan;
  plan.fingers.reserve(seq.size());
  plan.regions.reserve(seq.size() + 1);  // one run; breaks add more
  int run_id = 0;
  int pos_in_run = 0;
  int x_index = 0;
  int open_net = -1;  // net of the currently open (right-side) diffusion

  auto net_of = [&](int dev, bool source) {
    const DeviceNets& d = devices[static_cast<std::size_t>(dev)];
    return source ? d.source : d.drain;
  };

  for (std::size_t i = 0; i < seq.size(); ++i) {
    const int dev = seq[i];
    const int s_net = net_of(dev, true);
    const int d_net = net_of(dev, false);

    bool share = false;
    bool src_left = true;
    if (i > 0) {
      if (open_net == s_net) {
        share = true;
        src_left = true;
      } else if (open_net == d_net) {
        share = true;
        src_left = false;
      }
    }

    if (i == 0 || !share) {
      // Start a new run: optional dummy finger on the left, then the left
      // edge diffusion region.
      if (i > 0) {
        ++run_id;
        pos_in_run = 0;
        if (dummies) ++x_index;  // right dummy of the previous run
        ++x_index;               // break gap
      }
      if (dummies) ++x_index;  // leading dummy of the run
      // Orient the run's first finger so its right terminal can share with
      // the next finger (this is what makes ABBA rows fully
      // diffusion-shared: A(D,S) B(S,D) B(D,S) A(S,D) ...).
      src_left = true;
      if (i + 1 < seq.size()) {
        const int next_s = net_of(seq[i + 1], true);
        const int next_d = net_of(seq[i + 1], false);
        if (d_net == next_s || d_net == next_d) {
          src_left = true;  // drain on the right shares with the next finger
        } else if (s_net == next_s || s_net == next_d) {
          src_left = false;  // source on the right shares
        }
      }
      DiffRegion left;
      left.net = src_left ? s_net : d_net;
      left.terminals[0] = {dev, src_left};
      left.n_terminals = 1;
      left.inner = dummies;  // a dummy converts the edge into a shared pitch
      left.x_index = x_index;
      plan.regions.push_back(left);
    } else {
      // Shared: attach this finger's matching terminal to the open region.
      DiffRegion& open = plan.regions.back();
      OLP_ASSERT(open.n_terminals == 1, "diffusion region shared twice");
      open.terminals[open.n_terminals++] = {dev, src_left};
    }

    Finger f;
    f.device = dev;
    f.src_left = src_left;
    f.run_id = run_id;
    f.pos_in_run = pos_in_run++;
    f.x_index = ++x_index;
    plan.fingers.push_back(f);

    // Open the right-side region of this finger.
    const int right_net = src_left ? d_net : s_net;
    DiffRegion right;
    right.net = right_net;
    right.terminals[0] = {dev, !src_left};
    right.n_terminals = 1;
    right.inner = true;  // provisional; fixed up below for run ends
    right.x_index = x_index + 1;
    plan.regions.push_back(right);
    open_net = right_net;
  }
  if (dummies) ++x_index;  // trailing dummy
  plan.n_slots = x_index + 1;

  plan.run_len.assign(static_cast<std::size_t>(run_id) + 1, 0);
  for (const Finger& f : plan.fingers) {
    int& len = plan.run_len[static_cast<std::size_t>(f.run_id)];
    len = std::max(len, f.pos_in_run + 1);
  }
  // Mark the first and last region of each run as outer (full diffusion
  // extension) unless dummies absorb the edge. Regions appear in order and
  // each run of length `len` contributes exactly len + 1 regions.
  if (!dummies) {
    std::size_t r = 0;
    for (const int len : plan.run_len) {
      const std::size_t first_region = r;
      r += static_cast<std::size_t>(len) + 1;
      OLP_ASSERT(r <= plan.regions.size(), "region bookkeeping error");
      plan.regions[first_region].inner = false;
      plan.regions[r - 1].inner = false;
    }
    OLP_ASSERT(r == plan.regions.size(), "region bookkeeping error");
  }
  return plan;
}

/// A matched group sharing rows, or one unmatched device in rows of its
/// own.
struct SectionPlan {
  std::vector<int> devices;  ///< netlist device indices, in netlist order
  std::vector<RowPlan> rows;  ///< one plan per distinct row sequence
  std::vector<int> row_plan;  ///< per row: its index into `rows`
  double y0 = 0.0;  ///< bottom of the section's first row band
};

/// Everything generate() and footprint() share: interned nets, the row
/// plans, the cell outline and each device's finger count.
struct CellPlan {
  /// Interned net names, sorted, so id order is name order.
  std::vector<const std::string*> nets;
  std::vector<DeviceNets> device_nets;  ///< per netlist device
  std::vector<SectionPlan> sections;
  std::vector<int> fingers;  ///< per netlist device, all rows
  double row_fin_height = 0.0;
  double strap_band = 0.0;
  double row_height = 0.0;
  double cell_width = 0.0;
  double cell_height = 0.0;
};

CellPlan plan_cell(const tech::Technology& t, const PrimitiveNetlist& netlist,
                   const LayoutConfig& config) {
  OLP_CHECK(!netlist.devices.empty(), "primitive has no devices");
  OLP_CHECK(config.nfin >= 1 && config.nf >= 1 && config.m >= 1,
            "invalid layout configuration");
  CellPlan plan;

  // Intern the device nets: ids follow name order.
  for (const LogicalDevice& d : netlist.devices) {
    plan.nets.insert(plan.nets.end(),
                     {&d.source_net, &d.drain_net, &d.gate_net});
  }
  const auto by_name = [](const std::string* a, const std::string* b) {
    return *a < *b;
  };
  std::sort(plan.nets.begin(), plan.nets.end(), by_name);
  plan.nets.erase(std::unique(plan.nets.begin(), plan.nets.end(),
                              [](const std::string* a, const std::string* b) {
                                return *a == *b;
                              }),
                  plan.nets.end());
  const auto id_of = [&](const std::string& net) {
    return static_cast<int>(
        std::lower_bound(plan.nets.begin(), plan.nets.end(), &net, by_name) -
        plan.nets.begin());
  };
  for (const LogicalDevice& d : netlist.devices) {
    plan.device_nets.push_back(
        {id_of(d.source_net), id_of(d.drain_net), id_of(d.gate_net)});
  }

  // Group devices into sections: matched groups share rows, unmatched
  // devices stack their own rows.
  {
    std::vector<int> section_group;
    for (std::size_t d = 0; d < netlist.devices.size(); ++d) {
      const int g = netlist.devices[d].match_group;
      const auto it = g < 0 ? section_group.end()
                            : std::find(section_group.begin(),
                                        section_group.end(), g);
      if (it != section_group.end()) {
        plan.sections[static_cast<std::size_t>(it - section_group.begin())]
            .devices.push_back(static_cast<int>(d));
      } else {
        section_group.push_back(g);
        plan.sections.emplace_back();
        plan.sections.back().devices.push_back(static_cast<int>(d));
      }
    }
  }

  const double poly_pitch = t.poly_pitch;
  plan.row_fin_height = config.nfin * t.fin_pitch;
  plan.strap_band = 4.0 * t.metals[0].pitch;
  plan.row_height = plan.row_fin_height + plan.strap_band;

  double y_cursor = kEdgeMargin;
  double max_row_width = 0.0;
  plan.fingers.assign(netlist.devices.size(), 0);
  const std::size_t m = static_cast<std::size_t>(config.m);
  for (SectionPlan& section : plan.sections) {
    std::vector<DeviceNets> nets;
    std::vector<int> counts;
    for (int d : section.devices) {
      nets.push_back(plan.device_nets[static_cast<std::size_t>(d)]);
      counts.push_back(config.nf *
                       netlist.devices[static_cast<std::size_t>(d)].unit_ratio);
    }

    // Per-row finger sequences, each distinct one planned once. For most
    // patterns every row is identical; the non-common-centroid AABB pattern
    // splits at ROW level when the configuration has multiple rows (device
    // A in the top rows, device B in the bottom rows) - that is what "split
    // halves" means for a multi-row structure, and it is what makes its
    // systematic offset grow with the configuration's height.
    std::vector<std::vector<int>> seqs;
    if (config.pattern == PlacementPattern::kAABB && config.m >= 2 &&
        counts.size() == 2 && counts[0] == counts[1]) {
      const std::size_t per_row =
          static_cast<std::size_t>(counts[0] + counts[1]);
      const std::size_t full_rows_each = m / 2;
      seqs.emplace_back(per_row, 0);
      section.row_plan.assign(full_rows_each, 0);
      if (config.m % 2 != 0) {
        std::vector<int> mid(per_row, 0);
        std::fill(mid.begin() + counts[0], mid.end(), 1);
        seqs.push_back(std::move(mid));
        section.row_plan.push_back(1);
      }
      seqs.emplace_back(per_row, 1);
      section.row_plan.resize(m, static_cast<int>(seqs.size()) - 1);
    } else {
      seqs.push_back(build_row_sequence(counts, config.pattern));
      section.row_plan.assign(m, 0);
      // 2-D common centroid for the matched patterns: odd rows use the
      // device-complemented sequence, so run-edge LOD/WPE exposure
      // alternates between the devices and cancels across row pairs.
      if (config.pattern != PlacementPattern::kAABB && counts.size() == 2 &&
          counts[0] == counts[1] && config.m >= 2) {
        std::vector<int> complement = seqs.front();
        for (int& dev : complement) dev = 1 - dev;
        seqs.push_back(std::move(complement));
        for (std::size_t r = 1; r < m; r += 2) section.row_plan[r] = 1;
      }
    }
    for (const std::vector<int>& seq : seqs) {
      section.rows.push_back(plan_row(seq, nets, config.dummies));
      max_row_width =
          std::max(max_row_width,
                   2.0 * kEdgeMargin + section.rows.back().n_slots * poly_pitch);
    }
    for (const int r : section.row_plan) {
      for (const Finger& f : section.rows[static_cast<std::size_t>(r)].fingers) {
        ++plan.fingers[static_cast<std::size_t>(
            section.devices[static_cast<std::size_t>(f.device)])];
      }
    }

    section.y0 = y_cursor;
    y_cursor += config.m * (plan.row_height + kRowGap) + kRowGap;
  }
  for (const int fingers : plan.fingers) {
    OLP_ASSERT(fingers > 0, "device generated no fingers");
  }
  plan.cell_width = max_row_width;
  plan.cell_height = y_cursor + kEdgeMargin;
  return plan;
}

/// The cell outline: the port pins on M2 along the top edge, then two
/// boundary markers so the bbox reflects the full cell.
void add_outline(const tech::Technology& t, const PrimitiveNetlist& netlist,
                 const CellPlan& plan, geom::Layout& geometry) {
  int k = 0;
  for (const std::string& port : netlist.ports) {
    const double x = kEdgeMargin + k * 3.0 * t.metals[1].pitch;
    geometry.add_pin(port, tech::Layer::kM2,
                     Rect{to_nm(x), to_nm(plan.cell_height - kEdgeMargin),
                          to_nm(x + 40e-9),
                          to_nm(plan.cell_height - kEdgeMargin + 40e-9)});
    ++k;
  }
  geometry.add_shape(tech::Layer::kDiffusion,
                     Rect{0, 0, to_nm(plan.cell_width), 0});
  geometry.add_shape(tech::Layer::kDiffusion,
                     Rect{0, to_nm(plan.cell_height), to_nm(plan.cell_width),
                          to_nm(plan.cell_height)});
}

/// Total effective width of a device with `fingers` fingers.
double device_width(const tech::Technology& t, const LayoutConfig& config,
                    int fingers) {
  return t.fin_width_eff * config.nfin * fingers;
}

}  // namespace

PrimitiveLayout PrimitiveGenerator::footprint(const PrimitiveNetlist& netlist,
                                              const LayoutConfig& config) const {
  const CellPlan plan = plan_cell(tech_, netlist, config);
  PrimitiveLayout out;
  out.netlist = netlist;
  out.config = config;
  out.footprint_only = true;
  add_outline(tech_, netlist, plan, out.geometry);
  for (std::size_t d = 0; d < netlist.devices.size(); ++d) {
    DevicePhysical phys;
    phys.w = device_width(tech_, config, plan.fingers[d]);
    phys.l = tech_.gate_length;
    out.devices[netlist.devices[d].name] = phys;
  }
  return out;
}

const PrimitiveLayout& PrimitiveGenerator::materialize(
    PrimitiveLayout& layout) const {
  if (layout.footprint_only) layout = generate(layout.netlist, layout.config);
  return layout;
}

PrimitiveLayout PrimitiveGenerator::generate(const PrimitiveNetlist& netlist,
                                             const LayoutConfig& config) const {
  const CellPlan plan = plan_cell(tech_, netlist, config);

  PrimitiveLayout out;
  out.netlist = netlist;
  out.config = config;
  out.geometry.set_name(netlist.name + "/" + config.to_string());

  const tech::Technology& t = tech_;
  const double poly_pitch = t.poly_pitch;
  const double gate_l = t.gate_length;
  const double row_fin_height = plan.row_fin_height;
  const double strap_band = plan.strap_band;
  const double row_height = plan.row_height;

  struct DeviceAccum {
    double sum_dvth = 0.0;
    double sum_mob = 0.0;
    double sum_x = 0.0;  // finger-position sums for the gradient centroid
    double sum_y = 0.0;
    double as = 0.0, ad = 0.0, ps = 0.0, pd = 0.0;
  };
  std::vector<DeviceAccum> acc(netlist.devices.size());

  struct NetAccum {
    double min_x = 1e300, max_x = -1e300;
    int contacts = 0;         // total contact stacks, all rows
    double contact_res = 0;   // representative single-contact resistance
    bool carries_sd = false;  // touched by a source/drain terminal
  };
  std::vector<NetAccum> net_acc(plan.nets.size());
  auto touch_net = [&](int net, double x, double contact_res, bool is_sd) {
    NetAccum& na = net_acc[static_cast<std::size_t>(net)];
    na.min_x = std::min(na.min_x, x);
    na.max_x = std::max(na.max_x, x);
    na.contacts += 1;
    na.contact_res = na.contact_res == 0.0
                         ? contact_res
                         : std::min(na.contact_res, contact_res);
    na.carries_sd = na.carries_sd || is_sd;
  };
  auto net_name = [&](int net) -> const std::string& {
    return *plan.nets[static_cast<std::size_t>(net)];
  };

  for (const SectionPlan& section : plan.sections) {
    auto nets_of = [&](int local) -> const DeviceNets& {
      return plan.device_nets[static_cast<std::size_t>(
          section.devices[static_cast<std::size_t>(local)])];
    };

    const double lde_l2 = gate_l * 0.5;
    for (int row = 0; row < config.m; ++row) {
      const RowPlan& rp = section.rows[static_cast<std::size_t>(
          section.row_plan[static_cast<std::size_t>(row)])];

      const double row_width = 2.0 * kEdgeMargin + rp.n_slots * poly_pitch;

      const double row_y = section.y0 + row * (row_height + kRowGap);
      const double diff_y0 = row_y + strap_band * 0.5;
      const double diff_y1 = diff_y0 + row_fin_height;
      const double row_y_center = 0.5 * (diff_y0 + diff_y1);

      // Geometry: fins, diffusion regions, poly fingers.
      out.geometry.add_shape(
          tech::Layer::kFin,
          Rect{to_nm(kEdgeMargin), to_nm(diff_y0),
               to_nm(kEdgeMargin + rp.n_slots * poly_pitch), to_nm(diff_y1)});
      for (const DiffRegion& region : rp.regions) {
        const double x0 = kEdgeMargin + region.x_index * poly_pitch;
        const double w_region =
            region.inner ? (poly_pitch - gate_l) : t.diff_extension;
        out.geometry.add_shape(
            tech::Layer::kDiffusion,
            Rect{to_nm(x0), to_nm(diff_y0), to_nm(x0 + w_region),
                 to_nm(diff_y1)},
            net_name(region.net));
      }
      for (const Finger& f : rp.fingers) {
        const double xg = kEdgeMargin + f.x_index * poly_pitch - gate_l * 0.5;
        out.geometry.add_shape(
            tech::Layer::kPoly,
            Rect{to_nm(xg), to_nm(diff_y0 - 30e-9), to_nm(xg + gate_l),
                 to_nm(diff_y1 + 30e-9)},
            net_name(nets_of(f.device).gate));
      }

      // LDE accumulation per finger.
      for (const Finger& f : rp.fingers) {
        const int global_dev = section.devices[static_cast<std::size_t>(f.device)];
        DeviceAccum& a = acc[static_cast<std::size_t>(global_dev)];
        const int len = rp.run_len[static_cast<std::size_t>(f.run_id)];
        // Diffusion extents to the ends of the run; dummies protect by one
        // extra pitch.
        const double extra = config.dummies ? poly_pitch : 0.0;
        const double sa = (f.pos_in_run + 0.5) * poly_pitch + extra;
        const double sb = (len - f.pos_in_run - 0.5) * poly_pitch + extra;
        const double lod_term = 1.0 / (sa + lde_l2) + 1.0 / (sb + lde_l2) -
                                2.0 / (t.lde.sa_ref + lde_l2);
        const double x_pos = kEdgeMargin + f.x_index * poly_pitch;
        const double sc = std::min(x_pos, row_width - x_pos) + t.lde.sc_offset;
        const double dvth_lod = t.lde.k_lod_vth * lod_term;
        const double dvth_wpe = t.lde.k_wpe_vth / sc;
        a.sum_dvth += dvth_lod + dvth_wpe;
        a.sum_mob += 1.0 + t.lde.k_lod_mob * lod_term;
        a.sum_x += x_pos;
        a.sum_y += row_y_center;
        touch_net(nets_of(f.device).gate, x_pos, t.via_res, false);
      }

      // Junction geometry per diffusion region.
      for (const DiffRegion& region : rp.regions) {
        const double w_region =
            region.inner ? (poly_pitch - gate_l) : t.diff_extension;
        const double area = w_region * row_fin_height;
        const double perim = 2.0 * (w_region + row_fin_height);
        const double x_pos = kEdgeMargin + region.x_index * poly_pitch;
        const double share = 1.0 / static_cast<double>(region.n_terminals);
        for (int k = 0; k < region.n_terminals; ++k) {
          const Terminal& term = region.terminals[k];
          const int global_dev =
              section.devices[static_cast<std::size_t>(term.device)];
          DeviceAccum& a = acc[static_cast<std::size_t>(global_dev)];
          if (term.source) {
            a.as += area * share;
            a.ps += perim * share;
            touch_net(nets_of(term.device).source, x_pos, t.diff_cont_res,
                      true);
          } else {
            a.ad += area * share;
            a.pd += perim * share;
            touch_net(nets_of(term.device).drain, x_pos, t.diff_cont_res,
                      true);
          }
        }
      }
    }

    // M1 strap bars per section net (one per row per net, for the geometry
    // view; the electrical mesh model lives in InternalNet). Ids follow name
    // order, so the bars stack in net-name order.
    std::vector<int> section_nets;
    for (std::size_t local = 0; local < section.devices.size(); ++local) {
      const DeviceNets& dn = nets_of(static_cast<int>(local));
      section_nets.insert(section_nets.end(), {dn.source, dn.drain, dn.gate});
    }
    std::sort(section_nets.begin(), section_nets.end());
    section_nets.erase(std::unique(section_nets.begin(), section_nets.end()),
                       section_nets.end());
    int strap_track = 0;
    for (const int net : section_nets) {
      for (int row = 0; row < config.m; ++row) {
        const RowPlan& rp = section.rows[static_cast<std::size_t>(
            section.row_plan[static_cast<std::size_t>(row)])];
        const double row_y = section.y0 + row * (row_height + kRowGap);
        const double y_bar = row_y + strap_track * t.metals[0].pitch;
        out.geometry.add_shape(
            tech::Layer::kM1,
            Rect{to_nm(kEdgeMargin), to_nm(y_bar),
                 to_nm(kEdgeMargin + rp.fingers.size() * poly_pitch),
                 to_nm(y_bar + t.metals[0].min_width)},
            net_name(net));
      }
      ++strap_track;
    }
  }

  add_outline(t, netlist, plan, out.geometry);

  // Finalize per-device physicals (accumulators already cover all rows).
  // The systematic process gradient is referenced to the cell centroid: the
  // absolute die position is unknowable at primitive level, so only the
  // *relative* centroid displacement between devices is meaningful (it is
  // what placement patterns cancel or fail to cancel).
  double cx = 0.0, cy = 0.0;
  {
    long total_fingers = 0;
    for (std::size_t d = 0; d < acc.size(); ++d) {
      cx += acc[d].sum_x;
      cy += acc[d].sum_y;
      total_fingers += plan.fingers[d];
    }
    cx /= static_cast<double>(total_fingers);
    cy /= static_cast<double>(total_fingers);
  }
  const double trunk_len = (config.m - 1) * (row_height + kRowGap);
  for (std::size_t d = 0; d < netlist.devices.size(); ++d) {
    const LogicalDevice& ld = netlist.devices[d];
    const DeviceAccum& a = acc[d];
    const int fingers = plan.fingers[d];
    DevicePhysical phys;
    phys.w = device_width(t, config, fingers);
    phys.l = gate_l;
    phys.as = a.as;
    phys.ad = a.ad;
    phys.ps = a.ps;
    phys.pd = a.pd;
    // LDE shifts are Vth-magnitude increases for both flavors; under the
    // simulator's sign mapping that is a positive delta in each case.
    const double dx = a.sum_x / fingers - cx;
    const double dy = a.sum_y / fingers - cy;
    phys.delta_vth = a.sum_dvth / fingers + t.lde.grad_vth * (dx + dy);
    phys.mobility_mult = a.sum_mob / fingers;
    out.devices[ld.name] = phys;
  }

  // Per-net internal mesh straps.
  for (std::size_t n = 0; n < net_acc.size(); ++n) {
    const NetAccum& na = net_acc[n];
    if (na.contacts == 0) continue;
    InternalNet net;
    net.layer = tech::Layer::kM1;
    net.span_length =
        na.max_x > na.min_x ? (na.max_x - na.min_x) : poly_pitch;
    net.bar_length = row_fin_height + 0.5 * strap_band;
    net.trunk_length = trunk_len;
    net.rows = config.m;
    net.n_contacts = std::max(1, na.contacts);
    net.contact_res = na.contact_res;
    // Source/drain buses are drawn two tracks wide (current carrying);
    // gate-only straps are a single track.
    net.base_tracks = na.carries_sd ? 2 : 1;
    out.nets[*plan.nets[n]] = net;
  }
  return out;
}

}  // namespace olp::pcell
