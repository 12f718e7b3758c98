// Tests for the primitive cell generator: placement patterns, configuration
// enumeration, diffusion sharing, junction geometry, LDE evaluation, and the
// internal mesh strap model.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <numeric>

#include "goldens.hpp"
#include "library_netlists.hpp"
#include "pcell/capacitor.hpp"
#include "pcell/generator.hpp"
#include "pcell/primitive.hpp"

namespace olp::pcell {
namespace {

const tech::Technology& t() {
  static const tech::Technology tech = tech::make_default_finfet_tech();
  return tech;
}

// --- row sequences ------------------------------------------------------------

double centroid(const std::vector<int>& seq, int device) {
  double sum = 0.0;
  int count = 0;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    if (seq[i] == device) {
      sum += static_cast<double>(i);
      ++count;
    }
  }
  return sum / count;
}

TEST(RowSequence, AbbaIsBlockPattern) {
  const std::vector<int> seq =
      build_row_sequence({4, 4}, PlacementPattern::kABBA);
  EXPECT_EQ(seq, (std::vector<int>{0, 1, 1, 0, 0, 1, 1, 0}));
}

TEST(RowSequence, AbbaCentroidsMatch) {
  const std::vector<int> seq =
      build_row_sequence({20, 20}, PlacementPattern::kABBA);
  EXPECT_NEAR(centroid(seq, 0), centroid(seq, 1), 1e-9);
}

TEST(RowSequence, AbabAlternates) {
  const std::vector<int> seq =
      build_row_sequence({3, 3}, PlacementPattern::kABAB);
  EXPECT_EQ(seq, (std::vector<int>{0, 1, 0, 1, 0, 1}));
}

TEST(RowSequence, AabbSplitsHalves) {
  const std::vector<int> seq =
      build_row_sequence({3, 3}, PlacementPattern::kAABB);
  EXPECT_EQ(seq, (std::vector<int>{0, 0, 0, 1, 1, 1}));
  // Centroids are maximally separated.
  EXPECT_NEAR(centroid(seq, 1) - centroid(seq, 0), 3.0, 1e-9);
}

TEST(RowSequence, UnequalCountsPreserved) {
  // 1:3 mirror row.
  const std::vector<int> seq =
      build_row_sequence({2, 6}, PlacementPattern::kABAB);
  EXPECT_EQ(std::count(seq.begin(), seq.end(), 0), 2);
  EXPECT_EQ(std::count(seq.begin(), seq.end(), 1), 6);
}

TEST(RowSequence, InvalidInputsThrow) {
  EXPECT_THROW(build_row_sequence({}, PlacementPattern::kABAB),
               InvalidArgumentError);
  EXPECT_THROW(build_row_sequence({0, 0}, PlacementPattern::kABAB),
               InvalidArgumentError);
}

// --- configuration enumeration -------------------------------------------------

TEST(EnumerateConfigs, ProductInvariantHolds) {
  const std::vector<LayoutConfig> configs =
      PrimitiveGenerator::enumerate_configs(960);
  ASSERT_FALSE(configs.empty());
  for (const LayoutConfig& c : configs) {
    EXPECT_EQ(c.nfin * c.nf * c.m, 960) << c.to_string();
  }
}

TEST(EnumerateConfigs, PatternsRestrictable) {
  const std::vector<LayoutConfig> abba = PrimitiveGenerator::enumerate_configs(
      96, {PlacementPattern::kABBA});
  for (const LayoutConfig& c : abba) {
    EXPECT_EQ(c.pattern, PlacementPattern::kABBA);
  }
  const std::vector<LayoutConfig> all =
      PrimitiveGenerator::enumerate_configs(96);
  EXPECT_EQ(all.size(), 3 * abba.size());
}

TEST(EnumerateConfigs, TooFewFinsThrows) {
  EXPECT_THROW(PrimitiveGenerator::enumerate_configs(2),
               InvalidArgumentError);
}

// --- generation ---------------------------------------------------------------

LayoutConfig config(int nfin, int nf, int m,
                    PlacementPattern p = PlacementPattern::kABBA,
                    bool dummies = true) {
  LayoutConfig c;
  c.nfin = nfin;
  c.nf = nf;
  c.m = m;
  c.pattern = p;
  c.dummies = dummies;
  return c;
}

TEST(Generate, DeviceWidthMatchesFinBudget) {
  const PrimitiveGenerator gen(t());
  const PrimitiveLayout lay =
      gen.generate(make_diff_pair(), config(8, 20, 6));
  for (const auto& [name, phys] : lay.devices) {
    EXPECT_NEAR(phys.w, 960 * t().fin_width_eff, 1e-12) << name;
    EXPECT_NEAR(phys.l, t().gate_length, 1e-15) << name;
  }
}

TEST(Generate, JunctionGeometryPositive) {
  const PrimitiveGenerator gen(t());
  const PrimitiveLayout lay =
      gen.generate(make_diff_pair(), config(8, 20, 6));
  for (const auto& [name, phys] : lay.devices) {
    EXPECT_GT(phys.as, 0.0) << name;
    EXPECT_GT(phys.ad, 0.0) << name;
    EXPECT_GT(phys.ps, 0.0) << name;
    EXPECT_GT(phys.pd, 0.0) << name;
  }
}

TEST(Generate, AbbaSharesMoreDiffusionThanAbab) {
  // ABBA rows share every boundary; ABAB breaks at drain boundaries, so its
  // junction area and cell width are larger.
  const PrimitiveGenerator gen(t());
  const PrimitiveLayout abba = gen.generate(
      make_diff_pair(), config(8, 20, 6, PlacementPattern::kABBA));
  const PrimitiveLayout abab = gen.generate(
      make_diff_pair(), config(8, 20, 6, PlacementPattern::kABAB));
  EXPECT_LT(abba.width(), abab.width());
  EXPECT_LT(abba.devices.at("MA").ad, abab.devices.at("MA").ad);
}

TEST(Generate, DummiesReduceLdeShift) {
  const PrimitiveGenerator gen(t());
  const PrimitiveLayout with = gen.generate(
      make_diff_pair(), config(8, 20, 2, PlacementPattern::kABBA, true));
  const PrimitiveLayout without = gen.generate(
      make_diff_pair(), config(8, 20, 2, PlacementPattern::kABBA, false));
  EXPECT_LT(with.devices.at("MA").delta_vth,
            without.devices.at("MA").delta_vth);
}

TEST(Generate, AabbHasLargeSystematicMismatch) {
  const PrimitiveGenerator gen(t());
  const PrimitiveLayout abba = gen.generate(
      make_diff_pair(), config(12, 20, 4, PlacementPattern::kABBA));
  const PrimitiveLayout aabb = gen.generate(
      make_diff_pair(), config(12, 20, 4, PlacementPattern::kAABB));
  const double mismatch_abba = std::fabs(abba.devices.at("MA").delta_vth -
                                         abba.devices.at("MB").delta_vth);
  const double mismatch_aabb = std::fabs(aabb.devices.at("MA").delta_vth -
                                         aabb.devices.at("MB").delta_vth);
  EXPECT_LT(mismatch_abba, 50e-6);   // common centroid cancels the gradient
  EXPECT_GT(mismatch_aabb, 200e-6);  // split halves do not
}

TEST(Generate, AspectRatioTracksConfiguration) {
  const PrimitiveGenerator gen(t());
  const PrimitiveLayout tall =
      gen.generate(make_diff_pair(), config(8, 5, 24));
  const PrimitiveLayout wide =
      gen.generate(make_diff_pair(), config(8, 60, 2));
  EXPECT_LT(tall.aspect_ratio(), wide.aspect_ratio());
}

TEST(Generate, MirrorRatioScalesOutDevice) {
  const PrimitiveGenerator gen(t());
  const PrimitiveLayout lay =
      gen.generate(make_current_mirror(4), config(8, 4, 2));
  EXPECT_NEAR(lay.devices.at("MOUT").w / lay.devices.at("MREF").w, 4.0,
              1e-9);
}

TEST(Generate, StackedPrimitiveHasSectionsPerDevice) {
  const PrimitiveGenerator gen(t());
  const PrimitiveLayout lay =
      gen.generate(make_current_starved_inverter(), config(8, 4, 1));
  EXPECT_EQ(lay.devices.size(), 4u);
  // Four stacked sections: the cell is taller than a single row.
  EXPECT_GT(lay.height(), 4 * t().fin_pitch * 8);
}

TEST(Generate, PortsHavePins) {
  const PrimitiveGenerator gen(t());
  const PrimitiveNetlist dp = make_diff_pair();
  const PrimitiveLayout lay = gen.generate(dp, config(8, 20, 6));
  for (const std::string& port : dp.ports) {
    EXPECT_TRUE(lay.geometry.has_pin(port)) << port;
  }
}

TEST(Generate, EveryNetHasStrap) {
  const PrimitiveGenerator gen(t());
  const PrimitiveLayout lay =
      gen.generate(make_diff_pair(), config(8, 20, 6));
  for (const char* net : {"da", "db", "ga", "gb", "s"}) {
    ASSERT_TRUE(lay.nets.count(net)) << net;
    EXPECT_GT(lay.nets.at(net).resistance(t()), 0.0) << net;
    EXPECT_GT(lay.nets.at(net).capacitance(t()), 0.0) << net;
  }
}

TEST(Generate, InvalidConfigThrows) {
  const PrimitiveGenerator gen(t());
  EXPECT_THROW(gen.generate(make_diff_pair(), config(0, 4, 1)),
               InvalidArgumentError);
}

// --- internal mesh strap model -------------------------------------------------

TEST(InternalNet, TuningTradesResistanceForCapacitance) {
  const PrimitiveGenerator gen(t());
  const PrimitiveLayout lay =
      gen.generate(make_diff_pair(), config(8, 20, 6));
  const InternalNet& s = lay.nets.at("s");
  double prev_r = s.resistance(t(), 1);
  double prev_c = s.capacitance(t(), 1);
  for (int w = 2; w <= 8; ++w) {
    const double r = s.resistance(t(), w);
    const double c = s.capacitance(t(), w);
    EXPECT_LT(r, prev_r) << "w=" << w;
    EXPECT_GT(c, prev_c) << "w=" << w;
    prev_r = r;
    prev_c = c;
  }
}

TEST(InternalNet, MoreRowsLowerResistance) {
  const PrimitiveGenerator gen(t());
  const PrimitiveLayout one_row =
      gen.generate(make_diff_pair(), config(8, 40, 1));
  const PrimitiveLayout four_rows =
      gen.generate(make_diff_pair(), config(8, 10, 4));
  EXPECT_LT(four_rows.nets.at("s").resistance(t()),
            one_row.nets.at("s").resistance(t()));
}

TEST(InternalNet, InvalidParallelThrows) {
  InternalNet net;
  net.span_length = 1e-6;
  EXPECT_THROW(net.resistance(t(), 0), InvalidArgumentError);
}

// --- primitive factories -------------------------------------------------------

TEST(Factories, DiffPairStructure) {
  const PrimitiveNetlist p = make_diff_pair();
  EXPECT_EQ(p.type, PrimitiveType::kDiffPair);
  EXPECT_EQ(p.devices.size(), 2u);
  EXPECT_EQ(p.devices[0].match_group, p.devices[1].match_group);
  EXPECT_EQ(p.symmetric_ports.size(), 2u);
}

TEST(Factories, StarvedInverterStack) {
  const PrimitiveNetlist p = make_current_starved_inverter(-0.2);
  ASSERT_EQ(p.devices.size(), 4u);
  EXPECT_DOUBLE_EQ(p.devices[0].vth_offset, -0.2);  // MPS
  EXPECT_DOUBLE_EQ(p.devices[1].vth_offset, 0.0);   // MPI
  EXPECT_DOUBLE_EQ(p.devices[3].vth_offset, -0.2);  // MNS
}

TEST(Factories, MirrorRatioValidated) {
  EXPECT_THROW(make_current_mirror(0), InvalidArgumentError);
}

// --- MOM capacitor --------------------------------------------------------------

TEST(MomCap, CapacitanceScalesWithFingersAndLength) {
  const MomCapConfig a{8, 2e-6, tech::Layer::kM3};
  const MomCapConfig b{16, 2e-6, tech::Layer::kM3};
  const MomCapConfig c{8, 4e-6, tech::Layer::kM3};
  const double ca = generate_mom_cap(t(), a).capacitance;
  EXPECT_GT(generate_mom_cap(t(), b).capacitance, 1.8 * ca);
  EXPECT_NEAR(generate_mom_cap(t(), c).capacitance, 2 * ca, 0.01 * ca);
}

TEST(MomCap, SeriesResistancePositive) {
  const MomCapLayout lay = generate_mom_cap(t(), {8, 2e-6, tech::Layer::kM3});
  EXPECT_GT(lay.series_res, 0.0);
  EXPECT_TRUE(lay.geometry.has_pin("a"));
  EXPECT_TRUE(lay.geometry.has_pin("b"));
}

TEST(MomCap, EnumerationHitsTarget) {
  const double target = 20e-15;
  const std::vector<MomCapConfig> configs =
      enumerate_mom_configs(t(), target, 0.1);
  ASSERT_FALSE(configs.empty());
  for (const MomCapConfig& c : configs) {
    const double cap = generate_mom_cap(t(), c).capacitance;
    EXPECT_NEAR(cap, target, 0.1 * target);
  }
}

TEST(MomCap, Validation) {
  EXPECT_THROW(generate_mom_cap(t(), {1, 2e-6, tech::Layer::kM3}),
               InvalidArgumentError);
  EXPECT_THROW(enumerate_mom_configs(t(), -1e-15), InvalidArgumentError);
}

// Property: all enumerated configs of several sizes generate legal layouts.
class GenerateAll : public ::testing::TestWithParam<int> {};

TEST_P(GenerateAll, EveryConfigGeneratesConsistentLayout) {
  const int fins = GetParam();
  const PrimitiveGenerator gen(t());
  const PrimitiveNetlist dp = make_diff_pair();
  for (const LayoutConfig& cfg :
       PrimitiveGenerator::enumerate_configs(fins)) {
    const PrimitiveLayout lay = gen.generate(dp, cfg);
    EXPECT_NEAR(lay.devices.at("MA").w, fins * t().fin_width_eff, 1e-12)
        << cfg.to_string();
    EXPECT_GT(lay.width(), 0.0) << cfg.to_string();
    EXPECT_GT(lay.height(), 0.0) << cfg.to_string();
    EXPECT_EQ(lay.nets.count("s"), 1u) << cfg.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(FinBudgets, GenerateAll,
                         ::testing::Values(32, 96, 192, 512, 960));

/// Calls fn(config) for a spread of fin budgets, every enumerated
/// configuration of each, with dummies on and off.
template <typename Fn>
void for_each_library_config(Fn fn) {
  for (const int fins : {8, 16, 24, 32, 48, 64, 96, 120, 160, 192}) {
    for (LayoutConfig cfg : PrimitiveGenerator::enumerate_configs(fins)) {
      for (const bool dummies : {true, false}) {
        cfg.dummies = dummies;
        fn(cfg);
      }
    }
  }
}

// The footprint is generate()'s plan alone, so everything a cached candidate
// is scored on must equal the full layout's bit for bit: the bounding box
// (aspect ratio, area), the pins and every device's W and L.
TEST(Footprint, MatchesTheGeneratedLayoutForEveryLibraryConfig) {
  const PrimitiveGenerator gen(t());
  const auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };
  long layouts = 0;
  long mismatches = 0;
  for (const LibraryNetlist& lib : library_netlists()) {
    for_each_library_config([&](const LayoutConfig& cfg) {
      const PrimitiveLayout full = gen.generate(lib.netlist, cfg);
      const PrimitiveLayout fp = gen.footprint(lib.netlist, cfg);
      ++layouts;
      bool same = fp.footprint_only && !full.footprint_only &&
                  fp.geometry.bounding_box() == full.geometry.bounding_box() &&
                  fp.devices.size() == full.devices.size();
      for (const geom::Pin& pin : full.geometry.pins()) {
        same = same && fp.geometry.has_pin(pin.name) &&
               fp.geometry.pin(pin.name).rect == pin.rect;
      }
      for (const auto& [name, phys] : full.devices) {
        const auto it = fp.devices.find(name);
        same = same && it != fp.devices.end() &&
               same_bits(it->second.w, phys.w) &&
               same_bits(it->second.l, phys.l);
      }
      if (!same) {
        ++mismatches;
        ADD_FAILURE() << lib.key << " " << cfg.to_string();
      }
    });
  }
  EXPECT_GT(layouts, 10000);
  EXPECT_EQ(mismatches, 0);
}

/// Feeds every field of a generated layout to the hash.
void add_layout(Fnv1a& h, const PrimitiveLayout& layout) {
  const auto rect = [&h](const geom::Rect& r) {
    for (const geom::Coord c : {r.x_lo, r.y_lo, r.x_hi, r.y_hi}) {
      h.u64(static_cast<std::uint64_t>(c));
    }
  };
  h.str(layout.netlist.name);
  for (const LogicalDevice& d : layout.netlist.devices) {
    h.str(d.name);
    h.u64(static_cast<std::uint64_t>(d.mos_type));
    h.str(d.drain_net);
    h.str(d.gate_net);
    h.str(d.source_net);
    h.u64(static_cast<std::uint64_t>(d.unit_ratio));
    h.u64(static_cast<std::uint64_t>(d.match_group));
    h.f64(d.vth_offset);
  }
  h.str(layout.config.to_string());
  h.str(layout.geometry.name());
  h.u64(layout.geometry.shapes().size());
  for (const geom::Shape& shape : layout.geometry.shapes()) {
    h.u64(static_cast<std::uint64_t>(shape.layer));
    rect(shape.rect);
    h.str(shape.net);
  }
  h.u64(layout.geometry.pins().size());
  for (const geom::Pin& pin : layout.geometry.pins()) {
    h.str(pin.name);
    h.u64(static_cast<std::uint64_t>(pin.layer));
    rect(pin.rect);
  }
  h.u64(layout.devices.size());
  for (const auto& [name, d] : layout.devices) {
    h.str(name);
    for (const double v : {d.w, d.l, d.as, d.ad, d.ps, d.pd, d.delta_vth,
                           d.mobility_mult}) {
      h.f64(v);
    }
  }
  h.u64(layout.nets.size());
  for (const auto& [name, net] : layout.nets) {
    h.str(name);
    h.u64(static_cast<std::uint64_t>(net.layer));
    h.f64(net.span_length);
    h.f64(net.bar_length);
    h.f64(net.trunk_length);
    h.u64(static_cast<std::uint64_t>(net.rows));
    h.u64(static_cast<std::uint64_t>(net.n_contacts));
    h.f64(net.contact_res);
    h.u64(static_cast<std::uint64_t>(net.base_tracks));
  }
}

// generate()'s output bit for bit: one hash per library netlist over every
// shape, pin, device annotation (W, L, junction areas and perimeters, LDE
// shifts) and internal net of every layout the footprint test walks. A
// change to the plan or the geometry step that moves any output bit fails
// here.
TEST(Generate, EveryLibraryLayoutMatchesItsRecordedHash) {
  const PrimitiveGenerator gen(t());
  Goldens goldens("layout/");
  for (const LibraryNetlist& lib : library_netlists()) {
    Fnv1a hash;
    for_each_library_config([&](const LayoutConfig& cfg) {
      add_layout(hash, gen.generate(lib.netlist, cfg));
    });
    goldens.check(lib.key, {{"hash", hex64(hash.value())}});
  }
}

TEST(Footprint, MaterializeBuildsTheGeneratedLayout) {
  const PrimitiveGenerator gen(t());
  LayoutConfig cfg;
  cfg.nfin = 8;
  cfg.nf = 6;
  cfg.m = 3;
  cfg.pattern = PlacementPattern::kAABB;
  const PrimitiveLayout full = gen.generate(make_diff_pair(), cfg);
  PrimitiveLayout lay = gen.footprint(make_diff_pair(), cfg);
  EXPECT_TRUE(lay.nets.empty());
  EXPECT_LT(lay.geometry.shapes().size(), full.geometry.shapes().size());
  gen.materialize(lay);
  EXPECT_FALSE(lay.footprint_only);
  EXPECT_EQ(lay.geometry.name(), full.geometry.name());
  EXPECT_EQ(lay.geometry.shapes().size(), full.geometry.shapes().size());
  EXPECT_EQ(lay.nets.size(), full.nets.size());
  EXPECT_EQ(lay.devices.at("MA").delta_vth, full.devices.at("MA").delta_vth);
  // A full layout is left as it is.
  const PrimitiveLayout& again = gen.materialize(lay);
  EXPECT_EQ(&again, &lay);
}

// Property: with the shape fixed, cell area grows monotonically with the
// fin budget (bigger devices cannot get cheaper in area).
class AreaMonotone : public ::testing::TestWithParam<int> {};

TEST_P(AreaMonotone, AreaGrowsWithFins) {
  const PrimitiveGenerator gen(t());
  const int nfin = GetParam();
  double prev_area = 0.0;
  for (int nf : {4, 8, 16, 32}) {
    LayoutConfig cfg;
    cfg.nfin = nfin;
    cfg.nf = nf;
    cfg.m = 2;
    const PrimitiveLayout lay = gen.generate(make_diff_pair(), cfg);
    EXPECT_GT(lay.area(), prev_area) << cfg.to_string();
    prev_area = lay.area();
  }
}

INSTANTIATE_TEST_SUITE_P(NfinChoices, AreaMonotone,
                         ::testing::Values(4, 8, 16));

}  // namespace
}  // namespace olp::pcell
