// Tests for the sequence-pair annealing placer.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <numeric>
#include <string>

#include "place/placer.hpp"
#include "util/rng.hpp"

namespace olp::place {
namespace {

bool blocks_overlap(const std::vector<Block>& blocks,
                    const std::vector<PlacedBlock>& placed) {
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    for (std::size_t j = i + 1; j < blocks.size(); ++j) {
      const bool sep =
          placed[i].x + blocks[i].width <= placed[j].x + 1e-12 ||
          placed[j].x + blocks[j].width <= placed[i].x + 1e-12 ||
          placed[i].y + blocks[i].height <= placed[j].y + 1e-12 ||
          placed[j].y + blocks[j].height <= placed[i].y + 1e-12;
      if (!sep) return true;
    }
  }
  return false;
}

TEST(SequencePair, IdenticalSequencesPackHorizontally) {
  const std::vector<Block> blocks = {{"a", 2, 1}, {"b", 3, 1}, {"c", 1, 1}};
  const std::vector<PlacedBlock> placed =
      pack_sequence_pair(blocks, {0, 1, 2}, {0, 1, 2});
  EXPECT_DOUBLE_EQ(placed[0].x, 0.0);
  EXPECT_DOUBLE_EQ(placed[1].x, 2.0);
  EXPECT_DOUBLE_EQ(placed[2].x, 5.0);
  for (const PlacedBlock& p : placed) EXPECT_DOUBLE_EQ(p.y, 0.0);
}

TEST(SequencePair, ReversedNegativeSequencePacksVertically) {
  const std::vector<Block> blocks = {{"a", 1, 2}, {"b", 1, 3}, {"c", 1, 1}};
  const std::vector<PlacedBlock> placed =
      pack_sequence_pair(blocks, {0, 1, 2}, {2, 1, 0});
  EXPECT_DOUBLE_EQ(placed[0].y, 4.0);
  EXPECT_DOUBLE_EQ(placed[1].y, 1.0);
  EXPECT_DOUBLE_EQ(placed[2].y, 0.0);
  for (const PlacedBlock& p : placed) EXPECT_DOUBLE_EQ(p.x, 0.0);
}

TEST(SequencePair, SizeMismatchThrows) {
  const std::vector<Block> blocks = {{"a", 1, 1}};
  EXPECT_THROW(pack_sequence_pair(blocks, {0, 1}, {0}),
               InvalidArgumentError);
}

// Property: any permutation pair yields an overlap-free packing.
class SequencePairRandom : public ::testing::TestWithParam<int> {};

TEST_P(SequencePairRandom, NoOverlaps) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const int n = 3 + GetParam() % 6;
  std::vector<Block> blocks;
  for (int i = 0; i < n; ++i) {
    blocks.push_back(Block{"b" + std::to_string(i), rng.uniform(0.5, 4.0),
                           rng.uniform(0.5, 4.0)});
  }
  std::vector<int> pos(static_cast<std::size_t>(n)),
      neg(static_cast<std::size_t>(n));
  std::iota(pos.begin(), pos.end(), 0);
  std::iota(neg.begin(), neg.end(), 0);
  std::shuffle(pos.begin(), pos.end(), rng.engine());
  std::shuffle(neg.begin(), neg.end(), rng.engine());
  const std::vector<PlacedBlock> placed =
      pack_sequence_pair(blocks, pos, neg);
  EXPECT_FALSE(blocks_overlap(blocks, placed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SequencePairRandom,
                         ::testing::Range(1, 21));

TEST(Placer, SingleBlock) {
  const AnnealingPlacer placer;
  const PlacementResult r = placer.place({{"a", 2e-6, 1e-6}}, {}, {});
  EXPECT_TRUE(r.legal);
  EXPECT_DOUBLE_EQ(r.width, 2e-6);
  EXPECT_DOUBLE_EQ(r.height, 1e-6);
}

TEST(Placer, ResultIsLegal) {
  PlacerOptions opt;
  opt.iterations = 3000;
  const AnnealingPlacer placer(opt);
  const std::vector<Block> blocks = {
      {"a", 2e-6, 1e-6}, {"b", 1e-6, 2e-6}, {"c", 3e-6, 1e-6},
      {"d", 1e-6, 1e-6}};
  const PlacementResult r = placer.place(blocks, {}, {});
  EXPECT_TRUE(r.legal);
  EXPECT_GT(r.width, 0.0);
  EXPECT_GT(r.height, 0.0);
}

TEST(Placer, PacksWithReasonableUtilization) {
  PlacerOptions opt;
  opt.iterations = 8000;
  const AnnealingPlacer placer(opt);
  std::vector<Block> blocks;
  double total_area = 0.0;
  Rng rng(9);
  for (int i = 0; i < 6; ++i) {
    const double w = rng.uniform(1e-6, 3e-6);
    const double h = rng.uniform(1e-6, 3e-6);
    blocks.push_back(Block{"b" + std::to_string(i), w, h});
    total_area += w * h;
  }
  const PlacementResult r = placer.place(blocks, {}, {});
  ASSERT_TRUE(r.legal);
  EXPECT_GT(total_area / (r.width * r.height), 0.5);
}

TEST(Placer, WirelengthPullsConnectedBlocksTogether) {
  // Chain a-b connected, c disconnected: a and b should end up closer
  // together than the worst case.
  PlacerOptions opt;
  opt.iterations = 6000;
  opt.hpwl_weight = 4.0;
  const AnnealingPlacer placer(opt);
  const std::vector<Block> blocks = {
      {"a", 1e-6, 1e-6}, {"b", 1e-6, 1e-6}, {"c", 1e-6, 1e-6},
      {"d", 1e-6, 1e-6}};
  PlacementNet net;
  net.name = "n";
  net.pins = {{0, 0.5e-6, 0.5e-6}, {1, 0.5e-6, 0.5e-6}};
  const PlacementResult r = placer.place(blocks, {net}, {});
  ASSERT_TRUE(r.legal);
  const double dx = std::fabs(r.blocks[0].x - r.blocks[1].x);
  const double dy = std::fabs(r.blocks[0].y - r.blocks[1].y);
  EXPECT_LE(dx + dy, 2.1e-6);  // adjacent, not flung apart
}

TEST(Placer, SymmetryPairAlignedInY) {
  PlacerOptions opt;
  opt.iterations = 6000;
  const AnnealingPlacer placer(opt);
  const std::vector<Block> blocks = {
      {"a", 1e-6, 1e-6}, {"b", 1e-6, 1e-6}, {"c", 2e-6, 2e-6}};
  const PlacementResult r = placer.place(blocks, {}, {SymmetryPair{0, 1}});
  ASSERT_TRUE(r.legal);
  EXPECT_NEAR(r.blocks[0].y, r.blocks[1].y, 1e-12);
  // Pair members are mirrored relative to each other.
  EXPECT_NE(r.blocks[0].mirrored, r.blocks[1].mirrored);
}

TEST(Placer, ValidatesInputs) {
  const AnnealingPlacer placer;
  EXPECT_THROW(placer.place({}, {}, {}), InvalidArgumentError);
  PlacementNet bad;
  bad.name = "n";
  bad.pins = {{5, 0, 0}};
  EXPECT_THROW(placer.place({{"a", 1e-6, 1e-6}}, {bad}, {}),
               InvalidArgumentError);
  EXPECT_THROW(placer.place({{"a", 1e-6, 1e-6}}, {}, {SymmetryPair{0, 0}}),
               InvalidArgumentError);
}

TEST(Placer, DeterministicForFixedSeed) {
  PlacerOptions opt;
  opt.iterations = 2000;
  opt.seed = 123;
  const AnnealingPlacer placer(opt);
  const std::vector<Block> blocks = {
      {"a", 2e-6, 1e-6}, {"b", 1e-6, 2e-6}, {"c", 1.5e-6, 1.5e-6}};
  const PlacementResult r1 = placer.place(blocks, {}, {});
  const PlacementResult r2 = placer.place(blocks, {}, {});
  EXPECT_DOUBLE_EQ(r1.width, r2.width);
  EXPECT_DOUBLE_EQ(r1.height, r2.height);
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1.blocks[i].x, r2.blocks[i].x);
    EXPECT_DOUBLE_EQ(r1.blocks[i].y, r2.blocks[i].y);
  }
}

// Property: the placer stays legal across seeds and block counts.
class PlacerRandom : public ::testing::TestWithParam<int> {};

TEST_P(PlacerRandom, AlwaysLegal) {
  Rng rng(static_cast<std::uint64_t>(1000 + GetParam()));
  const int n = 2 + GetParam() % 7;
  std::vector<Block> blocks;
  for (int i = 0; i < n; ++i) {
    blocks.push_back(Block{"b" + std::to_string(i), rng.uniform(0.5e-6, 4e-6),
                           rng.uniform(0.5e-6, 4e-6)});
  }
  PlacerOptions opt;
  opt.iterations = 1500;
  opt.seed = static_cast<std::uint64_t>(GetParam());
  const AnnealingPlacer placer(opt);
  const PlacementResult r = placer.place(blocks, {}, {});
  EXPECT_TRUE(r.legal);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlacerRandom, ::testing::Range(1, 13));

// Bit-exactness tripwire for the annealer: hexfloat goldens of every
// PlacementResult field. Any change to the RNG draws, the Budget::check()
// cadence or the arithmetic order of a move's evaluation moves at least one
// bit; re-record the goldens only for a change meant to move placements.
struct GoldenInstance {
  std::vector<Block> blocks;
  std::vector<PlacementNet> nets;
  std::vector<SymmetryPair> symmetry;
  PlacerOptions options;
};

/// Instance k: 5-10 blocks, one symmetry pair of equal blocks, one 2-4-pin
/// net per block, 1,500 iterations.
GoldenInstance golden_instance(int k) {
  Rng rng(static_cast<std::uint64_t>(700 + k));
  const int n = 5 + k % 6;
  GoldenInstance in;
  for (int i = 0; i < n; ++i) {
    const double w = rng.uniform(0.5e-6, 4e-6);
    const double h = rng.uniform(0.5e-6, 4e-6);
    in.blocks.push_back(Block{"b" + std::to_string(i), w, h});
  }
  in.blocks[1].width = in.blocks[0].width;
  in.blocks[1].height = in.blocks[0].height;
  in.symmetry = {SymmetryPair{0, 1}};
  for (int j = 0; j < n; ++j) {
    PlacementNet net;
    net.name = "n" + std::to_string(j);
    const int pins = rng.uniform_int(2, 4);
    for (int p = 0; p < pins; ++p) {
      PlacementNet::PinRef pin;
      pin.block = rng.uniform_int(0, n - 1);
      const Block& b = in.blocks[static_cast<std::size_t>(pin.block)];
      pin.dx = rng.uniform(0.0, b.width);
      pin.dy = rng.uniform(0.0, b.height);
      net.pins.push_back(pin);
    }
    in.nets.push_back(net);
  }
  in.options.iterations = 1500;
  in.options.seed = static_cast<std::uint64_t>(k + 1);
  return in;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(Placer, MatchesParentBitForBit) {
  struct Golden {
    double width, height, hpwl, cost;
    bool legal;
    std::vector<PlacedBlock> blocks;
  };
  const std::vector<Golden> goldens = {
    {0x1.5c1639cd85e09p-18, 0x1.283f796ddb09dp-18, 0x1.594579a172f2dp-16, 0x1.3d414cbdb84d3p-34, true,
     {{0x0p+0, 0x1.ddb71be49601dp-19, true},
      {0x1.858062a427512p-20, 0x1.ddb71be49601dp-19, false},
      {0x0p+0, 0x0p+0, true},
      {0x0p+0, 0x1.677a71d2a6779p-19, true},
      {0x1.67bb8c558388cp-19, 0x0p+0, false}}},
    {0x1.3c639488709c8p-17, 0x1.5d26e1d4cb67ep-18, 0x1.3d03f754e9a99p-15, 0x1.8ee9997a398c1p-33, true,
     {{0x0p+0, 0x1.0a18fedf29462p-18, false},
      {0x1.4a5a8d6dea10bp-19, 0x1.0a18fedf29462p-18, true},
      {0x0p+0, 0x0p+0, true},
      {0x1.7dfb91f12578fp-19, 0x1.4bea1f78b1299p-20, true},
      {0x1.7dfb91f12578fp-19, 0x0p+0, false},
      {0x1.b8358809b658fp-18, 0x0p+0, true}}},
    {0x1.f2b857e9195e2p-18, 0x1.e99ab2296f174p-19, 0x1.a10fd7282f0a1p-16, 0x1.93d8d9b149dd5p-34, true,
     {{0x0p+0, 0x0p+0, false},
      {0x1.f7dd5a51acd3cp-19, 0x0p+0, true},
      {0x1.f7dd5a51acd3cp-19, 0x1.c8fa7ebc7a80cp-21, true},
      {0x0p+0, 0x1.c8fa7ebc7a80cp-21, false},
      {0x1.ac2f0029cbec2p-18, 0x1.c8fa7ebc7a80cp-21, false},
      {0x1.261c3b826b8abp-18, 0x1.c8fa7ebc7a80cp-21, false},
      {0x1.f7dd5a51acd3cp-19, 0x1.468c914d4a28ep-19, false}}},
    {0x1.72b18bba623b8p-18, 0x1.ce0837adfd0cp-18, 0x1.3ddc98ca0e6b3p-15, 0x1.548eaacb263eep-33, true,
     {{0x1.619ada07f58a6p-19, 0x1.cf188cc93a7c9p-19, false},
      {0x1.03c3aa394b37cp-18, 0x1.cf188cc93a7c9p-19, true},
      {0x1.e90f00357ede4p-20, 0x0p+0, false},
      {0x1.619ada07f58a6p-19, 0x1.d402df15bb55ep-20, false},
      {0x1.a5874e5edab43p-19, 0x1.d402df15bb55ep-20, false},
      {0x0p+0, 0x1.7d6aa096a8406p-18, false},
      {0x0p+0, 0x1.d402df15bb55ep-20, false},
      {0x0p+0, 0x0p+0, true}}},
    {0x1.d545b54a93fdep-18, 0x1.0ca89c15280cap-17, 0x1.3fb9d26fe345ep-15, 0x1.b4b0a5f478335p-33, true,
     {{0x1.ca64b33e8d513p-19, 0x0p+0, true},
      {0x1.529fde10c1be1p-18, 0x0p+0, false},
      {0x1.0e3eeb01a8d53p-18, 0x0p+0, true},
      {0x0p+0, 0x1.75f5b1b8f998bp-18, false},
      {0x1.e95305a9381bap-20, 0x1.8b9ee8a35a16bp-18, false},
      {0x0p+0, 0x0p+0, true},
      {0x1.ca64b33e8d513p-19, 0x1.a4eeebc8f6ef5p-19, false},
      {0x0p+0, 0x1.f1bf7f937c2ecp-19, false},
      {0x1.529fde10c1be1p-18, 0x1.4ef46ac37f8adp-19, false}}},
    {0x1.88f63ec0e37e5p-17, 0x1.12bad7c66bd1dp-17, 0x1.192a2bbd54226p-14, 0x1.c980d69714bf3p-32, true,
     {{0x1.8634070edae0cp-18, 0x1.f8460084b88d2p-19, true},
      {0x1.c8b9b45baafafp-19, 0x1.f8460084b88d2p-19, false},
      {0x0p+0, 0x0p+0, false},
      {0x0p+0, 0x1.439019414b6a4p-18, false},
      {0x1.c8b9b45baafafp-19, 0x0p+0, false},
      {0x1.0505a917d833ap-18, 0x1.439019414b6a4p-18, true},
      {0x1.98da5caa210dcp-18, 0x0p+0, true},
      {0x1.98da5caa210dcp-18, 0x1.68145dea6fa02p-20, false},
      {0x1.4163737f3c5c3p-17, 0x1.f8460084b88d2p-19, true},
      {0x1.01c7d9a2d9965p-17, 0x1.439019414b6a4p-18, true}}},
    {0x1.d83af80ff37b1p-18, 0x1.9c3e9d9e4ae68p-18, 0x1.6275a4339352cp-16, 0x1.d42aa42e90f18p-34, true,
     {{0x1.bc6d825767b57p-19, 0x0p+0, false},
      {0x0p+0, 0x0p+0, true},
      {0x1.08a24e5fa67a6p-18, 0x1.ccad885131b05p-19, false},
      {0x0p+0, 0x1.ccad885131b05p-19, true},
      {0x1.08a24e5fa67a6p-18, 0x1.518ab5db846b2p-18, true}}},
    {0x1.0a57a44237ceep-17, 0x1.0fe25ecc1f8e8p-17, 0x1.055c5b3b89d0ep-15, 0x1.aeb77800509a8p-33, true,
     {{0x0p+0, 0x0p+0, false},
      {0x1.0a57a44237ceep-18, 0x0p+0, true},
      {0x0p+0, 0x1.c3cfd4bc23dd1p-19, false},
      {0x1.0a57a44237ceep-18, 0x1.c3cfd4bc23dd1p-19, false},
      {0x1.510d713ffb866p-18, 0x1.c3cfd4bc23dd1p-19, true},
      {0x1.3cb2dc4a4cb2ep-19, 0x1.c4bc4622df788p-18, true}}},
    {0x1.fd25f441fe0c8p-18, 0x1.4b6e376a4b776p-17, 0x1.98281d2b1f356p-15, 0x1.39f455bf46789p-32, true,
     {{0x1.6422f6056a0c2p-18, 0x1.a8ceca70ee533p-19, true},
      {0x1.963fef91ac177p-19, 0x1.a8ceca70ee533p-19, false},
      {0x0p+0, 0x1.863928ec96dbp-20, false},
      {0x0p+0, 0x1.5879816cff118p-18, false},
      {0x1.963fef91ac177p-19, 0x1.94e715047f1e6p-18, false},
      {0x1.aabf5342a6469p-19, 0x0p+0, true},
      {0x0p+0, 0x0p+0, true}}},
    {0x1.2dbb374abdeb5p-18, 0x1.831a25e5ff598p-18, 0x1.19e1d4a4366d1p-15, 0x1.ea60a3fa58c8cp-34, true,
     {{0x1.83b03676d5679p-20, 0x0p+0, true},
      {0x1.0f9219e69153ap-19, 0x0p+0, false},
      {0x1.90a7e74843a07p-19, 0x1.2a9c09fae8d13p-18, true},
      {0x0p+0, 0x0p+0, true},
      {0x0p+0, 0x1.ef804d25d17afp-19, false},
      {0x0p+0, 0x1.2a9c09fae8d13p-18, true},
      {0x1.5d4c1891b7f37p-19, 0x0p+0, true},
      {0x1.dcf6a27caed86p-19, 0x0p+0, true}}},
    {0x1.53fec8eb5696cp-17, 0x1.e674fdd35da1ep-18, 0x1.8cf5a0842386dp-15, 0x1.4ff3ec723ffa7p-32, true,
     {{0x1.1a0d02d08e803p-18, 0x1.375324b78286ap-18, true},
      {0x0p+0, 0x1.fbda8e1fcda6ap-19, true},
      {0x1.02a5008792111p-17, 0x1.0b5bed690abbbp-18, true},
      {0x0p+0, 0x0p+0, true},
      {0x1.59e41208e766fp-18, 0x0p+0, false},
      {0x1.1a0d02d08e803p-18, 0x1.7e11b70328a2cp-19, true},
      {0x1.02a5008792111p-17, 0x0p+0, false},
      {0x1.d679fc7d2b43fp-19, 0x1.7e11b70328a2cp-19, false},
      {0x1.a5432cd3365a7p-19, 0x0p+0, true}}},
    {0x1.2c1c30bc6cf7ep-17, 0x1.c307e4d0f725bp-18, 0x1.345f0d5831dfap-14, 0x1.7ccafeade5d5cp-32, true,
     {{0x1.07f00e2345028p-18, 0x1.3d6720e2ee6e5p-19, true},
      {0x0p+0, 0x1.382edc7fa9757p-19, false},
      {0x1.71ed80413a8ap-18, 0x0p+0, false},
      {0x0p+0, 0x0p+0, true},
      {0x1.07f00e2345028p-18, 0x0p+0, true},
      {0x1.88da0a58e9c99p-21, 0x0p+0, false},
      {0x1.88da0a58e9c99p-21, 0x1.22deda0da643bp-21, false},
      {0x1.07f00e2345028p-17, 0x1.3d6720e2ee6e5p-19, true},
      {0x0p+0, 0x1.52bd11fa655a4p-18, false},
      {0x1.d39c6adeb668p-19, 0x1.5559342c07d6ap-18, false}}},
  };
  for (std::size_t k = 0; k < goldens.size(); ++k) {
    SCOPED_TRACE("instance " + std::to_string(k));
    const GoldenInstance in = golden_instance(static_cast<int>(k));
    const PlacementResult r =
        AnnealingPlacer(in.options).place(in.blocks, in.nets, in.symmetry);
    const Golden& g = goldens[k];
    EXPECT_EQ(bits(r.width), bits(g.width));
    EXPECT_EQ(bits(r.height), bits(g.height));
    EXPECT_EQ(bits(r.hpwl), bits(g.hpwl));
    EXPECT_EQ(bits(r.cost), bits(g.cost));
    EXPECT_EQ(r.legal, g.legal);
    ASSERT_EQ(r.blocks.size(), g.blocks.size());
    for (std::size_t b = 0; b < g.blocks.size(); ++b) {
      EXPECT_EQ(bits(r.blocks[b].x), bits(g.blocks[b].x)) << "block " << b;
      EXPECT_EQ(bits(r.blocks[b].y), bits(g.blocks[b].y)) << "block " << b;
      EXPECT_EQ(r.blocks[b].mirrored, g.blocks[b].mirrored) << "block " << b;
    }
  }
}

}  // namespace
}  // namespace olp::place
