// Tests for the sequence-pair annealing placer.

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <string>

#include "goldens.hpp"
#include "place/placer.hpp"
#include "util/budget.hpp"
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

// Bit-exactness tripwire for the annealer: goldens over every
// PlacementResult field. Any change to the RNG draws, the Budget::check()
// cadence or the arithmetic order of a move's evaluation moves at least one
// bit; re-record the goldens only for a change meant to move placements.
struct GoldenInstance {
  std::vector<Block> blocks;
  std::vector<PlacementNet> nets;
  std::vector<SymmetryPair> symmetry;
  PlacerOptions options;
};

/// n random blocks and one 2-4-pin net per block, drawn from `rng_seed`;
/// with `symmetric`, blocks 0 and 1 are equal and form a symmetry pair.
GoldenInstance random_instance(std::uint64_t rng_seed, int n, bool symmetric) {
  Rng rng(rng_seed);
  GoldenInstance in;
  for (int i = 0; i < n; ++i) {
    const double w = rng.uniform(0.5e-6, 4e-6);
    const double h = rng.uniform(0.5e-6, 4e-6);
    in.blocks.push_back(Block{"b" + std::to_string(i), w, h});
  }
  if (symmetric) {
    in.blocks[1].width = in.blocks[0].width;
    in.blocks[1].height = in.blocks[0].height;
    in.symmetry = {SymmetryPair{0, 1}};
  }
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
  return in;
}

/// Instance k: 5-10 blocks, one symmetry pair of equal blocks, one 2-4-pin
/// net per block, 1,500 iterations.
GoldenInstance golden_instance(int k) {
  GoldenInstance in =
      random_instance(static_cast<std::uint64_t>(700 + k), 5 + k % 6, true);
  in.options.iterations = 1500;
  in.options.seed = static_cast<std::uint64_t>(k + 1);
  return in;
}

/// Every bit of a placement result, fed to one hash.
std::uint64_t result_hash(const PlacementResult& r) {
  Fnv1a h;
  for (const double v : {r.width, r.height, r.hpwl, r.cost}) h.f64(v);
  h.u64(r.legal ? 1 : 0);
  h.u64(r.blocks.size());
  for (const PlacedBlock& b : r.blocks) {
    h.f64(b.x);
    h.f64(b.y);
    h.u64(b.mirrored ? 1 : 0);
  }
  return h.value();
}

// Twelve seeded instances, every result bit: width, height, HPWL, cost,
// legality, and each block's position and mirror flag.
TEST(Placer, MatchesParentBitForBit) {
  Goldens goldens("place/instance/");
  for (int k = 0; k < 12; ++k) {
    const GoldenInstance in = golden_instance(k);
    const PlacementResult r =
        AnnealingPlacer(in.options).place(in.blocks, in.nets, in.symmetry);
    goldens.check(std::to_string(k), {{"hash", hex64(result_hash(r))}});
  }
}

// The annealer at the sizes the flows place: the OTA's 3 blocks, the
// StrongARM's 8, the VCO's 2, without a symmetry pair, at the combo trials'
// 1,500 iterations and the final placement's 8,000; 16 blocks, where states
// rarely repeat and cache slots are overwritten; and an anneal whose fuel
// budget trips at iteration 400, where its best state differs from the one
// found at 200 or at 800. One hash per instance over every result bit.
TEST(Placer, FlowSizedAnnealsMatchParentBitForBit) {
  struct Anneal {
    int blocks;
    int iterations;
    long max_checks;  ///< fuel limit; -1 = unbudgeted
  };
  const Anneal anneals[] = {
      {2, 1500, -1},  {2, 8000, -1},  {3, 1500, -1},
      {3, 8000, -1},  {8, 1500, -1},  {8, 8000, -1},
      {16, 1500, -1}, {16, 8000, -1}, {8, 8000, 400},
  };
  Goldens goldens("place/anneal/");
  for (const Anneal& a : anneals) {
    GoldenInstance in = random_instance(
        static_cast<std::uint64_t>(900 + a.blocks), a.blocks, false);
    in.options.iterations = a.iterations;
    in.options.seed = static_cast<std::uint64_t>(a.blocks + a.iterations);
    BudgetOptions limits;
    limits.max_checks = a.max_checks;
    Budget budget(limits);
    in.options.budget = &budget;
    const PlacementResult r =
        AnnealingPlacer(in.options).place(in.blocks, in.nets, in.symmetry);
    EXPECT_EQ(budget.exhausted(), a.max_checks >= 0);
    std::string key = std::to_string(a.blocks) + "blocks/" +
                      std::to_string(a.iterations) + "iterations";
    if (a.max_checks >= 0) key += "/fuel" + std::to_string(a.max_checks);
    goldens.check(key, {{"hash", hex64(result_hash(r))}});
  }
}

}  // namespace
}  // namespace olp::place
