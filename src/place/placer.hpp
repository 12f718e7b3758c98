#pragma once
// Block placement: sequence-pair simulated annealing with symmetry
// constraints (in the spirit of Ma et al., TCAD'11 — reference [18] of the
// paper, which the paper's placer is based on).
//
// Blocks are primitive-layout abstracts. The annealer explores sequence
// pairs (plus per-block mirroring), evaluates packed coordinates by the
// standard longest-path computation, and scores area + wirelength + symmetry
// deviation. A state it revisits is often still in a fixed-size cache of
// recently scored states, keyed on the full state, and is not packed again.
// Symmetry pairs are finally snapped exactly (equal y, mirrored about the
// group axis), with a legality check on the snapped result.

#include <cstdint>
#include <string>
#include <vector>

#include "geom/layout.hpp"
#include "util/rng.hpp"

namespace olp {
class Budget;
}

namespace olp::place {

/// A block to place (a primitive layout abstract).
struct Block {
  std::string name;
  double width = 0.0;   ///< [m]
  double height = 0.0;  ///< [m]
};

/// A net connecting block pins; for global placement each connection is a
/// (block index, relative pin offset) pair.
struct PlacementNet {
  std::string name;
  struct PinRef {
    int block = 0;
    double dx = 0.0;  ///< pin offset from block origin [m]
    double dy = 0.0;
  };
  std::vector<PinRef> pins;
};

/// Two blocks required to be symmetric about a common vertical axis.
struct SymmetryPair {
  int a = 0;
  int b = 0;
};

struct PlacedBlock {
  double x = 0.0;  ///< lower-left corner [m]
  double y = 0.0;
  bool mirrored = false;  ///< mirrored about its own vertical centerline
};

struct PlacementResult {
  std::vector<PlacedBlock> blocks;
  double width = 0.0;
  double height = 0.0;
  double hpwl = 0.0;
  double cost = 0.0;
  bool legal = false;  ///< no overlaps after symmetry snapping
};

struct PlacerOptions {
  int iterations = 20000;
  double initial_temp = 1.0;
  double cooling = 0.995;    ///< geometric cooling factor, every iteration
  double area_weight = 1.0;
  double hpwl_weight = 0.5;
  double symmetry_weight = 4.0;
  std::uint64_t seed = 1;
  /// Optional execution budget (not owned, may be null). Exhaustion stops
  /// the annealing loop early; the best placement found so far (at least the
  /// initial packing, evaluated before the loop) is returned.
  Budget* budget = nullptr;
};

/// Sequence-pair placer.
class AnnealingPlacer {
 public:
  explicit AnnealingPlacer(PlacerOptions options = {}) : options_(options) {}

  PlacementResult place(const std::vector<Block>& blocks,
                        const std::vector<PlacementNet>& nets,
                        const std::vector<SymmetryPair>& symmetry) const;

 private:
  PlacerOptions options_;
};

/// Packs a sequence pair into coordinates (exposed for testing).
/// `pos`/`neg` are permutations of 0..n-1; returns lower-left corners such
/// that no two blocks overlap and the packing is compacted to the origin.
std::vector<PlacedBlock> pack_sequence_pair(const std::vector<Block>& blocks,
                                            const std::vector<int>& pos,
                                            const std::vector<int>& neg);

}  // namespace olp::place
