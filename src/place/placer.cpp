#include "place/placer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "util/budget.hpp"
#include "util/error.hpp"

namespace olp::place {

namespace {

/// Each block's index in each sequence; pack_into's per-run work buffers.
struct SequenceIndex {
  std::vector<std::size_t> in_pos;
  std::vector<std::size_t> in_neg;
  explicit SequenceIndex(std::size_t n) : in_pos(n), in_neg(n) {}
};

/// Packs a sequence pair into the x and y of every entry of `placed` (sized
/// like `blocks`; `mirrored` is left alone) without allocating.
void pack_into(const std::vector<Block>& blocks, const std::vector<int>& pos,
               const std::vector<int>& neg, SequenceIndex& index,
               std::vector<PlacedBlock>& placed) {
  const std::size_t n = blocks.size();
  std::vector<std::size_t>& in_pos = index.in_pos;
  std::vector<std::size_t>& in_neg = index.in_neg;
  // match[b] = index of block b in each sequence.
  for (std::size_t i = 0; i < n; ++i) {
    in_pos[static_cast<std::size_t>(pos[i])] = i;
    in_neg[static_cast<std::size_t>(neg[i])] = i;
  }
  // Block a is left of b iff a precedes b in both sequences;
  // a is below b iff a follows b in pos and precedes it in neg.
  // Longest-path x coordinates in pos order restricted to the left-of
  // relation; O(n^2) is fine for block counts in the tens.
  // Process blocks in an order compatible with "left of": pos order works
  // for x (all left-neighbors precede in pos).
  for (std::size_t pi = 0; pi < n; ++pi) {
    const std::size_t b = static_cast<std::size_t>(pos[pi]);
    double x = 0.0;
    for (std::size_t pj = 0; pj < pi; ++pj) {
      const std::size_t a = static_cast<std::size_t>(pos[pj]);
      if (in_neg[a] < in_neg[b]) {
        x = std::max(x, placed[a].x + blocks[a].width);
      }
    }
    placed[b].x = x;
  }
  // y: process in neg order; a below b iff in_pos[a] > in_pos[b] and
  // in_neg[a] < in_neg[b].
  for (std::size_t ni = 0; ni < n; ++ni) {
    const std::size_t b = static_cast<std::size_t>(neg[ni]);
    double y = 0.0;
    for (std::size_t nj = 0; nj < ni; ++nj) {
      const std::size_t a = static_cast<std::size_t>(neg[nj]);
      if (in_pos[a] > in_pos[b]) {
        y = std::max(y, placed[a].y + blocks[a].height);
      }
    }
    placed[b].y = y;
  }
}

struct Candidate {
  std::vector<PlacedBlock> placed;
  double width = 0.0;
  double height = 0.0;
  double hpwl = 0.0;
  double sym_penalty = 0.0;
  double cost = 0.0;
};

double compute_hpwl(const std::vector<Block>& blocks,
                    const std::vector<PlacementNet>& nets,
                    const std::vector<PlacedBlock>& placed) {
  double total = 0.0;
  for (const PlacementNet& net : nets) {
    if (net.pins.size() < 2) continue;
    double x_lo = 1e300, x_hi = -1e300, y_lo = 1e300, y_hi = -1e300;
    for (const PlacementNet::PinRef& pin : net.pins) {
      const std::size_t b = static_cast<std::size_t>(pin.block);
      const double dx =
          placed[b].mirrored ? blocks[b].width - pin.dx : pin.dx;
      const double px = placed[b].x + dx;
      const double py = placed[b].y + pin.dy;
      x_lo = std::min(x_lo, px);
      x_hi = std::max(x_hi, px);
      y_lo = std::min(y_lo, py);
      y_hi = std::max(y_hi, py);
    }
    total += (x_hi - x_lo) + (y_hi - y_lo);
  }
  return total;
}

/// Packs and scores (pos, neg, mirrored) into `c`, reusing its storage.
void evaluate(const std::vector<Block>& blocks,
              const std::vector<PlacementNet>& nets,
              const std::vector<SymmetryPair>& symmetry,
              const std::vector<int>& pos, const std::vector<int>& neg,
              const std::vector<bool>& mirrored, const PlacerOptions& opt,
              SequenceIndex& index, Candidate& c) {
  pack_into(blocks, pos, neg, index, c.placed);
  c.width = 0.0;
  c.height = 0.0;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    c.placed[b].mirrored = mirrored[b];
    c.width = std::max(c.width, c.placed[b].x + blocks[b].width);
    c.height = std::max(c.height, c.placed[b].y + blocks[b].height);
  }
  c.hpwl = compute_hpwl(blocks, nets, c.placed);
  c.sym_penalty = 0.0;
  for (const SymmetryPair& sp : symmetry) {
    const std::size_t a = static_cast<std::size_t>(sp.a);
    const std::size_t b = static_cast<std::size_t>(sp.b);
    c.sym_penalty += std::fabs(c.placed[a].y - c.placed[b].y);
    // Widths are equal for true symmetry pairs; penalize center misalignment
    // asymmetry about their mutual axis only through y here, x is free (the
    // axis is wherever their midpoint falls), but overlapping pairs are
    // already prevented by the sequence pair.
  }
  const double norm = std::sqrt(std::max(c.width * c.height, 1e-18));
  c.cost = opt.area_weight * c.width * c.height +
           opt.hpwl_weight * c.hpwl * norm +
           opt.symmetry_weight * c.sym_penalty * norm;
}

/// Snaps symmetry pairs exactly: equal y, mirrored pin orientation, and
/// horizontal positions symmetric about their common center.
void snap_symmetry(const std::vector<Block>& blocks,
                   const std::vector<SymmetryPair>& symmetry,
                   std::vector<PlacedBlock>& placed) {
  for (const SymmetryPair& sp : symmetry) {
    const std::size_t a = static_cast<std::size_t>(sp.a);
    const std::size_t b = static_cast<std::size_t>(sp.b);
    const double y = 0.5 * (placed[a].y + placed[b].y);
    placed[a].y = y;
    placed[b].y = y;
    // Mirror the right block of the pair so matched pins face each other.
    if (placed[a].x <= placed[b].x) {
      placed[b].mirrored = !placed[a].mirrored;
    } else {
      placed[a].mirrored = !placed[b].mirrored;
    }
    (void)blocks;
  }
}

/// The costs of recently scored annealing states. A state is its sequence
/// pair and mirror flags, packed into 16-bit words: both sequences, then the
/// flags as bits. The cache is direct-mapped: an FNV-1a hash of those words
/// picks one of a fixed number of slots, and each slot holds one full state
/// and its cost. A lookup compares the whole state, so a hit returns exactly
/// the cost evaluate() would compute again (a pure function of the state),
/// and a miss overwrites the slot. The memory is sized once, when the cache
/// is built, and never grows with the iterations.
class StateCosts {
 public:
  /// Most blocks a 16-bit word can index, with 0xFFFF left to mark an empty
  /// slot: no sequence entry of a legal state equals it.
  static constexpr std::size_t kMaxBlocks = 0xFFFF;

  explicit StateCosts(std::size_t n)
      : n_(n),
        words_(2 * n + (n + 15) / 16),
        probe_(words_),
        keys_(kSlots * words_, kEmpty),
        costs_(kSlots) {}

  /// Makes (pos, neg, mirrored) the probe state. True, with `cost` set, when
  /// its slot holds that state.
  bool find(const std::vector<int>& pos, const std::vector<int>& neg,
            const std::vector<bool>& mirrored, double& cost) {
    std::fill(probe_.begin() + static_cast<std::ptrdiff_t>(2 * n_),
              probe_.end(), std::uint16_t{0});
    for (std::size_t i = 0; i < n_; ++i) {
      probe_[i] = static_cast<std::uint16_t>(pos[i]);
      probe_[n_ + i] = static_cast<std::uint16_t>(neg[i]);
      if (mirrored[i]) {
        probe_[2 * n_ + i / 16] |= static_cast<std::uint16_t>(1U << (i % 16));
      }
    }
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::uint16_t w : probe_) {
      h = (h ^ (w & 0xffU)) * 0x100000001b3ULL;
      h = (h ^ (w >> 8)) * 0x100000001b3ULL;
    }
    // Fold the high half in: FNV-1a's low bits alone mix the small words of
    // a state poorly.
    slot_ = static_cast<std::size_t>((h ^ (h >> 32)) & (kSlots - 1));
    if (!std::equal(probe_.begin(), probe_.end(), slot_key())) return false;
    cost = costs_[slot_];
    return true;
  }

  /// Stores `cost` for the last probe state, evicting its slot's state.
  void store(double cost) {
    std::copy(probe_.begin(), probe_.end(), slot_key());
    costs_[slot_] = cost;
  }

 private:
  static constexpr std::size_t kSlots = 1024;
  static constexpr std::uint16_t kEmpty = 0xFFFF;

  std::vector<std::uint16_t>::iterator slot_key() {
    return keys_.begin() + static_cast<std::ptrdiff_t>(slot_ * words_);
  }

  std::size_t n_;
  std::size_t words_;                 ///< words per state
  std::vector<std::uint16_t> probe_;  ///< the state last looked up
  std::vector<std::uint16_t> keys_;   ///< kSlots states of words_ words
  std::vector<double> costs_;         ///< per slot
  std::size_t slot_ = 0;              ///< the probe state's slot
};

/// One candidate annealing move, fully described by values drawn from the
/// RNG stream. Every move is its own inverse: applying it twice restores
/// the sequence pair and the mirror flags.
struct Move {
  int kind = 0;  ///< 0 = swap pos, 1 = swap both, 2 = mirror flip
  int i = 0;
  int j = 0;
};

Move draw_move(Rng& rng, std::size_t n) {
  Move m;
  m.kind = rng.uniform_int(0, 2);
  m.i = rng.uniform_int(0, static_cast<int>(n) - 1);
  m.j = rng.uniform_int(0, static_cast<int>(n) - 1);
  if (m.j == m.i) m.j = (m.j + 1) % static_cast<int>(n);
  return m;
}

void apply_move(const Move& m, std::vector<int>& pos, std::vector<int>& neg,
                std::vector<bool>& mirrored) {
  switch (m.kind) {
    case 0:
      std::swap(pos[static_cast<std::size_t>(m.i)],
                pos[static_cast<std::size_t>(m.j)]);
      break;
    case 1:
      std::swap(pos[static_cast<std::size_t>(m.i)],
                pos[static_cast<std::size_t>(m.j)]);
      std::swap(neg[static_cast<std::size_t>(m.i)],
                neg[static_cast<std::size_t>(m.j)]);
      break;
    case 2:
      mirrored[static_cast<std::size_t>(m.i)] =
          !mirrored[static_cast<std::size_t>(m.i)];
      break;
    default:
      break;
  }
}

bool overlaps(const std::vector<Block>& blocks,
              const std::vector<PlacedBlock>& placed) {
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    for (std::size_t j = i + 1; j < blocks.size(); ++j) {
      const bool sep = placed[i].x + blocks[i].width <= placed[j].x + 1e-12 ||
                       placed[j].x + blocks[j].width <= placed[i].x + 1e-12 ||
                       placed[i].y + blocks[i].height <= placed[j].y + 1e-12 ||
                       placed[j].y + blocks[j].height <= placed[i].y + 1e-12;
      if (!sep) return true;
    }
  }
  return false;
}

}  // namespace

std::vector<PlacedBlock> pack_sequence_pair(const std::vector<Block>& blocks,
                                            const std::vector<int>& pos,
                                            const std::vector<int>& neg) {
  const std::size_t n = blocks.size();
  OLP_CHECK(pos.size() == n && neg.size() == n,
            "sequence pair size mismatch");
  SequenceIndex index(n);
  std::vector<PlacedBlock> placed(n);
  pack_into(blocks, pos, neg, index, placed);
  return placed;
}

PlacementResult AnnealingPlacer::place(
    const std::vector<Block>& blocks, const std::vector<PlacementNet>& nets,
    const std::vector<SymmetryPair>& symmetry) const {
  OLP_CHECK(!blocks.empty(), "nothing to place");
  for (const PlacementNet& net : nets) {
    for (const PlacementNet::PinRef& pin : net.pins) {
      OLP_CHECK(pin.block >= 0 &&
                    pin.block < static_cast<int>(blocks.size()),
                "net references unknown block");
    }
  }
  for (const SymmetryPair& sp : symmetry) {
    OLP_CHECK(sp.a != sp.b && sp.a >= 0 && sp.b >= 0 &&
                  sp.a < static_cast<int>(blocks.size()) &&
                  sp.b < static_cast<int>(blocks.size()),
              "bad symmetry pair");
  }

  const std::size_t n = blocks.size();
  OLP_CHECK(n <= StateCosts::kMaxBlocks, "too many blocks to place");
  Rng rng(options_.seed);
  std::vector<int> pos(n), neg(n);
  std::iota(pos.begin(), pos.end(), 0);
  std::iota(neg.begin(), neg.end(), 0);
  std::vector<bool> mirrored(n, false);

  // Every move is applied in place and, when rejected, applied again to
  // undo it. The anneal tracks costs only: a state's cost comes from the
  // cache of recently scored states or, on a miss, from evaluate() into
  // `cand`. The best state is kept as its sequence pair and mirror flags and
  // packed once more after the loop.
  SequenceIndex index(n);
  Candidate cand;
  cand.placed.resize(n);
  StateCosts scored(n);
  const auto cost_of_state = [&] {
    double cost = 0.0;
    if (!scored.find(pos, neg, mirrored, cost)) {
      evaluate(blocks, nets, symmetry, pos, neg, mirrored, options_, index,
               cand);
      cost = cand.cost;
      scored.store(cost);
    }
    return cost;
  };
  double current = cost_of_state();
  double best = current;
  std::vector<int> best_pos = pos;
  std::vector<int> best_neg = neg;
  std::vector<bool> best_mirrored = mirrored;

  double temp = options_.initial_temp * std::max(current, 1e-18);
  for (int it = 0; it < options_.iterations; ++it) {
    // Budget-bounded annealing: stop early with the best placement so far
    // (the initial packing was scored before the loop, so the best state is
    // always a complete, packable one).
    if (options_.budget != nullptr && options_.budget->check()) break;
    const Move move = draw_move(rng, n);
    apply_move(move, pos, neg, mirrored);
    const double cost = cost_of_state();
    const double delta = cost - current;
    if (delta <= 0 ||
        rng.uniform() < std::exp(-delta / std::max(temp, 1e-30))) {
      current = cost;
      if (current < best) {
        best = current;
        best_pos = pos;
        best_neg = neg;
        best_mirrored = mirrored;
      }
    } else {
      apply_move(move, pos, neg, mirrored);
    }
    temp *= options_.cooling;
  }
  // The best state packed again: evaluate() is a pure function of the
  // state, so this is the candidate the anneal scored.
  evaluate(blocks, nets, symmetry, best_pos, best_neg, best_mirrored,
           options_, index, cand);

  PlacementResult result;
  result.blocks = cand.placed;
  snap_symmetry(blocks, symmetry, result.blocks);
  result.legal = !overlaps(blocks, result.blocks);
  if (!result.legal) {
    // Fall back to the unsnapped (guaranteed legal) packing.
    result.blocks = cand.placed;
    result.legal = !overlaps(blocks, result.blocks);
  }
  result.width = 0.0;
  result.height = 0.0;
  for (std::size_t b = 0; b < n; ++b) {
    result.width = std::max(result.width, result.blocks[b].x + blocks[b].width);
    result.height =
        std::max(result.height, result.blocks[b].y + blocks[b].height);
  }
  result.hpwl = compute_hpwl(blocks, nets, result.blocks);
  result.cost = cand.cost;
  return result;
}

}  // namespace olp::place
