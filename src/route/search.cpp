// The fast search core behind RouteRequest::fast (GlobalRouter::route_fast).
//
// Three accelerations over the classic heap Dijkstra, applied in order:
//
//   1. PATTERN CANDIDATES — for a two-pin connection, try the straight and
//      L-shaped routes on the cheapest layers first. A candidate is accepted
//      only when every edge is congestion-free (and history-free under
//      negotiation) AND its cost equals the per-connection lower bound
//      (steps x cheapest directional step + minimum vias), which makes it
//      PROVABLY optimal — no search needed, no quality loss. Z-shapes
//      (one extra bend, swept over interior bend positions) are accepted
//      when clean at lower bound + one via: under the default cost schedule
//      any competing path either bends at least twice as well or crosses a
//      congested edge (congestion_cost 4.0 > via_cost 2.0), so the slack is
//      bounded by a single via.
//
//   2. GOAL-DIRECTED SEARCH — multi-pin connections run A* toward the tree
//      bounding box with a layer-aware admissible heuristic (cheapest
//      directional step per remaining gcell + a via when the current layer
//      cannot serve a needed direction); two-pin connections that miss the
//      patterns run bidirectional Dijkstra (forward from the pin, backward
//      from the seed stack, alternating the cheaper frontier, stopping when
//      top_f + top_b >= best meeting cost — valid because every edge cost
//      is symmetric).
//
//   3. BUCKET QUEUE + STAMPED SCRATCH — costs are integer-quantized
//      (1 gcell step = 100 units, so the classic 1.0 + 0.02*l layer bias is
//      exactly 100 + 2*l) and queued in a Dial-style bucket array with a
//      binary-heap spillover for the rare huge negotiated costs; dist/prev
//      arrays are epoch-stamped so a connection costs O(visited), not O(V)
//      allocation.
//
// The trajectory is deterministic (FIFO order within a bucket, fixed
// neighbor order) but intentionally different from the classic core's
// heap tie-breaking: backends built on the fast core carry their own
// goldens (PR 9 convention). Quantization is exact for the default cost
// schedule; fractional custom costs are rounded to 1/100 gcell.

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "route/global_router.hpp"
#include "util/budget.hpp"
#include "util/diag.hpp"
#include "util/obs.hpp"

namespace olp::route {

namespace {

/// Monotone integer priority queue: Dial buckets for the common small
/// costs, a binary-heap spillover for costs past the bucket cap (deep
/// negotiation history can push edge costs arbitrarily high). Pop order is
/// exact either way; within one bucket, FIFO (deterministic).
class DialQueue {
 public:
  static constexpr long long kBucketCap = 4096;

  explicit DialQueue(std::vector<std::vector<int>>& buckets)
      : buckets_(buckets) {
    if (buckets_.size() < static_cast<std::size_t>(kBucketCap)) {
      buckets_.resize(static_cast<std::size_t>(kBucketCap));
    }
  }
  ~DialQueue() {
    // Return the persistent bucket storage empty (capacity retained).
    for (long long i = 0; i <= max_used_ && i < kBucketCap; ++i) {
      buckets_[static_cast<std::size_t>(i)].clear();
    }
  }

  void push(long long f, int node) {
    ++count_;
    if (f < kBucketCap) {
      buckets_[static_cast<std::size_t>(f)].push_back(node);
      max_used_ = std::max(max_used_, f);
      cur_ = std::min(cur_, f);
    } else {
      overflow_.push({f, node});
    }
  }

  bool empty() const { return count_ == 0; }

  /// Smallest key currently queued (call only when !empty()).
  long long top_key() {
    advance();
    const long long bucket_key = cur_ < kBucketCap &&
                                         !buckets_[static_cast<std::size_t>(
                                                       cur_)]
                                              .empty()
                                     ? cur_
                                     : std::numeric_limits<long long>::max();
    const long long heap_key = overflow_.empty()
                                   ? std::numeric_limits<long long>::max()
                                   : overflow_.top().first;
    return std::min(bucket_key, heap_key);
  }

  std::pair<long long, int> pop() {
    advance();
    --count_;
    const bool bucket_ok =
        cur_ < kBucketCap && !buckets_[static_cast<std::size_t>(cur_)].empty();
    if (bucket_ok &&
        (overflow_.empty() || cur_ <= overflow_.top().first)) {
      auto& b = buckets_[static_cast<std::size_t>(cur_)];
      // FIFO within a bucket keeps expansion order deterministic.
      const int node = b.front();
      b.erase(b.begin());
      return {cur_, node};
    }
    const auto top = overflow_.top();
    overflow_.pop();
    return top;
  }

 private:
  void advance() {
    while (cur_ < kBucketCap &&
           buckets_[static_cast<std::size_t>(cur_)].empty() &&
           cur_ <= max_used_) {
      ++cur_;
    }
  }

  std::vector<std::vector<int>>& buckets_;
  std::priority_queue<std::pair<long long, int>,
                      std::vector<std::pair<long long, int>>,
                      std::greater<>>
      overflow_;
  long long cur_ = 0;
  long long max_used_ = -1;
  int count_ = 0;
};

constexpr long long kInf = std::numeric_limits<long long>::max() / 4;

/// Span caps. Straight/L candidates cost one O(span) edge scan, so they pay
/// for themselves even on connections spanning the whole grid; the Z sweep
/// is O(span^2) worst case and gets a much tighter bound.
constexpr int kPatternSpanCap = 1024;
constexpr int kZSpanCap = 32;

}  // namespace

/// Persistent per-router scratch: epoch-stamped arrays reset in O(1) per
/// connection / per net, bucket storage whose capacity survives across
/// searches. Sized lazily to the router's node count.
struct GlobalRouter::FastScratch {
  // Per-connection forward search state (stamp == epoch means valid).
  std::vector<long long> dist_f;
  std::vector<int> prev_f;
  std::vector<int> stamp_f;
  // Backward state for bidirectional Dijkstra.
  std::vector<long long> dist_b;
  std::vector<int> prev_b;
  std::vector<int> stamp_b;
  // Per-net tree membership (stamp == net_epoch means in tree).
  std::vector<int> tree_stamp;
  std::vector<int> tree_cells;  ///< node ids currently in the tree
  int epoch = 0;
  int net_epoch = 0;
  // Tree bounding box in gcells (heuristic target).
  int bb_x_lo = 0, bb_y_lo = 0, bb_x_hi = 0, bb_y_hi = 0;
  // Persistent bucket storage for the two frontiers.
  std::vector<std::vector<int>> buckets_f;
  std::vector<std::vector<int>> buckets_b;

  void ensure(std::size_t nodes) {
    if (dist_f.size() < nodes) {
      dist_f.assign(nodes, 0);
      prev_f.assign(nodes, -1);
      stamp_f.assign(nodes, 0);
      dist_b.assign(nodes, 0);
      prev_b.assign(nodes, -1);
      stamp_b.assign(nodes, 0);
      tree_stamp.assign(nodes, 0);
      epoch = 0;
      net_epoch = 0;
    }
  }
};

void GlobalRouter::FastScratchDeleter::operator()(FastScratch* scratch) const {
  delete scratch;
}

GlobalRouter::~GlobalRouter() = default;

NetRoute GlobalRouter::route_fast(const std::string& net_name,
                                  const std::vector<geom::Point>& pins,
                                  const RouteRequest& request) {
  // Cheapest layer per direction in the allowed range (the layer bias grows
  // with the index, so the first hit is the cheapest). A range that lacks a
  // direction entirely is a degenerate configuration the classic core
  // already handles (its "no path" diagnostics are pinned by tests) —
  // delegate rather than duplicate.
  int best_h = -1, best_v = -1;
  for (int l = opt_.min_layer; l <= opt_.max_layer; ++l) {
    if (layer_horizontal(l)) {
      if (best_h < 0) best_h = l;
    } else {
      if (best_v < 0) best_v = l;
    }
  }
  if (best_h < 0 || best_v < 0) return route_classic(net_name, pins);

  NetRoute result;
  result.net = net_name;

  if (!fast_) fast_.reset(new FastScratch);
  FastScratch& fs = *fast_;
  const int total_nodes = nx_ * ny_ * nl_;
  fs.ensure(static_cast<std::size_t>(total_nodes));
  ++fs.net_epoch;
  fs.tree_cells.clear();

  const long long via_units = std::llround(opt_.via_cost * 100.0);
  const long long cong_units = std::llround(opt_.congestion_cost * 100.0);
  const long long step_h = 100 + 2 * best_h;
  const long long step_v = 100 + 2 * best_v;
  const NegotiationCosts* neg = request.negotiation;

  auto unsnap = [&](int gx, int gy) {
    return geom::Point{region_.x_lo + geom::to_nm(gx * opt_.gcell_size),
                       region_.y_lo + geom::to_nm(gy * opt_.gcell_size)};
  };
  auto decode = [&](int node, int& x, int& y, int& l) {
    l = node / (nx_ * ny_);
    const int rem = node % (nx_ * ny_);
    y = rem / nx_;
    x = rem % nx_;
  };

  // Cost of the lateral edge stored at `lo_node` (+x if xdir, else +y).
  auto lat_cost = [&](int lo_node, bool xdir, int l) -> long long {
    const int usage =
        xdir ? usage_x_[static_cast<std::size_t>(lo_node)]
             : usage_y_[static_cast<std::size_t>(lo_node)];
    const int over = std::max(0, usage + 1 - opt_.edge_capacity);
    long long c = 100 + 2 * l;
    if (over > 0) {
      c += neg ? std::llround(neg->present_factor *
                              static_cast<double>(cong_units) * over)
               : cong_units * over;
    }
    if (neg) {
      c += xdir ? neg->history_x[static_cast<std::size_t>(lo_node)]
                : neg->history_y[static_cast<std::size_t>(lo_node)];
    }
    return c;
  };
  // A pattern leg may only cross edges with zero congestion AND zero
  // negotiation history — that is what makes its cost equal the lower
  // bound and the acceptance sound.
  auto edge_clean = [&](int lo_node, bool xdir) {
    const int usage =
        xdir ? usage_x_[static_cast<std::size_t>(lo_node)]
             : usage_y_[static_cast<std::size_t>(lo_node)];
    if (usage + 1 > opt_.edge_capacity) return false;
    if (neg) {
      const long long h =
          xdir ? neg->history_x[static_cast<std::size_t>(lo_node)]
               : neg->history_y[static_cast<std::size_t>(lo_node)];
      if (h != 0) return false;
    }
    return true;
  };

  auto in_tree = [&](int node) {
    return fs.tree_stamp[static_cast<std::size_t>(node)] == fs.net_epoch;
  };
  auto add_tree_node = [&](int node) {
    if (in_tree(node)) return;
    fs.tree_stamp[static_cast<std::size_t>(node)] = fs.net_epoch;
    fs.tree_cells.push_back(node);
    int x, y, l;
    decode(node, x, y, l);
    fs.bb_x_lo = std::min(fs.bb_x_lo, x);
    fs.bb_y_lo = std::min(fs.bb_y_lo, y);
    fs.bb_x_hi = std::max(fs.bb_x_hi, x);
    fs.bb_y_hi = std::max(fs.bb_y_hi, y);
  };

  // Commit a node path (either endpoint order): bump usage per traversed
  // edge, count vias, grow the tree, and emit one merged segment per
  // same-layer run. Runs break only at vias: a layer moves along a single
  // axis and a shortest path never revisits a node, so every same-layer
  // stretch is already straight.
  auto commit_path = [&](const std::vector<int>& path) {
    if (path.empty()) return;
    for (int node : path) add_tree_node(node);
    for (std::size_t i = 1; i < path.size(); ++i) {
      int x1, y1, l1, x0, y0, l0;
      decode(path[i], x1, y1, l1);
      decode(path[i - 1], x0, y0, l0);
      if (l1 != l0) {
        ++result.vias;
        continue;
      }
      // Bump usage on the traversed edge (stored at the lower node).
      if (x1 != x0) {
        const int lo = index(std::min(x0, x1), y0, l0);
        usage_x_[static_cast<std::size_t>(lo)] += 1;
      } else {
        const int lo = index(x0, std::min(y0, y1), l0);
        usage_y_[static_cast<std::size_t>(lo)] += 1;
      }
    }
    std::size_t run_start = 0;
    for (std::size_t i = 1; i <= path.size(); ++i) {
      const bool brk = i == path.size() ||
                       path[i] / (nx_ * ny_) != path[i - 1] / (nx_ * ny_);
      if (!brk) continue;
      int rx, ry, rl, ex, ey, el;
      decode(path[run_start], rx, ry, rl);
      decode(path[i - 1], ex, ey, el);
      if (rx != ex || ry != ey) {
        RouteSegment seg;
        seg.layer = tech::metal_layer(rl);
        seg.a = unsnap(rx, ry);
        seg.b = unsnap(ex, ey);
        result.segments.push_back(seg);
      }
      run_start = i;
    }
  };

  // ---- Pattern candidates -----------------------------------------------
  //
  // Patterns target the whole current tree, not just the previous pin: the
  // candidate gcell is the tree cell with the smallest per-cell lower bound
  // from the source (ties keep the first tree cell in insertion order —
  // deterministic). A candidate is accepted only when its actual cost
  // equals the GLOBAL bound (the minimum over every tree cell) and its
  // last node is itself in the tree, so acceptance stays provably optimal
  // for the full connect-to-tree problem: OPT >= min-cell bound == the
  // accepted pattern's cost.

  // Per-cell admissible bound lb(c) for the path stack -> c, and the exact
  // cost ac(c) our pattern shapes can realize toward c (straight / L on the
  // cheapest layers, optionally extended by a terminal via stack to c's
  // layer). lb never over-estimates the true shortest path:
  //   - one direction needed: either the whole run stays on c's own layer
  //     (cost dx*step(lc), only if lc runs that direction), or the path
  //     changes layers at least once (>= cheapest steps + one via).
  //   - both directions needed: >= cheapest steps each way + one via for
  //     the direction change.
  struct PatternTarget {
    long long bound = kInf;  ///< min lb over every tree cell
    long long cost = kInf;   ///< min achievable pattern cost (ac)
    int tx = 0, ty = 0, tl = 0;
  };
  auto pattern_target = [&](int sx, int sy) {
    PatternTarget t;
    for (int node : fs.tree_cells) {
      int x, y, l;
      decode(node, x, y, l);
      const long long dx = std::abs(x - sx), dy = std::abs(y - sy);
      if (dx == 0 && dy == 0) continue;  // stack overlap: search handles it
      const long long step_own = 100 + 2 * l;
      long long lb, ac;
      if (dy == 0) {
        const long long on_own =
            layer_horizontal(l) ? dx * step_own : kInf;
        lb = std::min(on_own, dx * step_h + via_units);
        ac = std::min(on_own,
                      dx * step_h + std::abs(l - best_h) * via_units);
      } else if (dx == 0) {
        const long long on_own =
            !layer_horizontal(l) ? dy * step_own : kInf;
        lb = std::min(on_own, dy * step_v + via_units);
        ac = std::min(on_own,
                      dy * step_v + std::abs(l - best_v) * via_units);
      } else {
        const long long base = dx * step_h + dy * step_v + via_units;
        lb = base;
        ac = base + std::min(std::abs(l - best_h), std::abs(l - best_v)) *
                        via_units;
      }
      t.bound = std::min(t.bound, lb);
      if (ac < t.cost) {
        t.cost = ac;
        t.tx = x;
        t.ty = y;
        t.tl = l;
      }
    }
    return t;
  };

  // Walk one horizontal/vertical leg on layer l; returns false on the first
  // dirty edge, otherwise appends the leg's interior+end nodes to `path`.
  auto walk_leg = [&](int x0, int y0, int x1, int y1, int l,
                      std::vector<int>& path) {
    if (x0 != x1) {
      const int step = x1 > x0 ? 1 : -1;
      for (int x = x0; x != x1; x += step) {
        const int lo = index(std::min(x, x + step), y0, l);
        if (!edge_clean(lo, true)) return false;
        path.push_back(index(x + step, y0, l));
      }
    } else if (y0 != y1) {
      const int step = y1 > y0 ? 1 : -1;
      for (int y = y0; y != y1; y += step) {
        const int lo = index(x0, std::min(y, y + step), l);
        if (!edge_clean(lo, false)) return false;
        path.push_back(index(x0, y + step, l));
      }
    }
    return true;
  };

  // Append the terminal via stack from layer `from` to `to` at (x, y).
  auto push_stack = [&](int x, int y, int from, int to,
                        std::vector<int>& path) {
    const int step = to > from ? 1 : -1;
    for (int l = from; l != to; l += step) path.push_back(index(x, y, l + step));
  };

  // Try straight / L / Z candidates from (sx,sy) to the chosen tree cell;
  // on success commits the route and returns true. Candidate order is
  // fixed, so the choice is deterministic. Straight/L shapes (optionally
  // ending in a via stack onto the cell's layer) are attempted only when
  // the realizable cost equals the GLOBAL bound — provably optimal. Z
  // candidates (one via over the bound, two-pin connections only — bounded
  // slack, since any search detour around the blockage costs at least a
  // congested edge or an extra via pair) keep the fast path useful on
  // lightly used grids.
  auto try_patterns = [&](int sx, int sy, const PatternTarget& t,
                          bool allow_z) {
    const int tx = t.tx, ty = t.ty, tl = t.tl;
    const int adx = std::abs(tx - sx), ady = std::abs(ty - sy);
    if (adx > kPatternSpanCap || ady > kPatternSpanCap) return false;
    std::vector<int> path;
    const bool optimal = t.cost == t.bound;
    if (ady == 0 && adx > 0) {  // straight horizontal
      if (optimal && layer_horizontal(tl) &&
          adx * (100 + 2 * tl) == t.cost) {
        path.push_back(index(sx, sy, tl));
        if (walk_leg(sx, sy, tx, ty, tl, path)) {
          commit_path(path);
          return true;
        }
      }
      if (optimal &&
          adx * step_h + std::abs(tl - best_h) * via_units == t.cost) {
        path.clear();
        path.push_back(index(sx, sy, best_h));
        if (walk_leg(sx, sy, tx, ty, best_h, path)) {
          push_stack(tx, ty, best_h, tl, path);
          commit_path(path);
          return true;
        }
      }
      return false;
    }
    if (adx == 0 && ady > 0) {  // straight vertical
      if (optimal && !layer_horizontal(tl) &&
          ady * (100 + 2 * tl) == t.cost) {
        path.push_back(index(sx, sy, tl));
        if (walk_leg(sx, sy, tx, ty, tl, path)) {
          commit_path(path);
          return true;
        }
      }
      if (optimal &&
          ady * step_v + std::abs(tl - best_v) * via_units == t.cost) {
        path.clear();
        path.push_back(index(sx, sy, best_v));
        if (walk_leg(sx, sy, tx, ty, best_v, path)) {
          push_stack(tx, ty, best_v, tl, path);
          commit_path(path);
          return true;
        }
      }
      return false;
    }
    if (adx == 0 || ady == 0) return false;  // same gcell: search handles it
    // L candidates: horizontal-first then vertical-first, each ending in
    // the via stack onto the cell's layer; both cost the bend-free lower
    // bound when that stack is empty, so the first clean match is optimal.
    const long long l_base = adx * step_h + ady * step_v + via_units;
    if (optimal && l_base + std::abs(tl - best_v) * via_units == t.cost) {
      path.clear();
      path.push_back(index(sx, sy, best_h));
      if (walk_leg(sx, sy, tx, sy, best_h, path)) {
        path.push_back(index(tx, sy, best_v));
        if (walk_leg(tx, sy, tx, ty, best_v, path)) {
          push_stack(tx, ty, best_v, tl, path);
          commit_path(path);
          return true;
        }
      }
    }
    if (optimal && l_base + std::abs(tl - best_h) * via_units == t.cost) {
      path.clear();
      path.push_back(index(sx, sy, best_v));
      if (walk_leg(sx, sy, sx, ty, best_v, path)) {
        path.push_back(index(sx, ty, best_h));
        if (walk_leg(sx, ty, tx, ty, best_h, path)) {
          push_stack(tx, ty, best_h, tl, path);
          commit_path(path);
          return true;
        }
      }
    }
    // Z candidates: sweep interior bend positions, nearest-to-source first
    // for determinism. Two-pin targets seed the full layer stack, so the
    // leg endings are tree members by construction.
    if (allow_z && adx <= kZSpanCap && ady <= kZSpanCap) {
      const int xstep = tx > sx ? 1 : -1;
      if (in_tree(index(tx, ty, best_h))) {
        for (int m = sx + xstep; m != tx; m += xstep) {  // V at x = m
          path.clear();
          path.push_back(index(sx, sy, best_h));
          if (!walk_leg(sx, sy, m, sy, best_h, path)) continue;
          path.push_back(index(m, sy, best_v));
          if (!walk_leg(m, sy, m, ty, best_v, path)) continue;
          path.push_back(index(m, ty, best_h));
          if (!walk_leg(m, ty, tx, ty, best_h, path)) continue;
          commit_path(path);
          return true;
        }
      }
      const int ystep = ty > sy ? 1 : -1;
      if (in_tree(index(tx, ty, best_v))) {
        for (int m = sy + ystep; m != ty; m += ystep) {  // H at y = m
          path.clear();
          path.push_back(index(sx, sy, best_v));
          if (!walk_leg(sx, sy, sx, m, best_v, path)) continue;
          path.push_back(index(sx, m, best_h));
          if (!walk_leg(sx, m, tx, m, best_h, path)) continue;
          path.push_back(index(tx, m, best_v));
          if (!walk_leg(tx, m, tx, ty, best_v, path)) continue;
          commit_path(path);
          return true;
        }
      }
    }
    return false;
  };

  // ---- Search cores -----------------------------------------------------

  // Enumerate a node's neighbors with edge costs (same moves as classic).
  auto for_each_neighbor = [&](int node, auto&& fn) {
    int x, y, l;
    decode(node, x, y, l);
    if (layer_horizontal(l)) {
      if (x + 1 < nx_) fn(index(x + 1, y, l), lat_cost(node, true, l));
      if (x > 0) {
        const int from = index(x - 1, y, l);
        fn(from, lat_cost(from, true, l));
      }
    } else {
      if (y + 1 < ny_) fn(index(x, y + 1, l), lat_cost(node, false, l));
      if (y > 0) {
        const int from = index(x, y - 1, l);
        fn(from, lat_cost(from, false, l));
      }
    }
    if (l + 1 <= opt_.max_layer) fn(index(x, y, l + 1), via_units);
    if (l - 1 >= opt_.min_layer) fn(index(x, y, l - 1), via_units);
  };

  // Admissible layer-aware heuristic toward the tree bounding box: the
  // cheapest directional step per remaining gcell, plus one via when a
  // needed direction is unavailable on the current layer (or both
  // directions are needed — any such path switches layers at least once).
  auto heuristic = [&](int node) -> long long {
    int x, y, l;
    decode(node, x, y, l);
    const long long dx = std::max({0, fs.bb_x_lo - x, x - fs.bb_x_hi});
    const long long dy = std::max({0, fs.bb_y_lo - y, y - fs.bb_y_hi});
    long long h = dx * step_h + dy * step_v;
    if ((dx > 0 && dy > 0) || (dx > 0 && !layer_horizontal(l)) ||
        (dy > 0 && layer_horizontal(l))) {
      h += via_units;
    }
    return h;
  };

  // A* from the pin's seed stack to any tree node; admissible heuristic +
  // reopening (stale entries skipped by dist comparison) => optimal.
  auto astar_to_tree = [&](int sx, int sy, std::vector<int>& path) {
    ++fs.epoch;
    DialQueue queue(fs.buckets_f);
    for (int l = opt_.min_layer; l <= opt_.max_layer; ++l) {
      const int nid = index(sx, sy, l);
      fs.stamp_f[static_cast<std::size_t>(nid)] = fs.epoch;
      fs.dist_f[static_cast<std::size_t>(nid)] = 0;
      fs.prev_f[static_cast<std::size_t>(nid)] = -1;
      queue.push(heuristic(nid), nid);
    }
    int reached = -1;
    while (!queue.empty()) {
      const auto [f, node] = queue.pop();
      const long long d = fs.dist_f[static_cast<std::size_t>(node)];
      if (fs.stamp_f[static_cast<std::size_t>(node)] != fs.epoch ||
          f != d + heuristic(node)) {
        continue;  // stale entry (node was improved after this push)
      }
      if (in_tree(node)) {
        reached = node;
        break;
      }
      for_each_neighbor(node, [&](int nid, long long w) {
        const long long nd = d + w;
        const std::size_t ni = static_cast<std::size_t>(nid);
        if (fs.stamp_f[ni] != fs.epoch || nd < fs.dist_f[ni]) {
          fs.stamp_f[ni] = fs.epoch;
          fs.dist_f[ni] = nd;
          fs.prev_f[ni] = node;
          queue.push(nd + heuristic(nid), nid);
        }
      });
    }
    if (reached < 0) return false;
    for (int n = reached; n >= 0;
         n = fs.prev_f[static_cast<std::size_t>(n)]) {
      path.push_back(n);
    }
    return true;
  };

  // Bidirectional Dijkstra between the pin's seed stack and the (small)
  // tree: expand the frontier with the cheaper top, track the best meeting
  // cost mu, stop when top_f + top_b >= mu. Edge costs are symmetric
  // (lateral cost depends only on the undirected edge; vias and the layer
  // bias are direction-free), so the backward search explores true costs.
  auto bidi_to_tree = [&](int sx, int sy, std::vector<int>& path) {
    ++fs.epoch;
    DialQueue qf(fs.buckets_f);
    DialQueue qb(fs.buckets_b);
    long long mu = kInf;
    int meet = -1;
    auto seed = [&](int nid, std::vector<long long>& dist,
                    std::vector<int>& prev, std::vector<int>& stamp,
                    DialQueue& q) {
      stamp[static_cast<std::size_t>(nid)] = fs.epoch;
      dist[static_cast<std::size_t>(nid)] = 0;
      prev[static_cast<std::size_t>(nid)] = -1;
      q.push(0, nid);
    };
    for (int l = opt_.min_layer; l <= opt_.max_layer; ++l) {
      seed(index(sx, sy, l), fs.dist_f, fs.prev_f, fs.stamp_f, qf);
    }
    for (int node : fs.tree_cells) {
      seed(node, fs.dist_b, fs.prev_b, fs.stamp_b, qb);
      // Pin and tree in the same gcell: the stacks overlap, path is trivial.
      if (fs.stamp_f[static_cast<std::size_t>(node)] == fs.epoch) {
        mu = 0;
        meet = node;
      }
    }
    auto settle_side = [&](DialQueue& q, std::vector<long long>& dist,
                           std::vector<int>& prev, std::vector<int>& stamp,
                           std::vector<long long>& odist,
                           std::vector<int>& ostamp) {
      const auto [f, node] = q.pop();
      const std::size_t i = static_cast<std::size_t>(node);
      if (stamp[i] != fs.epoch || f != dist[i]) return;  // stale
      for_each_neighbor(node, [&](int nid, long long w) {
        const long long nd = dist[i] + w;
        const std::size_t ni = static_cast<std::size_t>(nid);
        if (stamp[ni] != fs.epoch || nd < dist[ni]) {
          stamp[ni] = fs.epoch;
          dist[ni] = nd;
          prev[ni] = node;
          q.push(nd, nid);
        }
        if (ostamp[ni] == fs.epoch && nd + odist[ni] < mu) {
          mu = nd + odist[ni];
          meet = nid;
        }
      });
    };
    while (!qf.empty() && !qb.empty()) {
      if (qf.top_key() + qb.top_key() >= mu) break;
      if (qf.top_key() <= qb.top_key()) {
        settle_side(qf, fs.dist_f, fs.prev_f, fs.stamp_f, fs.dist_b,
                    fs.stamp_b);
      } else {
        settle_side(qb, fs.dist_b, fs.prev_b, fs.stamp_b, fs.dist_f,
                    fs.stamp_f);
      }
    }
    if (meet < 0) return false;
    // pin seed ... -> meet -> ... tree node
    std::vector<int> fwd;
    for (int n = meet; n >= 0; n = fs.prev_f[static_cast<std::size_t>(n)]) {
      fwd.push_back(n);
    }
    std::reverse(fwd.begin(), fwd.end());
    path = std::move(fwd);
    for (int n = fs.prev_b[static_cast<std::size_t>(meet)]; n >= 0;
         n = fs.prev_b[static_cast<std::size_t>(n)]) {
      path.push_back(n);
    }
    return true;
  };

  // ---- Incremental tree growth (same structure as the classic core) -----

  const auto [gx0, gy0] = snap(pins[0]);
  for (int l = opt_.min_layer; l <= opt_.max_layer; ++l) {
    const int nid = index(gx0, gy0, l);
    if (fs.tree_cells.empty()) {
      fs.bb_x_lo = fs.bb_x_hi = gx0;
      fs.bb_y_lo = fs.bb_y_hi = gy0;
    }
    fs.tree_stamp[static_cast<std::size_t>(nid)] = fs.net_epoch;
    fs.tree_cells.push_back(nid);
  }

  for (std::size_t p = 1; p < pins.size(); ++p) {
    if (budget_ != nullptr && budget_->check()) {
      if (diag_) {
        diag_->report(DiagSeverity::kWarning, "router", net_name,
                      budget_->description() + "; net abandoned after " +
                          std::to_string(p - 1) + " of " +
                          std::to_string(pins.size() - 1) +
                          " pin connections");
      }
      result.routed = false;
      return result;
    }
    const auto [sx, sy] = snap(pins[p]);
    const bool two_pin = p == 1;
    if (request.patterns) {
      const PatternTarget target = pattern_target(sx, sy);
      if (target.cost < kInf &&
          try_patterns(sx, sy, target, /*allow_z=*/two_pin)) {
        obs::counter_add("router.pattern_hits");
        continue;
      }
      obs::counter_add("router.search_fallbacks");
    }
    std::vector<int> path;
    const bool found =
        two_pin ? bidi_to_tree(sx, sy, path) : astar_to_tree(sx, sy, path);
    if (!found) {
      if (diag_) {
        diag_->report(DiagSeverity::kWarning, "router", net_name,
                      "no path to pin " + std::to_string(p) +
                          " within layers [" + std::to_string(opt_.min_layer) +
                          ", " + std::to_string(opt_.max_layer) + "]");
      }
      result.routed = false;
      return result;
    }
    commit_path(path);
  }

  // One via per pin for the stack from the pin layer to the routing range
  // (same accounting as the classic core).
  result.vias += static_cast<int>(pins.size());
  result.routed = true;
  return result;
}

}  // namespace olp::route
