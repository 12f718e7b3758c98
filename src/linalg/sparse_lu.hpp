#pragma once
// Sparse LU for modified nodal analysis.
//
// The simulator stamps every matrix of a circuit into one fixed structural
// pattern (CSR). SparseLu picks a Markowitz pivot order with threshold
// pivoting on the first matrix it sees and computes the fill of that order
// once; every later matrix (Newton iteration, timestep, AC frequency) is
// refactored numerically on the same order in preallocated workspaces. When a
// pivot of the fixed order drops below the relative threshold, the next
// factor() re-orders once on the current values.

#include <algorithm>
#include <climits>
#include <cmath>
#include <complex>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace olp::linalg {

/// Structural nonzero pattern of a square matrix in compressed sparse row
/// form. A matrix on the pattern is a values array with one entry per slot.
class SparsePattern {
 public:
  SparsePattern() = default;

  /// Pattern of an n x n matrix holding the given (row, col) entries;
  /// duplicates merge into one slot.
  SparsePattern(int n, std::vector<std::pair<int, int>> entries) : n_(n) {
    std::sort(entries.begin(), entries.end());
    entries.erase(std::unique(entries.begin(), entries.end()), entries.end());
    row_ptr_.assign(static_cast<std::size_t>(n) + 1, 0);
    cols_.reserve(entries.size());
    for (const auto& [r, c] : entries) {
      OLP_CHECK(r >= 0 && r < n && c >= 0 && c < n,
                "pattern entry out of range");
      ++row_ptr_[static_cast<std::size_t>(r) + 1];
      cols_.push_back(c);
    }
    for (int r = 0; r < n; ++r) {
      row_ptr_[static_cast<std::size_t>(r) + 1] +=
          row_ptr_[static_cast<std::size_t>(r)];
    }
  }

  int size() const noexcept { return n_; }
  int nnz() const noexcept { return static_cast<int>(cols_.size()); }
  const std::vector<int>& row_ptr() const noexcept { return row_ptr_; }
  const std::vector<int>& cols() const noexcept { return cols_; }

  /// Slot of entry (row, col); -1 when either index is negative (a ground
  /// row or column in MNA terms). The entry must be in the pattern.
  int slot(int row, int col) const {
    if (row < 0 || col < 0) return -1;
    OLP_CHECK(row < n_, "pattern row out of range");
    const auto first = cols_.begin() + row_ptr_[static_cast<std::size_t>(row)];
    const auto last = cols_.begin() + row_ptr_[static_cast<std::size_t>(row) + 1];
    const auto it = std::lower_bound(first, last, col);
    OLP_CHECK(it != last && *it == col, "entry not in the sparse pattern");
    return static_cast<int>(it - cols_.begin());
  }

 private:
  int n_ = 0;
  std::vector<int> row_ptr_;
  std::vector<int> cols_;
};

/// Relative residual ||A x - b||_inf / max(|| |A| |x| ||_inf, ||b||_inf) of a
/// matrix on `pattern`, in O(nnz); 0 when both norms are zero.
template <typename T>
double relative_residual(const SparsePattern& pattern, const std::vector<T>& a,
                         const std::vector<T>& x, const std::vector<T>& b) {
  const std::vector<int>& rp = pattern.row_ptr();
  const std::vector<int>& cols = pattern.cols();
  double residual = 0.0, scale = 0.0;
  for (int r = 0; r < pattern.size(); ++r) {
    const std::size_t rs = static_cast<std::size_t>(r);
    T ax{};
    double abs_ax = 0.0;
    for (int s = rp[rs]; s < rp[rs + 1]; ++s) {
      const T term = a[static_cast<std::size_t>(s)] *
                     x[static_cast<std::size_t>(cols[static_cast<std::size_t>(s)])];
      ax += term;
      abs_ax += std::abs(term);
    }
    residual = std::max(residual, std::abs(ax - b[rs]));
    scale = std::max({scale, abs_ax, std::abs(b[rs])});
  }
  return scale > 0.0 ? residual / scale : 0.0;
}

/// LU factorization of matrices that share one SparsePattern.
///
/// Pivoting is by rows of the active submatrix: an entry is an acceptable
/// pivot when it exceeds the singular tolerance and is at least
/// kPivotThreshold times the largest entry of its row; among those the one
/// with the smallest Markowitz cost (r-1)(c-1) wins, ties going to the larger
/// share of its row maximum. The singular tolerance is the dense solver's,
/// `kSingularTol * max(max|a|, 1)`.
template <typename T>
class SparseLu {
 public:
  static constexpr double kPivotThreshold = 1e-3;
  static constexpr double kSingularTol = 1e-13;

  /// The pattern must outlive the factorization.
  explicit SparseLu(const SparsePattern& pattern) : pattern_(&pattern) {}

  /// Factors the matrix with one value per pattern slot. Orders on the first
  /// call, refactors numerically on later calls, and re-orders once on these
  /// values when a pivot of the current order fails the threshold. Returns
  /// false when the matrix is numerically singular.
  bool factor(const std::vector<T>& a) {
    OLP_CHECK(static_cast<int>(a.size()) == pattern_->nnz(),
              "values do not match the sparse pattern");
    ++factorizations_;
    double max_abs = 0.0;
    for (const T& v : a) max_abs = std::max(max_abs, std::abs(v));
    const double tol = kSingularTol * std::max(max_abs, 1.0);
    if (ordered_) {
      if (refactor(a, tol)) return true;
      ++reorders_;
    }
    ordered_ = order(a, tol);
    return ordered_;
  }

  /// Solves A x = b with the last successful factorization; `x` is resized
  /// only when its size differs.
  void solve(const std::vector<T>& b, std::vector<T>& x) {
    OLP_CHECK(ordered_, "solve on a singular factorization");
    const std::size_t n = static_cast<std::size_t>(pattern_->size());
    OLP_CHECK(b.size() == n, "rhs dimension mismatch");
    x.resize(n);
    for (std::size_t k = 0; k < n; ++k) y_[k] = b[static_cast<std::size_t>(prow_[k])];
    // Forward substitution with unit-diagonal L.
    for (std::size_t k = 0; k < n; ++k) {
      T acc = y_[k];
      for (int p = ptr_[k]; p < diag_[k]; ++p) acc -= val_[p] * y_[col_[p]];
      y_[k] = acc;
    }
    // Back substitution with U.
    for (std::size_t k = n; k-- > 0;) {
      T acc = y_[k];
      for (int p = diag_[k] + 1; p < ptr_[k + 1]; ++p) acc -= val_[p] * y_[col_[p]];
      y_[k] = acc / val_[diag_[k]];
    }
    for (std::size_t k = 0; k < n; ++k) x[static_cast<std::size_t>(pcol_[k])] = y_[k];
  }

  /// factor() calls so far.
  long factorizations() const noexcept { return factorizations_; }
  /// Orderings forced by a failed pivot of an existing order (the first
  /// ordering is not a re-order).
  long reorders() const noexcept { return reorders_; }
  /// Stored entries of L and U (pattern entries plus fill).
  int factor_nnz() const noexcept { return static_cast<int>(col_.size()); }

 private:
  /// Markowitz elimination on the values `a`: records the pivot sequence,
  /// the filled structure of the factors and their values. False when no
  /// acceptable pivot remains (singular).
  bool order(const std::vector<T>& a, double tol) {
    const int n = pattern_->size();
    const std::vector<int>& rp = pattern_->row_ptr();
    const std::vector<int>& pcols = pattern_->cols();

    // Active submatrix: a pool of entries linked per row and per column.
    // Entries of eliminated columns stay linked in their rows and are
    // skipped; the counts and maxima cover live entries only.
    struct Entry {
      int row, col;
      T val;
      int next_in_row, next_in_col;
    };
    struct Line {
      int head = -1;
      int count = 0;
      double max = 0.0;  ///< rows only: largest live |value|
      bool done = false;
    };
    std::vector<Entry> pool;
    pool.reserve(2 * pcols.size());
    std::vector<Line> rows(n), cols(n);
    auto insert = [&](int r, int c, T v) {
      pool.push_back(Entry{r, c, v, rows[r].head, cols[c].head});
      rows[r].head = cols[c].head = static_cast<int>(pool.size()) - 1;
      ++rows[r].count;
      ++cols[c].count;
      return rows[r].head;
    };
    for (int r = 0; r < n; ++r) {
      for (int s = rp[r]; s < rp[r + 1]; ++s) insert(r, pcols[s], a[s]);
    }
    // Calls f(entry index) for each live entry of row r.
    auto for_row = [&](int r, auto&& f) {
      for (int e = rows[r].head; e >= 0; e = pool[e].next_in_row) {
        if (!cols[pool[e].col].done) f(e);
      }
    };
    auto refresh_max = [&](int r) {
      double m = 0.0;
      for_row(r, [&](int e) { m = std::max(m, std::abs(pool[e].val)); });
      rows[r].max = m;
    };
    for (int r = 0; r < n; ++r) refresh_max(r);

    // The factors as found: L entries (row, step, value) in step order, and
    // per step its pivot row's live entries (column, value).
    struct LEntry {
      int row, step;
      T val;
    };
    struct UEntry {
      int col;
      T val;
    };
    std::vector<LEntry> l_entries;
    std::vector<UEntry> u_entries;
    std::vector<int> u_ptr(n + 1, 0);
    std::vector<int> pos(n, -1);  // column -> entry of the row being updated
    prow_.assign(n, -1);
    pcol_.assign(n, -1);

    for (int k = 0; k < n; ++k) {
      int best = -1;
      long best_cost = LONG_MAX;
      double best_ratio = 0.0;
      for (int r = 0; r < n && !(best_cost == 0 && best_ratio == 1.0); ++r) {
        if (rows[r].done || rows[r].max <= tol) continue;
        const long row_cost = rows[r].count - 1;
        for_row(r, [&](int e) {
          const double mag = std::abs(pool[e].val);
          if (mag <= tol || mag < kPivotThreshold * rows[r].max) return;
          const long cost = row_cost * (cols[pool[e].col].count - 1);
          const double ratio = mag / rows[r].max;
          if (cost < best_cost || (cost == best_cost && ratio > best_ratio)) {
            best_cost = cost;
            best_ratio = ratio;
            best = e;
          }
        });
      }
      if (best < 0) return false;

      const int r = pool[best].row, c = pool[best].col;
      const T pivot = pool[best].val;
      prow_[k] = r;
      pcol_[k] = c;
      rows[r].done = true;
      for_row(r, [&](int e) {
        --cols[pool[e].col].count;
        u_entries.push_back(UEntry{pool[e].col, pool[e].val});
      });
      u_ptr[k + 1] = static_cast<int>(u_entries.size());
      cols[c].done = true;

      for (int ce = cols[c].head; ce >= 0; ce = pool[ce].next_in_col) {
        const int i = pool[ce].row;
        if (rows[i].done) continue;
        const T l = pool[ce].val / pivot;
        l_entries.push_back(LEntry{i, k, l});
        --rows[i].count;
        for_row(i, [&](int e) { pos[pool[e].col] = e; });
        for_row(r, [&](int e) {
          int& p = pos[pool[e].col];
          if (p < 0) p = insert(i, pool[e].col, T{});  // fill-in
          pool[p].val -= l * pool[e].val;
        });
        for_row(i, [&](int e) { pos[pool[e].col] = -1; });
        refresh_max(i);
      }
    }

    // Lay the factors out in pivot order: row k holds its L entries
    // (ascending steps) then its U entries with the diagonal first.
    std::vector<int> pinv_row(n), pinv_col(n);
    for (int k = 0; k < n; ++k) {
      pinv_row[prow_[k]] = k;
      pinv_col[pcol_[k]] = k;
    }
    std::vector<int> l_ptr(n + 1, 0);  // L entries bucketed by pivot row
    for (const LEntry& e : l_entries) ++l_ptr[pinv_row[e.row] + 1];
    for (int k = 0; k < n; ++k) l_ptr[k + 1] += l_ptr[k];
    ptr_.assign(n + 1, 0);
    diag_.assign(n, 0);
    for (int k = 0; k < n; ++k) {
      diag_[k] = ptr_[k] + (l_ptr[k + 1] - l_ptr[k]);
      ptr_[k + 1] = diag_[k] + (u_ptr[k + 1] - u_ptr[k]);
    }
    col_.assign(ptr_[n], 0);
    val_.assign(ptr_[n], T{});
    std::vector<int> next_l(ptr_.begin(), ptr_.end() - 1);  // next free L slot
    for (const LEntry& e : l_entries) {
      const int p = next_l[pinv_row[e.row]]++;
      col_[p] = e.step;
      val_[p] = e.val;
    }
    for (int k = 0; k < n; ++k) {
      const auto first = u_entries.begin() + u_ptr[k];
      const auto last = u_entries.begin() + u_ptr[k + 1];
      for (auto it = first; it != last; ++it) it->col = pinv_col[it->col];
      std::sort(first, last, [](const UEntry& x, const UEntry& y) { return x.col < y.col; });
      int p = diag_[k];
      for (auto it = first; it != last; ++it, ++p) {
        col_[p] = it->col;
        val_[p] = it->val;
      }
    }
    w_.assign(n, T{});
    y_.assign(n, T{});

    // Where each pattern slot lands in the factor arrays.
    slot_pos_.assign(pcols.size(), 0);
    for (int r = 0; r < n; ++r) {
      const int k = pinv_row[r];
      const auto first = col_.begin() + ptr_[k];
      const auto last = col_.begin() + ptr_[k + 1];
      for (int s = rp[r]; s < rp[r + 1]; ++s) {
        slot_pos_[s] = static_cast<int>(
            std::lower_bound(first, last, pinv_col[pcols[s]]) - col_.begin());
      }
    }
    return true;
  }

  /// Row-by-row numeric factorization on the recorded order and structure.
  /// False when a pivot is at or below the singular tolerance or below the
  /// relative threshold of its U row.
  bool refactor(const std::vector<T>& a, double tol) {
    std::fill(val_.begin(), val_.end(), T{});
    for (std::size_t s = 0; s < a.size(); ++s) val_[slot_pos_[s]] = a[s];
    const std::size_t n = diag_.size();
    for (std::size_t k = 0; k < n; ++k) {
      const int begin = ptr_[k], end = ptr_[k + 1];
      for (int p = begin; p < end; ++p) w_[col_[p]] = val_[p];
      for (int p = begin; p < diag_[k]; ++p) {
        const std::size_t j = static_cast<std::size_t>(col_[p]);
        const T l = w_[j] / val_[diag_[j]];
        w_[j] = l;
        if (l == T{}) continue;
        for (int q = diag_[j] + 1; q < ptr_[j + 1]; ++q) w_[col_[q]] -= l * val_[q];
      }
      double row_max = 0.0;
      for (int p = begin; p < end; ++p) {
        val_[p] = w_[col_[p]];
        w_[col_[p]] = T{};
        if (p >= diag_[k]) row_max = std::max(row_max, std::abs(val_[p]));
      }
      const double pivot = std::abs(val_[diag_[k]]);
      if (pivot <= tol || pivot < kPivotThreshold * row_max) {
        std::fill(w_.begin(), w_.end(), T{});
        return false;
      }
    }
    return true;
  }

  const SparsePattern* pattern_;
  bool ordered_ = false;
  long factorizations_ = 0;
  long reorders_ = 0;

  std::vector<int> prow_, pcol_;  ///< original row / column of pivot k
  std::vector<int> ptr_;          ///< row k of the factors: [ptr_[k], ptr_[k+1])
  std::vector<int> diag_;         ///< position of U(k, k)
  std::vector<int> col_;          ///< pivot-order column of each stored entry
  std::vector<T> val_;            ///< L (unit diagonal implied) and U values
  std::vector<int> slot_pos_;     ///< pattern slot -> position in val_
  std::vector<T> w_, y_;          ///< dense row and solve workspaces
};

}  // namespace olp::linalg
