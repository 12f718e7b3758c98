#pragma once
// Dense matrix/vector types and the dense LU (lu.hpp) built on them.
//
// The simulator does not use them: its MNA matrices are ~2% nonzero at a few
// hundred unknowns and go through the sparse solver (sparse_lu.hpp). Dense
// LU remains the reference oracle the sparse solver is tested against.

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <vector>

#include "util/error.hpp"

namespace olp::linalg {

using Complex = std::complex<double>;

/// A dense row-major matrix of element type T (double or Complex).
template <typename T>
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, T init = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, init) {}

  static Matrix identity(std::size_t n) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = T{1};
    return m;
  }

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  bool empty() const noexcept { return data_.empty(); }

  T& operator()(std::size_t r, std::size_t c) {
    OLP_ASSERT(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }
  const T& operator()(std::size_t r, std::size_t c) const {
    OLP_ASSERT(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }

  /// Resets every element to zero without reallocating.
  void set_zero() { data_.assign(data_.size(), T{}); }

  /// Resizes to rows x cols and zero-fills.
  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, T{});
  }

  /// Matrix-vector product.
  std::vector<T> mul(const std::vector<T>& x) const {
    OLP_CHECK(x.size() == cols_, "dimension mismatch in matrix-vector product");
    std::vector<T> y(rows_, T{});
    for (std::size_t r = 0; r < rows_; ++r) {
      T acc{};
      const T* row = &data_[r * cols_];
      for (std::size_t c = 0; c < cols_; ++c) acc += row[c] * x[c];
      y[r] = acc;
    }
    return y;
  }

  Matrix mul(const Matrix& b) const {
    OLP_CHECK(cols_ == b.rows_, "dimension mismatch in matrix product");
    Matrix out(rows_, b.cols_);
    for (std::size_t i = 0; i < rows_; ++i) {
      for (std::size_t k = 0; k < cols_; ++k) {
        const T aik = (*this)(i, k);
        if (aik == T{}) continue;
        for (std::size_t j = 0; j < b.cols_; ++j) {
          out(i, j) += aik * b(k, j);
        }
      }
    }
    return out;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

using RealMatrix = Matrix<double>;
using ComplexMatrix = Matrix<Complex>;
using RealVector = std::vector<double>;
using ComplexVector = std::vector<Complex>;

/// Infinity norm of a vector.
template <typename T>
double inf_norm(const std::vector<T>& v) {
  double best = 0.0;
  for (const T& x : v) best = std::max(best, std::abs(x));
  return best;
}

}  // namespace olp::linalg
