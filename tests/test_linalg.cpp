// Unit and property tests for the dense matrix / LU solver, and for the
// sparse MNA solver against the dense one as its oracle.

#include <gtest/gtest.h>

#include <array>
#include <complex>

#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "linalg/sparse_lu.hpp"
#include "util/rng.hpp"

namespace olp::linalg {
namespace {

TEST(Matrix, ConstructionAndIndexing) {
  RealMatrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  m(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
}

TEST(Matrix, IdentityProduct) {
  const RealMatrix i = RealMatrix::identity(4);
  RealMatrix a(4, 4);
  Rng rng(5);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) a(r, c) = rng.uniform(-1, 1);
  }
  const RealMatrix ai = a.mul(i);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_DOUBLE_EQ(ai(r, c), a(r, c));
    }
  }
}

TEST(Matrix, MatVecDimensionMismatchThrows) {
  RealMatrix a(3, 2);
  EXPECT_THROW(a.mul(std::vector<double>{1.0, 2.0, 3.0}),
               InvalidArgumentError);
}

TEST(Matrix, SetZero) {
  RealMatrix a(2, 2, 3.0);
  a.set_zero();
  EXPECT_DOUBLE_EQ(a(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(a(1, 1), 0.0);
}

TEST(Lu, SolvesDiagonalSystem) {
  RealMatrix a(3, 3);
  a(0, 0) = 2.0;
  a(1, 1) = 4.0;
  a(2, 2) = 8.0;
  std::vector<double> x;
  ASSERT_TRUE(solve(a, {2.0, 4.0, 8.0}, x));
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 1.0, 1e-12);
  EXPECT_NEAR(x[2], 1.0, 1e-12);
}

TEST(Lu, SolvesKnownSystem) {
  RealMatrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 3;
  a(1, 1) = 4;
  std::vector<double> x;
  ASSERT_TRUE(solve(a, {5.0, 11.0}, x));
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, RequiresPivoting) {
  // Zero on the initial diagonal forces a row swap.
  RealMatrix a(2, 2);
  a(0, 0) = 0;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 0;
  std::vector<double> x;
  ASSERT_TRUE(solve(a, {3.0, 7.0}, x));
  EXPECT_NEAR(x[0], 7.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, DetectsSingularMatrix) {
  RealMatrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 4;  // rank 1
  std::vector<double> x;
  EXPECT_FALSE(solve(a, {1.0, 2.0}, x));
}

TEST(Lu, DetectsZeroMatrix) {
  RealMatrix a(3, 3);
  std::vector<double> x;
  EXPECT_FALSE(solve(a, {1.0, 1.0, 1.0}, x));
}

TEST(Lu, SolveOnSingularFactorizationThrows) {
  RealMatrix a(2, 2);  // all zeros
  Lu<double> lu(a);
  EXPECT_FALSE(lu.ok());
  EXPECT_THROW(lu.solve({1.0, 2.0}), InvalidArgumentError);
}

TEST(Lu, ComplexSolve) {
  using C = std::complex<double>;
  ComplexMatrix a(2, 2);
  a(0, 0) = C{1, 1};
  a(0, 1) = C{0, 0};
  a(1, 0) = C{0, 0};
  a(1, 1) = C{0, 2};
  std::vector<C> x;
  ASSERT_TRUE(solve(a, std::vector<C>{C{2, 0}, C{0, 4}}, x));
  EXPECT_NEAR(std::abs(x[0] - C{1, -1}), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(x[1] - C{2, 0}), 0.0, 1e-12);
}

// Property: A * solve(A, b) == b for random well-conditioned systems.
class LuRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(LuRoundTrip, ResidualIsSmall) {
  const std::size_t n = static_cast<std::size_t>(GetParam());
  Rng rng(1234 + GetParam());
  RealMatrix a(n, n);
  std::vector<double> b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = rng.uniform(-10, 10);
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1, 1);
    a(i, i) += static_cast<double>(n);  // diagonal dominance
  }
  std::vector<double> x;
  ASSERT_TRUE(solve(a, b, x));
  const std::vector<double> ax = a.mul(x);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(ax[i], b[i], 1e-8) << "row " << i << " of n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuRoundTrip,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 32, 64, 128));

// Property: complex round trip.
class LuComplexRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(LuComplexRoundTrip, ResidualIsSmall) {
  using C = std::complex<double>;
  const std::size_t n = static_cast<std::size_t>(GetParam());
  Rng rng(77 + GetParam());
  ComplexMatrix a(n, n);
  std::vector<C> b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = C{rng.uniform(-1, 1), rng.uniform(-1, 1)};
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = C{rng.uniform(-1, 1), rng.uniform(-1, 1)};
    }
    a(i, i) += C{static_cast<double>(n), 0};
  }
  std::vector<C> x;
  ASSERT_TRUE(solve(a, b, x));
  const std::vector<C> ax = a.mul(x);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_LT(std::abs(ax[i] - b[i]), 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuComplexRoundTrip,
                         ::testing::Values(2, 4, 8, 16, 32));

TEST(InfNorm, RealAndComplex) {
  EXPECT_DOUBLE_EQ(inf_norm(std::vector<double>{1.0, -3.0, 2.0}), 3.0);
  using C = std::complex<double>;
  EXPECT_DOUBLE_EQ(inf_norm(std::vector<C>{C{3, 4}, C{0, 1}}), 5.0);
}

// ---- Sparse LU against the dense oracle ----------------------------------

/// A matrix on a sparse pattern, built by accumulating (row, col, value)
/// stamps the way the simulator does.
template <typename T>
struct SparseSystem {
  SparsePattern pattern;
  std::vector<T> values;

  SparseSystem(int n, const std::vector<std::pair<int, int>>& entries)
      : pattern(n, entries),
        values(static_cast<std::size_t>(pattern.nnz()), T{}) {}

  T& at(int row, int col) {
    return values[static_cast<std::size_t>(pattern.slot(row, col))];
  }

  Matrix<T> dense() const {
    const std::size_t n = static_cast<std::size_t>(pattern.size());
    Matrix<T> m(n, n);
    for (std::size_t r = 0; r < n; ++r) {
      for (int s = pattern.row_ptr()[r]; s < pattern.row_ptr()[r + 1]; ++s) {
        m(r, static_cast<std::size_t>(pattern.cols()[static_cast<std::size_t>(s)])) =
            values[static_cast<std::size_t>(s)];
      }
    }
    return m;
  }
};

/// Random admittance of an MNA branch: a conductance, plus a susceptance for
/// complex systems.
template <typename T>
T random_admittance(Rng& rng);
template <>
double random_admittance<double>(Rng& rng) {
  return rng.uniform(1e-4, 1e-2);
}
template <>
std::complex<double> random_admittance<std::complex<double>>(Rng& rng) {
  return {rng.uniform(1e-4, 1e-2), rng.uniform(-1e-2, 1e-2)};
}

/// MNA-shaped system of n unknowns: a random conductance network over the
/// first n - nv node unknowns (a chain plus random cross links, each node
/// tied to ground) and nv voltage sources from distinct nodes to ground,
/// whose branch rows have a zero diagonal. `seed` fixes the topology and
/// `value_seed` the element values.
template <typename T>
SparseSystem<T> random_mna(int n, std::uint64_t seed,
                           std::uint64_t value_seed = 0) {
  Rng rng(seed);
  const int nv = n >= 3 ? std::max(1, n / 8) : 0;
  const int nodes = n - nv;
  std::vector<std::array<int, 2>> edges;
  for (int k = 0; k + 1 < nodes; ++k) edges.push_back({k, k + 1});
  for (int k = 0; k < 2 * nodes; ++k) {
    const int a = rng.uniform_int(0, nodes - 1);
    const int b = rng.uniform_int(0, nodes - 1);
    if (a != b) edges.push_back({a, b});
  }
  std::vector<std::pair<int, int>> entries;
  for (int k = 0; k < nodes; ++k) entries.emplace_back(k, k);
  for (const auto& [a, b] : edges) {
    entries.emplace_back(a, b);
    entries.emplace_back(b, a);
  }
  for (int v = 0; v < nv; ++v) {
    entries.emplace_back(v, nodes + v);
    entries.emplace_back(nodes + v, v);
  }
  SparseSystem<T> sys(n, entries);
  if (value_seed != 0) rng = Rng(value_seed);
  for (int k = 0; k < nodes; ++k) sys.at(k, k) += random_admittance<T>(rng);
  for (const auto& [a, b] : edges) {
    const T g = random_admittance<T>(rng);
    sys.at(a, a) += g;
    sys.at(b, b) += g;
    sys.at(a, b) -= g;
    sys.at(b, a) -= g;
  }
  for (int v = 0; v < nv; ++v) {
    sys.at(v, nodes + v) = T{1.0};
    sys.at(nodes + v, v) = T{1.0};
  }
  return sys;
}

template <typename T>
std::vector<T> random_rhs(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<T> b(n);
  for (T& v : b) v = T{rng.uniform(-1, 1)};
  return b;
}

/// The sparse solution agrees with the dense LU within 1e-9 relative.
template <typename T>
void expect_matches_dense(SparseLu<T>& lu, const SparseSystem<T>& sys,
                          const std::vector<T>& b) {
  std::vector<T> dense_x;
  ASSERT_TRUE(solve(sys.dense(), b, dense_x));
  ASSERT_TRUE(lu.factor(sys.values));
  std::vector<T> x;
  lu.solve(b, x);
  ASSERT_EQ(x.size(), dense_x.size());
  double diff = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    diff = std::max(diff, std::abs(x[i] - dense_x[i]));
  }
  EXPECT_LE(diff, 1e-9 * inf_norm(dense_x)) << "n=" << x.size();
  EXPECT_LT(relative_residual(sys.pattern, sys.values, x, b), 1e-12);
}

class SparseLuMna : public ::testing::TestWithParam<int> {};

TEST_P(SparseLuMna, RealMatchesDense) {
  const int n = GetParam();
  const SparseSystem<double> sys = random_mna<double>(n, 100 + n);
  SparseLu<double> lu(sys.pattern);
  expect_matches_dense(lu, sys, random_rhs<double>(n, 200 + n));
  EXPECT_EQ(lu.reorders(), 0);
}

TEST_P(SparseLuMna, ComplexMatchesDense) {
  using C = std::complex<double>;
  const int n = GetParam();
  const SparseSystem<C> sys = random_mna<C>(n, 300 + n);
  SparseLu<C> lu(sys.pattern);
  expect_matches_dense(lu, sys, random_rhs<C>(n, 400 + n));
}

// Property: new element values on the same circuit (the next Newton
// iteration or timestep) refactor on the first order.
TEST_P(SparseLuMna, RefactorReusesOrder) {
  const int n = GetParam();
  const SparseSystem<double> first = random_mna<double>(n, 500 + n);
  SparseLu<double> lu(first.pattern);
  const std::vector<double> b = random_rhs<double>(n, 600 + n);
  expect_matches_dense(lu, first, b);
  for (std::uint64_t round = 1; round <= 3; ++round) {
    const SparseSystem<double> next = random_mna<double>(n, 500 + n, round);
    ASSERT_EQ(next.pattern.cols(), first.pattern.cols());
    expect_matches_dense(lu, next, b);
  }
  EXPECT_EQ(lu.factorizations(), 4);
  EXPECT_EQ(lu.reorders(), 0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SparseLuMna,
                         ::testing::Values(1, 2, 5, 23, 45, 88, 280));

TEST(SparseLu, MnaPatternStaysSparse) {
  // The n = 280 system carries about five entries per row; the Markowitz
  // order must keep the factors within a small multiple of that.
  const SparseSystem<double> sys = random_mna<double>(280, 380);
  SparseLu<double> lu(sys.pattern);
  ASSERT_TRUE(lu.factor(sys.values));
  EXPECT_LT(lu.factor_nnz(), 280 * 280 / 4);
}

TEST(SparseLu, CollapsedPivotForcesOneReorder) {
  // Both diagonal entries are the best first pivots; zeroing them leaves only
  // the off-diagonal pair, which the fixed order cannot use.
  SparseSystem<double> sys(2, {{0, 0}, {0, 1}, {1, 0}, {1, 1}});
  sys.at(0, 0) = 1.0;
  sys.at(0, 1) = 1e-6;
  sys.at(1, 0) = 1e-6;
  sys.at(1, 1) = 1.0;
  SparseLu<double> lu(sys.pattern);
  const std::vector<double> b{3.0, 7.0};
  expect_matches_dense(lu, sys, b);
  EXPECT_EQ(lu.reorders(), 0);

  sys.at(0, 0) = 0.0;
  sys.at(0, 1) = 1.0;
  sys.at(1, 0) = 1.0;
  sys.at(1, 1) = 0.0;
  expect_matches_dense(lu, sys, b);
  EXPECT_EQ(lu.reorders(), 1);
  // The new order holds for the same values.
  expect_matches_dense(lu, sys, b);
  EXPECT_EQ(lu.reorders(), 1);
  EXPECT_EQ(lu.factorizations(), 3);
}

/// Sparse and dense must both call the system singular.
void expect_both_singular(const SparseSystem<double>& sys) {
  std::vector<double> x;
  const std::vector<double> b(static_cast<std::size_t>(sys.pattern.size()), 1.0);
  EXPECT_FALSE(solve(sys.dense(), b, x));
  SparseLu<double> lu(sys.pattern);
  EXPECT_FALSE(lu.factor(sys.values));
  EXPECT_THROW(lu.solve(b, x), InvalidArgumentError);
}

TEST(SparseLu, SingularAllZero) {
  expect_both_singular(SparseSystem<double>(3, {{0, 0}, {1, 1}, {2, 2}, {0, 2}}));
}

TEST(SparseLu, SingularRankOne) {
  SparseSystem<double> sys(2, {{0, 0}, {0, 1}, {1, 0}, {1, 1}});
  sys.at(0, 0) = 1;
  sys.at(0, 1) = 2;
  sys.at(1, 0) = 2;
  sys.at(1, 1) = 4;
  expect_both_singular(sys);
}

TEST(SparseLu, SingularFloatingNodeWithoutGmin) {
  // Node 0 is driven by a source (branch 3) and tied to node 1 by a
  // resistor; node 2 hangs off a capacitor, which stamps nothing at DC.
  SparseSystem<double> sys(4, {{0, 0}, {0, 1}, {1, 0}, {1, 1}, {1, 2},
                               {2, 1}, {2, 2}, {0, 3}, {3, 0}});
  const double g = 1e-3;
  sys.at(0, 0) = g;
  sys.at(1, 1) = g + 1e-4;  // node 1 also has a resistor to ground
  sys.at(0, 1) = -g;
  sys.at(1, 0) = -g;
  sys.at(0, 3) = 1.0;
  sys.at(3, 0) = 1.0;
  expect_both_singular(sys);
}

TEST(SparseLu, SingularVoltageSourceLoop) {
  // Two sources in parallel from node 0 to ground: identical branch rows.
  SparseSystem<double> sys(3, {{0, 0}, {0, 1}, {0, 2}, {1, 0}, {2, 0}});
  sys.at(0, 0) = 1e-3;
  sys.at(0, 1) = 1.0;
  sys.at(0, 2) = 1.0;
  sys.at(1, 0) = 1.0;
  sys.at(2, 0) = 1.0;
  expect_both_singular(sys);
}

TEST(SparsePattern, SlotsMergeDuplicatesAndSkipGround) {
  const SparsePattern p(3, {{2, 1}, {0, 0}, {2, 1}, {1, 2}});
  EXPECT_EQ(p.size(), 3);
  EXPECT_EQ(p.nnz(), 3);
  EXPECT_EQ(p.slot(0, 0), 0);
  EXPECT_EQ(p.slot(1, 2), 1);
  EXPECT_EQ(p.slot(2, 1), 2);
  EXPECT_EQ(p.slot(-1, 1), -1);
  EXPECT_EQ(p.slot(1, -1), -1);
  EXPECT_THROW(p.slot(1, 1), InvalidArgumentError);
}

}  // namespace
}  // namespace olp::linalg
