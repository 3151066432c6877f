// Pins the dense Householder + implicit-QL top-k solver against the
// exact Jacobi route across adversarial spectra — diagonal, repeated and
// tied at the cutoff, rank-deficient, zero, indefinite and graded — at
// d = 1, 2, 44 and 256 with k = 1 and k = d, and checks that a reused
// workspace replays solves bit for bit.
#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/jacobi_eigen.h"
#include "linalg/matrix.h"
#include "linalg/spectral.h"
#include "linalg/symmetric_eigen.h"
#include "util/rng.h"

namespace dmt {
namespace linalg {
namespace {

// Q diag(lambda) Q^T for a deterministic random orthogonal Q, symmetrized
// exactly.
Matrix SymmetricWithSpectrum(const std::vector<double>& lambda,
                             uint64_t seed) {
  Rng rng(seed);
  const size_t d = lambda.size();
  Matrix q = RandomOrthogonalMatrix(d, &rng);
  Matrix s(d, d);
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = i; j < d; ++j) {
      double v = 0.0;
      for (size_t t = 0; t < d; ++t) v += q(i, t) * lambda[t] * q(j, t);
      s(i, j) = v;
      s(j, i) = v;
    }
  }
  return s;
}

std::vector<double> Flat(const Matrix& m) {
  if (m.rows() == 0) return {};
  return std::vector<double>(m.Row(0), m.Row(0) + m.rows() * m.cols());
}

double MaxAbsEigenvalue(const EigenDecomposition& ref) {
  double norm = 0.0;
  for (double l : ref.eigenvalues) norm = std::max(norm, std::fabs(l));
  return norm;
}

// Solves top-k of `s` densely and checks the full contract against the
// Jacobi reference `ref` of the same matrix: eigenvalue agreement and
// residual ||S v - lambda v|| within 1e-12 ||S||, orthonormal rows, and
// non-increasing order.
void ExpectTopKMatchesJacobi(const Matrix& s, const EigenDecomposition& ref,
                             size_t k, SymmetricEigenSolver* solver) {
  const size_t d = s.rows();
  std::vector<double> vals;
  Matrix vecs;
  const SymmetricEigenInfo info = solver->TopKOfGram(s, k, &vals, &vecs);
  ASSERT_TRUE(info.converged);
  const size_t need = std::min(k, d);
  ASSERT_EQ(vals.size(), need);
  ASSERT_EQ(vecs.rows(), need);
  ASSERT_EQ(vecs.cols(), d);
  const double norm = MaxAbsEigenvalue(ref);
  const double tol = 1e-12 * norm;
  for (size_t i = 0; i < need; ++i) {
    EXPECT_LE(std::fabs(vals[i] - ref.eigenvalues[i]), tol) << "i=" << i;
    if (i + 1 < need) {
      EXPECT_GE(vals[i], vals[i + 1]) << "i=" << i;
    }
    const double* v = vecs.Row(i);
    double resid_sq = 0.0;
    for (size_t r = 0; r < d; ++r) {
      double sv = 0.0;
      for (size_t c = 0; c < d; ++c) sv += s(r, c) * v[c];
      const double diff = sv - vals[i] * v[r];
      resid_sq += diff * diff;
    }
    EXPECT_LE(std::sqrt(resid_sq), tol) << "i=" << i;
    for (size_t j = 0; j <= i; ++j) {
      double dot = 0.0;
      for (size_t c = 0; c < d; ++c) dot += v[c] * vecs(j, c);
      EXPECT_NEAR(dot, i == j ? 1.0 : 0.0, 1e-12)
          << "i=" << i << " j=" << j;
    }
  }
}

void ExpectTopKMatchesJacobi(const Matrix& s, size_t k) {
  SymmetricEigenSolver solver;
  ExpectTopKMatchesJacobi(s, SymmetricEigen(s), k, &solver);
}

TEST(SymmetricEigenSolverTest, DiagonalMatrixKeepsIndexOrderOnTies) {
  // Eigenvalue 3 twice: the tie-break returns the lower index first.
  Matrix s(4, 4);
  s(0, 0) = 1.0;
  s(1, 1) = 3.0;
  s(2, 2) = 3.0;
  s(3, 3) = 2.0;
  SymmetricEigenSolver solver;
  std::vector<double> vals;
  Matrix vecs;
  ASSERT_TRUE(solver.TopKOfGram(s, 4, &vals, &vecs).converged);
  EXPECT_EQ(vals, (std::vector<double>{3.0, 3.0, 2.0, 1.0}));
  const size_t axis[4] = {1, 2, 3, 0};
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(std::fabs(vecs(i, axis[i])), 1.0) << "i=" << i;
  }
  ExpectTopKMatchesJacobi(s, 4);
  ExpectTopKMatchesJacobi(s, 1);
}

TEST(SymmetricEigenSolverTest, RepeatedEigenvaluesTiedAtTheCutoff) {
  // lambda_ell == lambda_{ell+1} for ell = 3 — the FD shrink's degenerate
  // cutoff — inside a larger repeated cluster.
  std::vector<double> lambda = {9.0, 7.0, 4.0, 4.0, 4.0, 1.0, 0.5, 0.25};
  Matrix s = SymmetricWithSpectrum(lambda, 3);
  ExpectTopKMatchesJacobi(s, 4);
  ExpectTopKMatchesJacobi(s, s.rows());
}

TEST(SymmetricEigenSolverTest, RankDeficientGram) {
  Rng rng(5);
  Matrix a = RandomGaussianMatrix(6, 20, &rng);  // A^T A has rank 6
  Matrix s = a.Gram();
  ExpectTopKMatchesJacobi(s, 10);
  ExpectTopKMatchesJacobi(s, s.rows());
}

TEST(SymmetricEigenSolverTest, AllZeroMatrix) {
  Matrix s(12, 12);
  SymmetricEigenSolver solver;
  std::vector<double> vals;
  Matrix vecs;
  ASSERT_TRUE(solver.TopKOfGram(s, 12, &vals, &vecs).converged);
  for (double v : vals) EXPECT_EQ(v, 0.0);
  ExpectTopKMatchesJacobi(s, 5);
  ExpectTopKMatchesJacobi(s, 12);
}

TEST(SymmetricEigenSolverTest, IndefiniteMatrixReturnsAlgebraicTop) {
  // lambda_max = 1 but |lambda_min| = 10: the top pair is the algebraic
  // maximum, not the magnitude maximum.
  std::vector<double> lambda = {1.0, 0.5, 0.0, -0.2, -4.0, -10.0};
  Matrix s = SymmetricWithSpectrum(lambda, 11);
  SymmetricEigenSolver solver;
  std::vector<double> vals;
  Matrix vecs;
  ASSERT_TRUE(solver.TopKOfGram(s, 1, &vals, &vecs).converged);
  EXPECT_NEAR(vals[0], 1.0, 1e-12 * 10.0);
  ExpectTopKMatchesJacobi(s, 1);
  ExpectTopKMatchesJacobi(s, s.rows());
}

TEST(SymmetricEigenSolverTest, GradedSpectrum) {
  // Eigenvalues log-spaced over twelve decades, 1e-12 ... 1.
  const size_t d = 25;
  std::vector<double> lambda(d);
  for (size_t i = 0; i < d; ++i) {
    lambda[i] = std::pow(10.0, -12.0 * static_cast<double>(i) / (d - 1));
  }
  Matrix s = SymmetricWithSpectrum(lambda, 13);
  ExpectTopKMatchesJacobi(s, 1);
  ExpectTopKMatchesJacobi(s, d);
}

TEST(SymmetricEigenSolverTest, TinyShapes) {
  Matrix one = Matrix::FromRows({{4.0}});
  ExpectTopKMatchesJacobi(one, 1);
  SymmetricEigenSolver solver;
  std::vector<double> vals;
  Matrix vecs;
  ASSERT_TRUE(solver.TopKOfGram(one, 3, &vals, &vecs).converged);
  ASSERT_EQ(vals.size(), 1u);  // k is clamped to d
  EXPECT_EQ(vals[0], 4.0);
  EXPECT_EQ(vecs(0, 0), 1.0);

  Matrix two = Matrix::FromRows({{2.0, 1.0}, {1.0, 2.0}});
  ExpectTopKMatchesJacobi(two, 1);
  ExpectTopKMatchesJacobi(two, 2);

  Matrix empty(0, 0);
  EXPECT_TRUE(solver.TopKOfGram(empty, 3, &vals, &vecs).converged);
  EXPECT_TRUE(vals.empty());
}

// The MP1 shrink shape: the Gram of a 40 x 44 buffer (rank 40) and of an
// 80 x 44 bulk buffer.
TEST(SymmetricEigenSolverTest, FdShrinkShapeD44) {
  Rng rng(17);
  for (size_t n : {40u, 80u}) {
    Matrix s = RandomGaussianMatrix(n, 44, &rng).Gram();
    SymmetricEigenSolver solver;
    const EigenDecomposition ref = SymmetricEigen(s);
    ExpectTopKMatchesJacobi(s, ref, 1, &solver);
    ExpectTopKMatchesJacobi(s, ref, 21, &solver);
    ExpectTopKMatchesJacobi(s, ref, 44, &solver);
  }
}

TEST(SymmetricEigenSolverTest, LargerShapeD256) {
  Rng rng(19);
  Matrix s = RandomGaussianMatrix(300, 256, &rng).Gram();
  SymmetricEigenSolver solver;
  const EigenDecomposition ref = SymmetricEigen(s);
  ExpectTopKMatchesJacobi(s, ref, 1, &solver);
  ExpectTopKMatchesJacobi(s, ref, 256, &solver);
}

// A solve is a pure function of the input: repeating it on the same
// workspace — also after the workspace solved a different shape — is bit
// for bit identical.
TEST(SymmetricEigenSolverTest, ReusedWorkspaceReplaysBitForBit) {
  Rng rng(23);
  Matrix s = RandomGaussianMatrix(40, 44, &rng).Gram();
  Matrix other = RandomGaussianMatrix(12, 10, &rng).Gram();
  SymmetricEigenSolver solver;
  std::vector<double> v1, v2, scratch;
  Matrix w1, w2, scratch_vecs;
  ASSERT_TRUE(solver.TopKOfGram(s, 21, &v1, &w1).converged);
  ASSERT_TRUE(solver.TopKOfGram(s, 21, &v2, &w2).converged);
  EXPECT_EQ(v1, v2);
  EXPECT_EQ(Flat(w1), Flat(w2));

  ASSERT_TRUE(
      solver.TopKOfGram(other, 10, &scratch, &scratch_vecs).converged);
  ASSERT_TRUE(solver.TopKOfGram(s, 21, &v2, &w2).converged);
  EXPECT_EQ(v1, v2);
  EXPECT_EQ(Flat(w1), Flat(w2));

  SymmetricEigenSolver fresh;
  ASSERT_TRUE(fresh.TopKOfGram(s, 21, &v2, &w2).converged);
  EXPECT_EQ(v1, v2);
  EXPECT_EQ(Flat(w1), Flat(w2));
}

}  // namespace
}  // namespace linalg
}  // namespace dmt
