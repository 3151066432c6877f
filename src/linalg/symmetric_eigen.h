// Dense symmetric eigensolver: Householder tridiagonalization followed by
// the implicit-shift QL iteration (the EISPACK tred2/tql2 pair; Wilkinson
// & Reinsch, Handbook for Automatic Computation II, 1971).
//
// This is the solver for top-k problems where k is not a small part of
// d: a Frequent Directions shrink asks for the top ell+1 pairs, and the
// Lanczos cost grows with them (once its basis min(2(ell+1)+8, d) spans
// R^d it builds a basis of the whole space and diagonalizes the full
// projected matrix anyway). Reducing the matrix to tridiagonal form once
// and chasing implicit QL shifts is O(d^3) with small constants and no
// reorthogonalization, whatever k is; at d = 44 it is 6-7x faster than
// either Lanczos or a cold cyclic Jacobi, and FD uses it from
// ell ~ d/6 on (BENCH_partial_eigen.json).
//
// Both phases sweep contiguous rows: the accumulated transform is kept
// transposed, so every Givens rotation of the QL phase updates two
// adjacent rows and the returned eigenvectors are rows, not columns.
//
// Determinism: no RNG and no data-dependent ordering beyond the sort's
// index tie-break, so a solve is a pure function of the input matrix,
// whatever the workspace solved before.
#ifndef DMT_LINALG_SYMMETRIC_EIGEN_H_
#define DMT_LINALG_SYMMETRIC_EIGEN_H_

#include <cstddef>
#include <vector>

#include "linalg/matrix.h"

namespace dmt {
namespace linalg {

struct SymmetricEigenInfo {
  /// False when some eigenvalue needed more than kMaxQlIterations QL
  /// sweeps (never observed on finite input; callers fall back to Jacobi).
  bool converged = false;
  /// Implicit QL sweeps over all eigenvalues.
  size_t ql_iterations = 0;
};

/// Reusable dense solver. The d x d transform and the tridiagonal
/// scratch persist across calls, so steady-state solves of a fixed d do
/// not allocate.
class SymmetricEigenSolver {
 public:
  /// EISPACK's per-eigenvalue QL iteration cap.
  static constexpr size_t kMaxQlIterations = 30;

  /// Top-k eigenpairs of the symmetric matrix `s` (d x d; only its upper
  /// triangle is read). Same output contract as
  /// LanczosSolver::TopKOfGram: `eigenvalues` holds min(k, d) values in
  /// non-increasing order (ties broken by the index QL left them at), and
  /// row i of `eigenvectors` (min(k, d) x d) is the matching unit
  /// eigenvector; the rows are orthonormal.
  SymmetricEigenInfo TopKOfGram(const Matrix& s, size_t k,
                                std::vector<double>* eigenvalues,
                                Matrix* eigenvectors);

 private:
  void EnsureWorkspace(size_t d);
  static void SizeOutputs(size_t need, size_t d,
                          std::vector<double>* eigenvalues,
                          Matrix* eigenvectors);
  void Tridiagonalize(size_t n);
  bool DiagonalizeTridiagonal(size_t n, size_t* iterations);

  Matrix z_;                   // transposed accumulated transform (d x d)
  std::vector<double> diag_;   // tridiagonal diagonal, then eigenvalues
  std::vector<double> off_;    // tridiagonal off-diagonal
  std::vector<size_t> order_;  // descending sort permutation
};

}  // namespace linalg
}  // namespace dmt

#endif  // DMT_LINALG_SYMMETRIC_EIGEN_H_
