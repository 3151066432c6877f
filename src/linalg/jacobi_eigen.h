// Symmetric eigendecomposition via cyclic Jacobi rotations.
//
// Every decomposition in this library reduces to a small (d <= a few
// hundred) symmetric eigenproblem: Frequent Directions shrinks, protocol
// MP2's per-site direction checks, and the covariance-error metric all work
// on d x d Gram matrices. Jacobi is simple, unconditionally stable and
// cheap to warm-start (JacobiDiagonalizeInPlace), which is why it stays the
// exact reference and the warm-started FD reference backend. It is not
// fast from a cold start: at 44 x 44 one cold decomposition costs ~7x the
// Householder + QL solve of linalg/symmetric_eigen.h, which is what the
// default FD shrink uses once ell+1 pairs are a sixth of the spectrum.
#ifndef DMT_LINALG_JACOBI_EIGEN_H_
#define DMT_LINALG_JACOBI_EIGEN_H_

#include <cstddef>
#include <vector>

#include "linalg/matrix.h"

namespace dmt {
namespace linalg {

/// Result of a symmetric eigendecomposition: S = V diag(lambda) V^T.
struct EigenDecomposition {
  /// Eigenvalues in non-increasing order.
  std::vector<double> eigenvalues;
  /// Columns are the matching orthonormal eigenvectors (d x d).
  Matrix eigenvectors;

  /// Convenience: eigenvector i as a vector.
  std::vector<double> Eigenvector(size_t i) const {
    return eigenvectors.ColVector(i);
  }
};

/// Computes the full eigendecomposition of the symmetric matrix `s`.
///
/// `s` must be square and (numerically) symmetric; only the upper triangle
/// is trusted. Convergence: off-diagonal Frobenius mass below
/// `tol * ||S||_F`, default ~1e-14, or `max_sweeps` cyclic sweeps.
EigenDecomposition SymmetricEigen(const Matrix& s, double tol = 1e-14,
                                  int max_sweeps = 60);

/// Diagonalizes symmetric `g` in place by cyclic Jacobi, accumulating the
/// rotations into `v` (v <- v * J, so that v_in * g_in * v_in^T is
/// preserved). Returns the number of rotations applied.
///
/// This is the warm-start workhorse: callers that keep a matrix in its own
/// (approximate) eigenbasis pay only for the few rotations the new data
/// actually requires, instead of a full decomposition. Eigenvalues end up
/// on the diagonal of `g`, unsorted.
///
/// `ignore_below` enables *targeted* diagonalization: a rotation pair is
/// skipped when both of its rows have Gershgorin bound (diagonal plus
/// absolute off-diagonal row sum) below this value. By Gershgorin's
/// theorem no eigenvalue >= ignore_below can hide in skipped rows, so the
/// diagonal faithfully exposes every eigenvalue at or above the bound
/// while the (irrelevant) small-eigenvalue block is left un-diagonalized.
/// The matrix itself stays exact — skipping loses no information. Pass 0
/// (default) for a full diagonalization.
size_t JacobiDiagonalizeInPlace(Matrix* g, Matrix* v, double tol = 1e-14,
                                int max_sweeps = 60,
                                double ignore_below = 0.0);

/// Largest |eigenvalue| of symmetric `s` (i.e. the spectral norm).
double SpectralNormSymmetric(const Matrix& s);

}  // namespace linalg
}  // namespace dmt

#endif  // DMT_LINALG_JACOBI_EIGEN_H_
