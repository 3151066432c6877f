#include "linalg/symmetric_eigen.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "util/check.h"
#include "util/contracts.h"

namespace dmt {
namespace linalg {

DMT_ALLOC_OK("one-time workspace setup; reallocates only when d changes")
void SymmetricEigenSolver::EnsureWorkspace(size_t d) {
  if (z_.rows() != d) z_ = Matrix(d, d);
  if (diag_.size() != d) {
    diag_.resize(d);
    off_.resize(d);
    order_.resize(d);
  }
}

DMT_ALLOC_OK("caller-visible output sizing; no-op when outputs already have the solve's shape")
void SymmetricEigenSolver::SizeOutputs(size_t need, size_t d,
                                       std::vector<double>* eigenvalues,
                                       Matrix* eigenvectors) {
  eigenvalues->assign(need, 0.0);
  if (eigenvectors->rows() != need || eigenvectors->cols() != d) {
    *eigenvectors = Matrix(need, d);
  }
}

// Householder reduction of z_ (holding the input) to tridiagonal form
// (tred2). Afterwards diag_/off_ hold the tridiagonal (off_[i] couples
// i-1 and i) and z_ holds Q^T, where input = Q T Q^T. The EISPACK
// routine works on the lower triangle of a column-major V; z_ is V^T, so
// every inner loop below walks a contiguous row.
DMT_NO_ALLOC
void SymmetricEigenSolver::Tridiagonalize(size_t n) {
  double* d = diag_.data();
  double* e = off_.data();
  Matrix& z = z_;
  for (size_t j = 0; j < n; ++j) d[j] = z(j, n - 1);

  for (size_t i = n - 1; i > 0; --i) {
    // Scale the row to avoid under/overflow in the Householder norm.
    double scale = 0.0;
    double h = 0.0;
    for (size_t k = 0; k < i; ++k) scale += std::fabs(d[k]);
    if (scale == 0.0) {
      e[i] = d[i - 1];
      for (size_t j = 0; j < i; ++j) {
        d[j] = z(j, i - 1);
        z(j, i) = 0.0;
        z(i, j) = 0.0;
      }
    } else {
      // Householder vector u (in d[0, i)) with H = I - u u^T / h.
      for (size_t k = 0; k < i; ++k) {
        d[k] /= scale;
        h += d[k] * d[k];
      }
      double f = d[i - 1];
      double g = std::sqrt(h);
      if (f > 0.0) g = -g;
      e[i] = scale * g;
      h -= f * g;
      d[i - 1] = f - g;
      for (size_t j = 0; j < i; ++j) e[j] = 0.0;

      // e = A u (the leading i x i block, upper triangle of z).
      for (size_t j = 0; j < i; ++j) {
        f = d[j];
        z(i, j) = f;
        const double* zj = z.Row(j);
        g = e[j] + zj[j] * f;
        for (size_t k = j + 1; k < i; ++k) {
          g += zj[k] * d[k];
          e[k] += zj[k] * f;
        }
        e[j] = g;
      }
      // p = A u / h, K = u^T p / 2h, q = p - K u.
      f = 0.0;
      for (size_t j = 0; j < i; ++j) {
        e[j] /= h;
        f += e[j] * d[j];
      }
      const double hh = f / (h + h);
      for (size_t j = 0; j < i; ++j) e[j] -= hh * d[j];
      // A <- A - q u^T - u q^T on the leading block.
      for (size_t j = 0; j < i; ++j) {
        f = d[j];
        g = e[j];
        double* zj = z.Row(j);
        for (size_t k = j; k < i; ++k) zj[k] -= f * e[k] + g * d[k];
        d[j] = zj[i - 1];
        zj[i] = 0.0;
      }
    }
    d[i] = h;
  }

  // Accumulate the Householder reflections into Q^T.
  for (size_t i = 0; i + 1 < n; ++i) {
    double* zi = z.Row(i);
    z(i, n - 1) = zi[i];
    zi[i] = 1.0;
    const double h = d[i + 1];
    double* u = z.Row(i + 1);
    if (h != 0.0) {
      for (size_t k = 0; k <= i; ++k) d[k] = u[k] / h;
      for (size_t j = 0; j <= i; ++j) {
        double* zj = z.Row(j);
        double g = 0.0;
        for (size_t k = 0; k <= i; ++k) g += u[k] * zj[k];
        for (size_t k = 0; k <= i; ++k) zj[k] -= g * d[k];
      }
    }
    for (size_t k = 0; k <= i; ++k) u[k] = 0.0;
  }
  for (size_t j = 0; j < n; ++j) {
    d[j] = z(j, n - 1);
    z(j, n - 1) = 0.0;
  }
  z(n - 1, n - 1) = 1.0;
  e[0] = 0.0;
}

// Implicit-shift QL on the tridiagonal (tql2), accumulating every Givens
// rotation into rows of z_. Returns false if some eigenvalue exceeds the
// iteration cap.
DMT_NO_ALLOC
bool SymmetricEigenSolver::DiagonalizeTridiagonal(size_t n,
                                                  size_t* iterations) {
  double* d = diag_.data();
  double* e = off_.data();
  for (size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

  constexpr double kEps = 0x1.0p-52;
  double f = 0.0;
  double tst1 = 0.0;
  for (size_t l = 0; l < n; ++l) {
    // Find the first negligible off-diagonal at or after l (e[n-1] = 0
    // ends the search).
    tst1 = std::max(tst1, std::fabs(d[l]) + std::fabs(e[l]));
    size_t m = l;
    while (m + 1 < n && std::fabs(e[m]) > kEps * tst1) ++m;

    if (m > l) {
      size_t iter = 0;
      do {
        if (++iter > kMaxQlIterations) return false;
        ++*iterations;
        // Wilkinson-style shift from the leading 2 x 2 block.
        double g = d[l];
        double p = (d[l + 1] - g) / (2.0 * e[l]);
        double r = std::hypot(p, 1.0);
        if (p < 0.0) r = -r;
        d[l] = e[l] / (p + r);
        d[l + 1] = e[l] * (p + r);
        const double dl1 = d[l + 1];
        double h = g - d[l];
        for (size_t i = l + 2; i < n; ++i) d[i] -= h;
        f += h;

        // Chase the bulge from m back up to l.
        p = d[m];
        double c = 1.0, c2 = 1.0, c3 = 1.0;
        const double el1 = e[l + 1];
        double s = 0.0, s2 = 0.0;
        for (size_t i = m; i-- > l;) {
          c3 = c2;
          c2 = c;
          s2 = s;
          g = c * e[i];
          h = c * p;
          r = std::hypot(p, e[i]);
          e[i + 1] = s * r;
          s = e[i] / r;
          c = p / r;
          p = c * d[i] - s * g;
          d[i + 1] = h + s * (c * g + s * d[i]);
          double* zi = z_.Row(i);
          double* zi1 = z_.Row(i + 1);
          for (size_t k = 0; k < n; ++k) {
            const double t = zi1[k];
            zi1[k] = s * zi[k] + c * t;
            zi[k] = c * zi[k] - s * t;
          }
        }
        p = -s * s2 * c3 * el1 * e[l] / dl1;
        e[l] = s * p;
        d[l] = c * p;
      } while (std::fabs(e[l]) > kEps * tst1);
    }
    d[l] += f;
    e[l] = 0.0;
  }
  return true;
}

DMT_NO_ALLOC
SymmetricEigenInfo SymmetricEigenSolver::TopKOfGram(
    const Matrix& s, size_t k, std::vector<double>* eigenvalues,
    Matrix* eigenvectors) {
  DMT_CHECK_EQ(s.rows(), s.cols());
  const size_t d = s.rows();
  SymmetricEigenInfo info;
  const size_t need = std::min(k, d);
  if (need == 0) {
    SizeOutputs(0, d, eigenvalues, eigenvectors);
    info.converged = true;
    return info;
  }
  EnsureWorkspace(d);
  std::memcpy(z_.Row(0), s.Row(0), d * d * sizeof(double));
  Tridiagonalize(d);
  if (!DiagonalizeTridiagonal(d, &info.ql_iterations)) return info;

  std::iota(order_.begin(), order_.end(), size_t{0});
  std::sort(order_.begin(), order_.end(), [this](size_t a, size_t b) {
    if (diag_[a] != diag_[b]) return diag_[a] > diag_[b];
    return a < b;  // deterministic tie-break
  });
  SizeOutputs(need, d, eigenvalues, eigenvectors);
  for (size_t i = 0; i < need; ++i) {
    (*eigenvalues)[i] = diag_[order_[i]];
    std::memcpy(eigenvectors->Row(i), z_.Row(order_[i]), d * sizeof(double));
  }
  info.converged = true;
  return info;
}

}  // namespace linalg
}  // namespace dmt
