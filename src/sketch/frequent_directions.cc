#include "sketch/frequent_directions.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "linalg/jacobi_eigen.h"
#include "linalg/kernels.h"
#include "linalg/vec_ops.h"
#include "util/check.h"
#include "util/contracts.h"
#include "util/env.h"

namespace dmt {
namespace sketch {

FrequentDirections::FrequentDirections(size_t ell, size_t dim)
    : ell_(ell), dim_(dim), backend_(DefaultShrinkBackend()) {
  DMT_CHECK_GE(ell, 1u);
}

FdShrinkBackend FrequentDirections::DefaultShrinkBackend() {
  static const FdShrinkBackend def =
      GetEnvString("DMT_FD_BACKEND", "lanczos") == "jacobi"
          ? FdShrinkBackend::kJacobi
          : FdShrinkBackend::kLanczos;
  return def;
}

FrequentDirections FrequentDirections::WithEpsilon(double eps, size_t dim) {
  DMT_CHECK_GT(eps, 0.0);
  return FrequentDirections(static_cast<size_t>(std::ceil(1.0 / eps)), dim);
}

void FrequentDirections::Append(const std::vector<double>& row) {
  Append(row.data(), row.size());
}

void FrequentDirections::Append(const double* row, size_t n) {
  if (dim_ == 0) dim_ = n;
  DMT_CHECK_EQ(n, dim_);
  buffer_.AppendRow(row, n);
  stream_sq_frob_ += linalg::SquaredNorm(row, n);
  ShrinkIfNeeded();
}

DMT_NO_ALLOC
void FrequentDirections::AppendRows(const linalg::Matrix& rows) {
  if (rows.rows() == 0) return;
  if (dim_ == 0) dim_ = rows.cols();
  DMT_CHECK_EQ(rows.cols(), dim_);
  if (&rows == &buffer_) {
    AppendOwnRows();
    return;
  }
  EnsureShrinkWorkspace();
  const size_t n = rows.rows();
  for (size_t k = 0; k < n; ++k) {
    stream_sq_frob_ += linalg::SquaredNorm(rows.Row(k), dim_);
  }
  if (UsesDenseShrink(ell_, dim_) && buffer_.rows() + n >= 2 * ell_) {
    // Dense route: the shrink's Gram is d x d whatever the row count, so
    // the whole block costs one solve. The Gram of the buffer plus the
    // caller's rows is built in place of copying them into the buffer,
    // and one shrink leaves <= ell rows. The FD guarantee is unaffected:
    // the cutoff lambda_{ell+1} of the stacked rows C still satisfies
    // (ell+1) * delta <= ||C||_F^2 - ||B||_F^2 for any number of rows.
    Shrink(rows.Row(0), n);
    return;
  }
  // Lanczos route (or a block that stays under 2*ell rows): fill the
  // buffer to its full capacity between shrinks, so a block of n rows
  // costs ~n / (capacity - ell) shrinks instead of the row-at-a-time
  // n / ell. The buffer is the Lanczos operand, so rows are copied in;
  // each shrink's cutoff is the (ell+1)-th eigenvalue of whatever buffer
  // it compresses, and errors remain additive across shrinks.
  const size_t cap = BufferCapacityRows();
  size_t i = 0;
  while (i < n) {
    if (buffer_.rows() >= cap) Shrink();
    const size_t at = buffer_.rows();
    const size_t take = std::min(n - i, cap - at);
    buffer_.ResizeRows(at + take);  // within the reservation: no realloc
    std::copy(rows.Row(i), rows.Row(i) + take * dim_, buffer_.Row(at));
    i += take;
  }
  ShrinkIfNeeded();  // restore the < 2*ell streaming invariant
}

DMT_ALLOC_OK("self-append only: the rows are copied out before the buffer holding them is refilled and shrunk")
void FrequentDirections::AppendOwnRows() {
  const linalg::Matrix copy = buffer_;
  AppendRows(copy);
}

void FrequentDirections::Merge(const FrequentDirections& other) {
  DMT_CHECK_EQ(ell_, other.ell_);
  if (other.dim_ == 0) return;
  if (dim_ == 0) dim_ = other.dim_;
  DMT_CHECK_EQ(dim_, other.dim_);
  // Bulk-append the other sketch's rows, then shrink once. One shrink of
  // the (at most 4*ell-row) combined buffer restores the <= 2*ell
  // invariant, versus up to one shrink per ell_ appended rows on the
  // row-at-a-time path. The FD guarantee is unaffected: errors are
  // additive under merge and the single shrink's cutoff is accounted in
  // total_shrinkage_ as usual.
  //
  // Snapshots first: self-merge aliases other's counters with ours, and
  // ShrinkIfNeeded may bump total_shrinkage_. Matrix::AppendRows handles
  // the aliased-buffer case itself.
  const double other_sq_frob = other.stream_sq_frob_;
  const double other_shrinkage = other.total_shrinkage_;
  buffer_.AppendRows(other.buffer_);
  ShrinkIfNeeded();
  stream_sq_frob_ += other_sq_frob;
  total_shrinkage_ += other_shrinkage;
}

void FrequentDirections::ShrinkIfNeeded() {
  if (buffer_.rows() >= 2 * ell_) Shrink();
}

void FrequentDirections::Compress() {
  if (buffer_.rows() > ell_) Shrink();
}

void FrequentDirections::Reset() {
  buffer_.ClearRows();
  stream_sq_frob_ = 0.0;
  total_shrinkage_ = 0.0;
  shrink_count_ = 0;
  lanczos_fallbacks_ = 0;
  // A warm start would make the next shrink differ (in the last bits)
  // from a fresh sketch's; both backends cold-start instead.
  warm_seed_valid_ = false;
  jacobi_warm_valid_ = false;
}

DMT_ALLOC_OK("one-time Jacobi-path workspace setup, gated on jacobi_ready_")
void FrequentDirections::EnsureJacobiWorkspace() {
  if (jacobi_ready_) return;
  DMT_CHECK_GT(dim_, 0u);
  basis_ = linalg::Matrix(dim_, dim_);
  gram_work_ = linalg::Matrix(dim_, dim_);
  basis_work_ = linalg::Matrix(dim_, dim_);
  rotated_ = linalg::Matrix(0, dim_);
  rotated_.ReserveRows(BufferCapacityRows());
  diag_.assign(dim_, 0.0);
  order_.resize(dim_);
  jacobi_ready_ = true;
}

DMT_ALLOC_OK("one-time shrink workspace setup; no-op once buffer and seed have the sketch's shape")
void FrequentDirections::EnsureShrinkWorkspace() {
  // An empty buffer has no shape until its first row; give it dim_ columns
  // so the reservation below counts.
  if (buffer_.rows() == 0 && buffer_.cols() != dim_) {
    buffer_ = linalg::Matrix(0, dim_);
  }
  buffer_.ReserveRows(BufferCapacityRows());
  if (warm_seed_.size() != dim_) {
    warm_seed_.assign(dim_, 0.0);
    warm_seed_valid_ = false;
  }
}

DMT_ALLOC_OK("lazy d x d Gram workspace; dense-route shrinks pay for it, once")
void FrequentDirections::EnsureShrinkGram() {
  if (shrink_gram_.rows() != dim_) {
    shrink_gram_ = linalg::Matrix(dim_, dim_);
  }
}

DMT_NO_ALLOC
void FrequentDirections::Shrink(const double* extra, size_t extra_rows) {
  ++shrink_count_;
  DMT_CHECK_GT(dim_, 0u);
  EnsureShrinkWorkspace();
  if (backend_ == FdShrinkBackend::kJacobi) {
    ShrinkJacobi(extra, extra_rows);
    return;
  }
  if (!ShrinkTopK(extra, extra_rows)) {
    // Residual tolerance or QL iteration cap missed: rerun this shrink on
    // the exact reference path. The buffer is untouched until a solve
    // succeeds, so the rerun sees the same rows.
    ++lanczos_fallbacks_;
    ShrinkJacobi(extra, extra_rows);
  }
}

DMT_NO_ALLOC
bool FrequentDirections::ShrinkTopK(const double* extra, size_t extra_rows) {
  const size_t d = dim_;
  const size_t n = buffer_.rows();
  const size_t k = std::min(ell_ + 1, d);

  bool converged;
  if (UsesDenseShrink(ell_, d)) {
    // One blocked Gram build, then a dense tridiagonal QL solve of it.
    EnsureShrinkGram();
    linalg::kernels::Gram(buffer_.Row(0), n, d, shrink_gram_.Row(0));
    if (extra_rows > 0) {
      linalg::kernels::GramAccumulate(extra, extra_rows, d,
                                      shrink_gram_.Row(0));
    }
    converged = dense_solver_
                    .TopKOfGram(shrink_gram_, k, &eigenvalues_,
                                &eigenvectors_)
                    .converged;
  } else {
    // Lanczos on the rows directly (d > 6*ell >= n, so the buffer is
    // always wider than tall): each matvec is two GEMV-shaped passes,
    // y = B^T (B x), and the d x d Gram is never materialized.
    DMT_CHECK_LT(n, d);
    DMT_CHECK_EQ(extra_rows, 0u);
    // The solver's default tolerance: row matvecs stall a little above
    // 1e-11 relative, where a shrink would spend all its restarts and
    // then fall back to Jacobi.
    linalg::LanczosOptions opts;
    if (warm_seed_valid_) opts.seed = warm_seed_.data();
    converged = eigensolver_
                    .TopKOfRows(buffer_, k, &eigenvalues_, &eigenvectors_,
                                opts)
                    .converged;
  }
  if (!converged) return false;

  const double delta =
      ell_ < d ? std::max(0.0, eigenvalues_[ell_]) : 0.0;
  total_shrinkage_ += delta;

  size_t kept = 0;
  for (size_t i = 0; i < ell_ && i < d; ++i) {
    if (eigenvalues_[i] - delta <= 0.0) break;  // sorted descending
    kept = i + 1;
  }

  // Warm seed for the next shrink, captured before the rebuild below
  // (storage pre-sized by EnsureShrinkWorkspace, so this never allocates).
  std::copy(eigenvectors_.Row(0), eigenvectors_.Row(0) + d,
            warm_seed_.begin());
  warm_seed_valid_ = true;

  // A bulk shrink may keep more rows than the buffer holds; the rows are
  // rebuilt from eigenvectors_ below, so the grown rows' contents do not
  // matter (kept <= ell, within the reservation).
  if (kept > n) buffer_.ResizeRows(kept);
  for (size_t i = 0; i < kept; ++i) {
    // Clamp before the sqrt: near-tied lambda_ell ~ lambda_{ell+1} can
    // leave the difference a roundoff hair negative.
    const double lam = std::max(0.0, eigenvalues_[i] - delta);
    const double scale = std::sqrt(lam);
    const double* v = eigenvectors_.Row(i);
    double* row = buffer_.Row(i);
    for (size_t j = 0; j < d; ++j) row[j] = scale * v[j];
  }
  buffer_.ResizeRows(kept);
  jacobi_warm_valid_ = false;  // kept rows are no longer basis_ columns
  return true;
}

DMT_NO_ALLOC
void FrequentDirections::RotateIntoGram(const double* rows, size_t n) {
  const size_t d = dim_;
  const size_t chunk = BufferCapacityRows();  // rotated_'s reservation
  for (size_t i = 0; i < n; i += chunk) {
    const size_t take = std::min(chunk, n - i);
    rotated_.ResizeRows(take);
    linalg::kernels::Gemm(rows + i * d, basis_.Row(0), rotated_.Row(0), take,
                          d, d);
    linalg::kernels::GramAccumulate(rotated_.Row(0), take, d,
                                    gram_work_.Row(0));
  }
}

DMT_NO_ALLOC
void FrequentDirections::ShrinkJacobi(const double* extra,
                                      size_t extra_rows) {
  EnsureJacobiWorkspace();
  if (!jacobi_warm_valid_) {
    // Cold start: no rows are pre-diagonalized, the rotation basis is
    // fresh. The warm machinery below then rotates every buffer row in.
    basis_.SetZero();
    for (size_t i = 0; i < dim_; ++i) basis_(i, i) = 1.0;
    gram_work_.SetZero();
    kept_rows_ = 0;
    jacobi_warm_valid_ = true;
  }
  const size_t d = dim_;
  const size_t n = buffer_.rows();

  // Invariant on entry: buffer rows [0, kept_rows_) are exact scaled
  // eigenvectors of basis_, so their Gram in that basis is the diagonal
  // already stored in gram_work_. Only the rows appended since the last
  // shrink need to be rotated in — then a bulk shrink's rows, straight
  // from the caller — each as one blocked GEMM (R = New * V) plus one
  // blocked symmetric accumulation (G += R^T R) per rotated_-sized chunk.
  RotateIntoGram(buffer_.Row(kept_rows_), n - kept_rows_);
  RotateIntoGram(extra, extra_rows);

  // Warm-started cyclic Jacobi: the kept block is already diagonal, so
  // only couplings introduced by the new rows cost rotations. basis_
  // absorbs the rotations and stays the full eigenbasis.
  linalg::JacobiDiagonalizeInPlace(&gram_work_, &basis_);

  for (size_t i = 0; i < d; ++i) diag_[i] = gram_work_(i, i);
  std::iota(order_.begin(), order_.end(), size_t{0});
  std::sort(order_.begin(), order_.end(), [this](size_t x, size_t y) {
    // Index tie-break keeps the permutation deterministic under std::sort.
    if (diag_[x] != diag_[y]) return diag_[x] > diag_[y];
    return x < y;
  });

  // Cutoff: the (ell+1)-th largest eigenvalue of B^T B, clamped at 0
  // (trailing eigenvalues of a rank-deficient Gram are roundoff noise).
  const double delta =
      ell_ < d ? std::max(0.0, diag_[order_[ell_]]) : 0.0;
  total_shrinkage_ += delta;

  size_t kept = 0;
  for (size_t i = 0; i < ell_ && i < d; ++i) {
    if (diag_[order_[i]] - delta <= 0.0) break;  // sorted descending
    kept = i + 1;
  }

  // Rebuild the surviving rows in place: row i = sqrt(lambda_i - delta)
  // times eigenvector order_[i]. Safe because the source is basis_, not
  // the buffer (which a bulk shrink may first grow to kept <= ell rows,
  // within the reservation). The max() clamps the subtraction against
  // roundoff-negative differences (near-tied lambda_ell ~ lambda_{ell+1})
  // that would otherwise sqrt into NaN.
  if (kept > n) buffer_.ResizeRows(kept);
  for (size_t i = 0; i < kept; ++i) {
    const double scale = std::sqrt(std::max(0.0, diag_[order_[i]] - delta));
    const size_t c = order_[i];
    double* row = buffer_.Row(i);
    for (size_t j = 0; j < d; ++j) row[j] = scale * basis_(j, c);
  }
  buffer_.ResizeRows(kept);

  // Re-establish the invariant for the next warm start: permute the basis
  // columns into eigenvalue order (row i <-> column i) and store the
  // shrunk spectrum as the new diagonal Gram.
  for (size_t r = 0; r < d; ++r) {
    const double* src = basis_.Row(r);
    double* dst = basis_work_.Row(r);
    for (size_t i = 0; i < d; ++i) dst[i] = src[order_[i]];
  }
  std::swap(basis_, basis_work_);
  gram_work_.SetZero();
  for (size_t i = 0; i < kept; ++i) {
    gram_work_(i, i) = std::max(0.0, diag_[order_[i]] - delta);
  }
  kept_rows_ = kept;

  // Keep the Lanczos warm seed fresh too, so switching backends
  // mid-stream still warm-starts (column 0 of the permuted basis is the
  // leading eigenvector; storage pre-sized by EnsureShrinkWorkspace).
  for (size_t r = 0; r < d; ++r) warm_seed_[r] = basis_(r, 0);
  warm_seed_valid_ = true;
}

double FrequentDirections::SquaredNormAlong(
    const std::vector<double>& x) const {
  if (buffer_.rows() == 0) return 0.0;
  return buffer_.SquaredNormAlong(x);
}

}  // namespace sketch
}  // namespace dmt
