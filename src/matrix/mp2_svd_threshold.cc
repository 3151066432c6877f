#include "matrix/mp2_svd_threshold.h"

#include <algorithm>
#include <cmath>

#include "linalg/jacobi_eigen.h"
#include "linalg/kernels.h"
#include "linalg/svd.h"
#include "linalg/vec_ops.h"
#include "util/check.h"

namespace dmt {
namespace matrix {

MP2SvdThreshold::MP2SvdThreshold(size_t num_sites, double eps)
    : MatrixProtocolCore(num_sites), eps_(eps), sites_(num_sites) {
  DMT_CHECK_GT(eps, 0.0);
  DMT_CHECK_LE(eps, 1.0);
}

void MP2SvdThreshold::EnsureDim(const std::vector<double>& row) {
  // call_once doubles as the memory fence that publishes dim_ and the
  // per-site matrices to every site thread.
  std::call_once(dim_once_, [this, &row] {
    dim_ = row.size();
    coord_gram_ = linalg::Matrix(dim_, dim_);
    for (auto& st : sites_) {
      st.gram = linalg::Matrix(dim_, dim_);
    }
  });
  DMT_CHECK_EQ(row.size(), dim_);
}

void MP2SvdThreshold::SiteStep(size_t site, const std::vector<double>& row) {
  DMT_CHECK_LT(site, sites_.size());
  EnsureDim(row);
  const double w = linalg::SquaredNorm(row);

  // Scalar total-mass report (Algorithm 5.3, first branch). Bootstrap:
  // F-hat == 0 makes the threshold 0, so the first row reports at once.
  SiteState& st = sites_[site];
  const double m = static_cast<double>(num_sites());
  st.scalar_counter += w;
  if (st.scalar_counter >= (eps_ / m) * view(site)) {
    Emit(site, MP2Msg{true, st.scalar_counter, {}});
    st.scalar_counter = 0.0;
  }

  // On the serial path the report above is already delivered, so a
  // broadcast it triggered raises this site's F-hat for the direction
  // threshold below — the paper's per-row schedule. In a window the
  // report waits in the outbox and the threshold keeps the F-hat of the
  // last drain — exactly what a real site knows before the next
  // broadcast arrives. A stale (smaller) F-hat only lowers the threshold,
  // which ships directions earlier: more communication, never more error
  // (the bound is one-sided).
  ElementPhase(site, row, w);
}

void MP2SvdThreshold::Apply(size_t, const MP2Msg& msg) {
  if (!msg.is_scalar) {
    // sigma * v arrives at the coordinator and is appended to B. A wire
    // coordinator never sees a raw row, so a direction may size the Gram.
    EnsureDim(msg.dir);
    coord_gram_.AddOuterProduct(msg.value, msg.dir);
    return;
  }
  coord_fest_ += msg.value;
  if (++scalar_msgs_since_broadcast_ >= num_sites()) {
    scalar_msgs_since_broadcast_ = 0;
    Broadcast(coord_fest_);
  }
}

void MP2SvdThreshold::ElementPhase(size_t site,
                                   const std::vector<double>& row,
                                   double w) {
  SiteState& st = sites_[site];
  const double m = static_cast<double>(num_sites());
  const double threshold = (eps_ / m) * view(site);
  if (threshold <= 0.0) {
    // Bootstrap: B_j is flushed every row, so the pending matrix is rank-1
    // and its only singular direction is the row itself. Ship it directly.
    if (w > 0.0) Emit(site, MP2Msg{false, 1.0, row});
    return;
  }

  // Rank-1 fast path: with an empty buffer, B_j = [a] and its only
  // singular direction is the row itself; if it already crosses the
  // threshold the paper's algorithm ships it and leaves B_j empty again.
  // This is the dominant regime at small eps (threshold below typical row
  // norms) and costs O(d) instead of a decomposition.
  if (st.trace == 0.0 && w >= threshold) {
    Emit(site, MP2Msg{false, 1.0, row});
    return;
  }

  // Append the row: one symmetric rank-1 update on the raw Gram.
  st.gram.AddOuterProduct(1.0, row);
  st.trace += w;
  if (st.trace >= threshold && st.trace >= st.next_check) {
    MaybeSendDirections(site);
  }
}

void MP2SvdThreshold::MaybeSendDirections(size_t site) {
  SiteState& st = sites_[site];
  const double m = static_cast<double>(num_sites());
  const double threshold = (eps_ / m) * view(site);
  decompositions_.fetch_add(1, std::memory_order_relaxed);
  const size_t d = dim_;

  // Exact trace from the diagonal (the incrementally-maintained st.trace
  // may carry drift; the certificate below needs the real thing).
  double trace = 0.0;
  for (size_t i = 0; i < d; ++i) trace += st.gram(i, i);

  // Partial Lanczos solve with a trace certificate, k growing
  // geometrically: every eigenvalue >= threshold is provably among the
  // computed pairs once (a) the smallest computed Ritz value is below the
  // threshold and (b) the spectrum mass not captured by the computed
  // pairs — at most trace minus the captured Ritz sum, plus the solver's
  // residual coupling — is below it too.
  bool solved = false;
  size_t count = 0;       // computed pairs in st.vals / st.vecs rows
  double leftover = 0.0;  // bound on the un-computed spectrum mass
  double slack = 0.0;     // Ritz-value accuracy + trace roundoff
  size_t k = std::min(d, size_t{4});
  while (true) {
    linalg::LanczosOptions opts;
    // Tight: the shipped pairs are also the deflation directions, and
    // their residuals accumulate in the site Gram across checks — keep
    // that drift far below any plausible threshold margin.
    opts.tol = 1e-13;
    if (st.seed.size() == d) opts.seed = st.seed.data();
    linalg::LanczosInfo info =
        st.solver.TopKOfGram(st.gram, k, &st.vals, &st.vecs, opts);
    if (!info.converged) break;  // exact fallback below
    double captured = 0.0;
    for (size_t i = 0; i < k; ++i) captured += st.vals[i];
    leftover = std::max(0.0, trace - captured);
    slack = info.residual_bound + 1e-9 * std::fabs(trace);
    if ((st.vals[k - 1] < threshold && leftover + slack < threshold) ||
        k == d) {
      if (k == d) leftover = 0.0;  // full space computed
      count = k;
      solved = true;
      break;
    }
    // Flat spectra would need k ~ d for the certificate; one exact
    // decomposition is cheaper than Rayleigh-Ritz on most of R^d.
    if (k >= (d + 1) / 2) break;
    k = std::min(d, 2 * k);
  }

  if (!solved) {
    linalg::EigenDecomposition e = linalg::SymmetricEigen(st.gram);
    count = d;
    leftover = 0.0;
    slack = 1e-9 * std::fabs(trace);
    st.vals.assign(e.eigenvalues.begin(), e.eigenvalues.end());
    if (st.vecs.rows() != d || st.vecs.cols() != d) {
      st.vecs = linalg::Matrix(d, d);
    }
    for (size_t i = 0; i < d; ++i) {
      for (size_t j = 0; j < d; ++j) st.vecs(i, j) = e.eigenvectors(j, i);
    }
  }

  // Ship every direction at or above the threshold, then remove them from
  // the Gram in one batched rank-1 pass — exactly the paper's
  // "set sigma_l = 0; B_j = U Sigma V^T".
  size_t shipped = 0;
  for (size_t i = 0; i < count; ++i) {
    const double lam = st.vals[i];
    if (lam < threshold || lam <= 0.0) break;  // sorted descending
    Emit(site, MP2Msg{false, lam, std::vector<double>(st.vecs.Row(i),
                                                      st.vecs.Row(i) + d)});
    ++shipped;
  }
  if (shipped > 0) {
    std::vector<double> neg(shipped);
    for (size_t i = 0; i < shipped; ++i) neg[i] = -st.vals[i];
    linalg::kernels::BatchedRank1(st.vecs.Row(0), neg.data(), shipped, d,
                                  st.gram.Row(0));
  }

  // Certified bound on the remaining lambda_max: the leading un-shipped
  // Ritz value within the computed subspace, or the un-computed remainder
  // of the trace, whichever is larger — plus the accuracy slack. No kept
  // direction can reach the threshold before the trace has grown by the
  // remaining gap (a row raises lambda_max by at most its norm).
  double kept_trace = 0.0;
  for (size_t i = 0; i < d; ++i) {
    kept_trace += std::max(st.gram(i, i), 0.0);
  }
  st.trace = kept_trace;
  const double remaining_top =
      shipped < count ? std::max(0.0, st.vals[shipped]) : 0.0;
  const double bound = std::max(remaining_top, leftover) + slack;
  st.next_check = st.trace + (threshold - bound);
  // Warm-start the next check from the leading remaining direction.
  if (shipped < count) {
    st.seed.assign(st.vecs.Row(shipped), st.vecs.Row(shipped) + d);
  }
}

linalg::Matrix MP2SvdThreshold::CoordinatorSketch() const {
  linalg::Matrix b(0, dim_);
  if (dim_ == 0) return b;
  linalg::RightSingular rs = linalg::RightSingularFromGram(coord_gram_);
  for (size_t i = 0; i < rs.squared_sigma.size(); ++i) {
    if (rs.squared_sigma[i] <= 0.0) break;
    const double s = std::sqrt(rs.squared_sigma[i]);
    std::vector<double> row(dim_);
    for (size_t j = 0; j < dim_; ++j) row[j] = s * rs.v(j, i);
    b.AppendRow(row);
  }
  return b;
}

}  // namespace matrix
}  // namespace dmt
