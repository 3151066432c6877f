// FD shrink top-k solvers vs full Jacobi on the FD shrink shape, tracked
// as BENCH_partial_eigen.json.
//
// Usage: partial_eigen [output.json]
//   DMT_SCALE=small|default|paper selects the (ell, d) sweep; small keeps
//   the CI smoke run to the d=256 column plus the MP1 shape. Every scale
//   includes the MP1 shape (ell = 20, d = 44), so the gates below cover
//   both routes of the default shrink backend.
//
// Each point reports the route FrequentDirections takes for its (ell, d)
// ("route": "dense" or "lanczos"; FrequentDirections::UsesDenseShrink:
// dense when 6*ell >= d). Two comparisons per point:
//  * solver: top ell+1 eigenpairs of a 2*ell x d buffer's Gram on that
//    route — a blocked Gram build plus dense Householder + QL
//    (linalg/symmetric_eigen.h), or thick-restart Lanczos matvecs on the
//    rows (linalg/lanczos.h; the Gram is never materialized) — against
//    the full-spectrum route (blocked Gram build + Jacobi
//    SymmetricEigen), with the eigenvalue agreement reported and gated.
//    Like the FD shrink, both top-k routes reuse their solver and Gram
//    workspaces across calls.
//  * fd_stream: FrequentDirections streaming throughput with the default
//    shrink backend vs the Jacobi reference backend, with the final
//    covariance error of both sketches against the exact Gram — the two
//    must agree within 1e-8 (hard DMT_CHECK, every scale).
// The `lanczos_*` keys time the default backend
// (FdShrinkBackend::kLanczos) on whichever route it takes, so they stay
// comparable with recordings made before the dense route existed;
// `lanczos_matvecs` is 0 on the dense route and `ql_iterations` 0 on the
// Lanczos one. Times are bench::SecondsPerCall with a 0.1 s budget: a
// warm-up call, then the best batch; a call that alone exceeds 0.1 s is
// timed once.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "linalg/jacobi_eigen.h"
#include "linalg/kernels.h"
#include "linalg/lanczos.h"
#include "linalg/matrix.h"
#include "linalg/symmetric_eigen.h"
#include "matrix/error.h"
#include "sketch/frequent_directions.h"
#include "util/check.h"
#include "util/env.h"
#include "util/rng.h"

namespace {

using namespace dmt;

linalg::Matrix GaussianRows(size_t n, size_t d, Rng* rng) {
  linalg::Matrix a(n, d);
  for (size_t i = 0; i < n; ++i) {
    double* r = a.Row(i);
    for (size_t j = 0; j < d; ++j) r[j] = rng->NextGaussian();
  }
  return a;
}

constexpr double kBudget = 0.1;  // seconds per SecondsPerCall

const char* RouteName(size_t ell, size_t d) {
  return sketch::FrequentDirections::UsesDenseShrink(ell, d) ? "dense"
                                                             : "lanczos";
}

struct SolverPoint {
  size_t ell, d, rows, k;
  const char* route;
  double jacobi_seconds;
  double lanczos_seconds;  // default backend, either route
  double speedup;
  size_t lanczos_matvecs;  // 0 on the dense route
  size_t ql_iterations;    // 0 on the Lanczos route
  double rel_eig_diff;  // max |lambda_L - lambda_J| / lambda_1
};

SolverPoint MeasureSolver(size_t ell, size_t d, Rng* rng) {
  const size_t n = 2 * ell;  // the streaming shrink shape
  const size_t k = std::min(ell + 1, d);
  linalg::Matrix buffer = GaussianRows(n, d, rng);

  SolverPoint p{ell, d, n, k, RouteName(ell, d), 0.0, 0.0, 0.0, 0, 0, 0.0};

  // Full-spectrum reference: blocked Gram build + Jacobi, timed together
  // (that is what a full-decomposition shrink pays).
  linalg::EigenDecomposition full;
  p.jacobi_seconds = bench::SecondsPerCall(
      [&] {
        linalg::Matrix gram(d, d);
        linalg::kernels::Gram(buffer.Row(0), n, d, gram.Row(0));
        full = linalg::SymmetricEigen(gram);
      },
      kBudget);

  // The route the FD shrink takes, with what it pays per shrink: the
  // dense route builds the Gram into a reused workspace and solves it,
  // the Lanczos route matvecs on the rows (d > 6*ell > 2*ell rows).
  std::vector<double> vals;
  linalg::Matrix vecs;
  bool converged = false;
  if (sketch::FrequentDirections::UsesDenseShrink(ell, d)) {
    linalg::Matrix gram(d, d);
    linalg::SymmetricEigenSolver solver;
    p.lanczos_seconds = bench::SecondsPerCall(
        [&] {
          linalg::kernels::Gram(buffer.Row(0), n, d, gram.Row(0));
          const linalg::SymmetricEigenInfo info =
              solver.TopKOfGram(gram, k, &vals, &vecs);
          converged = info.converged;
          p.ql_iterations = info.ql_iterations;
        },
        kBudget);
  } else {
    DMT_CHECK_LT(n, d);
    linalg::LanczosSolver solver;
    const linalg::LanczosOptions opts;  // FD's shrink tolerance
    p.lanczos_seconds = bench::SecondsPerCall(
        [&] {
          const linalg::LanczosInfo info =
              solver.TopKOfRows(buffer, k, &vals, &vecs, opts);
          converged = info.converged;
          p.lanczos_matvecs = info.matvecs;
        },
        kBudget);
  }
  DMT_CHECK(converged);
  p.speedup = p.jacobi_seconds / p.lanczos_seconds;

  const double scale = std::max(full.eigenvalues.front(), 1e-300);
  for (size_t i = 0; i < k; ++i) {
    const double ref = std::max(0.0, full.eigenvalues[i]);
    p.rel_eig_diff =
        std::max(p.rel_eig_diff, std::fabs(vals[i] - ref) / scale);
  }
  return p;
}

struct StreamPoint {
  size_t ell, d, rows;
  const char* route;
  double jacobi_rows_per_sec;
  double lanczos_rows_per_sec;
  double speedup;
  size_t jacobi_shrinks, lanczos_shrinks;
  double cov_err_jacobi;
  double cov_err_lanczos;
  double abs_err_diff;
};

StreamPoint MeasureStream(size_t ell, size_t d, Rng* rng) {
  const size_t n = 8 * ell;  // enough rows for several shrinks
  linalg::Matrix a = GaussianRows(n, d, rng);
  matrix::CovarianceTracker truth(d);
  truth.AddRows(a);

  const auto run = [&](sketch::FdShrinkBackend backend, double* seconds,
                       size_t* shrinks) {
    sketch::FrequentDirections fd(ell, d);
    *seconds = bench::SecondsPerCall(
        [&] {
          fd = sketch::FrequentDirections(ell, d);
          fd.set_shrink_backend(backend);
          for (size_t i = 0; i < n; ++i) fd.Append(a.Row(i), d);
        },
        kBudget);
    *shrinks = fd.shrink_count();
    return matrix::CovarianceError(truth, fd.Gram());
  };

  StreamPoint p{ell, d, n, RouteName(ell, d), 0, 0, 0, 0, 0, 0, 0, 0};
  double sj = 0.0, sl = 0.0;
  p.cov_err_jacobi = run(sketch::FdShrinkBackend::kJacobi, &sj,
                         &p.jacobi_shrinks);
  p.cov_err_lanczos = run(sketch::FdShrinkBackend::kLanczos, &sl,
                          &p.lanczos_shrinks);
  p.jacobi_rows_per_sec = n / sj;
  p.lanczos_rows_per_sec = n / sl;
  p.speedup = sj / sl;
  p.abs_err_diff = std::fabs(p.cov_err_jacobi - p.cov_err_lanczos);
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--threads") {
      ++i;  // space-separated flag value is not the output path
      continue;
    }
    if (argv[i][0] != '-') out_path = argv[i];
  }

  const Scale scale = GetScale();
  std::vector<size_t> ells = {16, 64, 128, 256};
  std::vector<size_t> dims = {256, 1024};
  if (scale == Scale::kSmall) {
    ells = {16, 64};  // CI smoke: seconds, not minutes
    dims = {256};
  }
  // (ell, d) points: the sweep, then the MP1 shape (PAMAP, eps = 0.05)
  // at every scale. It goes last so the sweep points draw the same rows
  // from the Rng as they did before it was added.
  std::vector<std::pair<size_t, size_t>> points;
  for (size_t d : dims) {
    for (size_t ell : ells) points.emplace_back(ell, d);
  }
  points.emplace_back(20, 44);

  Rng rng(777);
  std::vector<SolverPoint> solver;
  std::vector<StreamPoint> streams;
  for (const auto& [ell, d] : points) {
    solver.push_back(MeasureSolver(ell, d, &rng));
    streams.push_back(MeasureStream(ell, d, &rng));
  }

  bench::EmitBenchJson(out_path, "partial_eigen", [&](FILE* f) {
    std::fprintf(f, "  \"solver\": [\n");
    for (size_t i = 0; i < solver.size(); ++i) {
      const SolverPoint& p = solver[i];
      std::fprintf(f,
                   "    {\"ell\": %zu, \"d\": %zu, \"rows\": %zu, "
                   "\"k\": %zu, \"route\": \"%s\", "
                   "\"jacobi_seconds\": %.6f, \"lanczos_seconds\": %.6f, "
                   "\"speedup\": %.3f, \"lanczos_matvecs\": %zu, "
                   "\"ql_iterations\": %zu, \"rel_eig_diff\": %.3e}%s\n",
                   p.ell, p.d, p.rows, p.k, p.route, p.jacobi_seconds,
                   p.lanczos_seconds, p.speedup, p.lanczos_matvecs,
                   p.ql_iterations, p.rel_eig_diff,
                   i + 1 < solver.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"fd_stream\": [\n");
    for (size_t i = 0; i < streams.size(); ++i) {
      const StreamPoint& p = streams[i];
      std::fprintf(
          f,
          "    {\"ell\": %zu, \"d\": %zu, \"rows\": %zu, "
          "\"route\": \"%s\", \"jacobi_rows_per_sec\": %.0f, "
          "\"lanczos_rows_per_sec\": %.0f, \"speedup\": %.3f, "
          "\"jacobi_shrinks\": %zu, \"lanczos_shrinks\": %zu, "
          "\"cov_err_jacobi\": %.10f, \"cov_err_lanczos\": %.10f, "
          "\"abs_err_diff\": %.3e}%s\n",
          p.ell, p.d, p.rows, p.route, p.jacobi_rows_per_sec,
          p.lanczos_rows_per_sec, p.speedup, p.jacobi_shrinks,
          p.lanczos_shrinks, p.cov_err_jacobi, p.cov_err_lanczos,
          p.abs_err_diff,
          i + 1 < streams.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n");
  });

  // Hard gates (every scale): the top-k solver must agree with the full
  // decomposition, and the default-backend FD must leave the covariance
  // error unchanged within 1e-8.
  for (const auto& p : solver) DMT_CHECK_LT(p.rel_eig_diff, 1e-9);
  for (const auto& p : streams) {
    DMT_CHECK_EQ(p.jacobi_shrinks, p.lanczos_shrinks);
    DMT_CHECK_LT(p.abs_err_diff, 1e-8);
  }
  return 0;
}
