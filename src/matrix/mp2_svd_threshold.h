// Matrix Protocol 2: deterministic SVD-threshold tracking (paper
// Algorithms 5.3 / 5.4) — the matrix analogue of heavy-hitter protocol P2
// and the paper's best deterministic method.
//
// Each site accumulates unsent rows in B_j and, whenever some direction of
// B_j carries squared norm >= (eps/m) * F-hat, ships that direction as one
// scaled singular vector sigma*v (removing it from B_j). Total squared
// Frobenius mass is tracked exactly like P2's scalar reports. The
// coordinator simply appends received directions to B.
//
// Guarantees (Theorem 4):
//   0 <= ‖Ax‖² − ‖Bx‖² <= ε‖A‖²_F  (one-sided: B never overestimates),
//   O((m/ε) log(βN)) messages.
//
// Implementation notes: B_j is represented exactly by its d x d Gram
// matrix G_j (appending a row and removing a singular direction are both
// exact Gram-level operations). Since appending row a raises the top
// eigenvalue by at most ‖a‖², no direction can cross the threshold until
// trace(G_j) does — and after a threshold check that ships nothing, not
// until the trace grows by another (threshold − bound) where `bound` is a
// certified upper bound on the remaining λ_max. This makes the per-row
// cost O(d²) amortized while sending *exactly* the same messages as the
// paper's per-row svd formulation.
//
// A threshold check only needs the eigenvalues at or above the threshold,
// so it runs on the partial Lanczos solver (linalg/lanczos.h): solve the
// top-k pairs (k grows geometrically from 4), ship every pair at or above
// the threshold, and deflate them from G_j with one batched rank-1 pass.
// The certificate that nothing send-worthy was missed comes from the
// exactly-known trace: the spectrum not captured by the returned Ritz
// pairs sums to at most trace(G_j) − Σθᵢ, so once that remainder (plus
// the solver's residual coupling bound) is below the threshold, every
// eigenvalue ≥ threshold is provably among the computed pairs. Streams
// with flat spectra, where k would have to approach d for that
// certificate, fall back to one exact Jacobi decomposition instead — the
// messages are identical either way.
#ifndef DMT_MATRIX_MP2_SVD_THRESHOLD_H_
#define DMT_MATRIX_MP2_SVD_THRESHOLD_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "linalg/lanczos.h"
#include "matrix/matrix_protocol.h"

namespace dmt {
namespace matrix {

/// One MP2 site->coordinator message: either a total-mass scalar report
/// (value = F_j) or a shipped direction (value = lambda, dir = v; the
/// coordinator appends sqrt(lambda) v to B, i.e. adds lambda * v v^T to
/// its Gram).
struct MP2Msg {
  bool is_scalar = true;
  double value = 0.0;
  std::vector<double> dir;
};

/// Deterministic SVD-threshold protocol (MP2).
class MP2SvdThreshold : public MatrixProtocolCore<MP2SvdThreshold, MP2Msg> {
 public:
  MP2SvdThreshold(size_t num_sites, double eps);

  /// Rows sqrt(lambda_i) v_i^T reconstructed from the coordinator's exact
  /// Gram of all received directions.
  linalg::Matrix CoordinatorSketch() const override;
  linalg::Matrix CoordinatorGram() const override { return coord_gram_; }
  std::string name() const override { return "P2"; }

  double coordinator_frobenius() const { return coord_fest_; }
  /// Threshold checks (partial or fallback eigensolves) across all sites
  /// (cost diagnostic).
  size_t decomposition_count() const {
    return decompositions_.load(std::memory_order_relaxed);
  }

 private:
  friend Core;

  // Each site keeps the Gram of its unsent rows in original coordinates;
  // appending a row is one symmetric rank-1 update and a threshold check
  // is a warm-seeded partial Lanczos solve (certified through the trace,
  // see the header comment). The messages produced are identical to
  // decomposing from scratch.
  struct SiteState {
    linalg::Matrix gram;        // B_j^T B_j
    double trace = 0.0;         // trace(gram) maintained incrementally
    double next_check = 0.0;    // no threshold check before this trace
    double scalar_counter = 0.0;// F_j for total-mass reports
    // Warm start and solver scratch; per-site so the concurrent
    // site phase never shares mutable state across sites.
    std::vector<double> seed;   // previous check's leading eigenvector
    linalg::LanczosSolver solver;
    std::vector<double> vals;
    linalg::Matrix vecs;
  };

  static stream::MessageCost Cost(const MP2Msg& msg) {
    return msg.is_scalar ? stream::MessageCost{1, 0, 0}
                         : stream::MessageCost{0, 0, 1};
  }
  template <typename IO, typename M>
  static bool Fields(IO& io, M& msg) {
    return io.Field(msg.is_scalar) && io.Field(msg.value) &&
           (msg.is_scalar || io.Row(msg.dir));
  }
  // A mass report is non-negative (a zero row reports 0 at bootstrap); a
  // shipped direction's lambda is positive.
  DMT_UNTRUSTED_INPUT
  bool Valid(const MP2Msg& msg) const {
    return msg.is_scalar ? msg.value >= 0.0 : msg.value > 0.0;
  }
  void SiteStep(size_t site, const std::vector<double>& row);
  void Apply(size_t site, const MP2Msg& msg);
  // Lazy structural init from the first row or delivered direction
  // (thread-safe via dim_once_).
  void EnsureDim(const std::vector<double>& row);
  // Direction shipping: the threshold checks of Algorithm 5.3.
  void ElementPhase(size_t site, const std::vector<double>& row, double w);
  void MaybeSendDirections(size_t site);

  double eps_;
  size_t dim_ = 0;
  std::once_flag dim_once_;
  std::vector<SiteState> sites_;
  linalg::Matrix coord_gram_;   // Gram of all received directions
  double coord_fest_ = 0.0;     // coordinator's F-hat
  size_t scalar_msgs_since_broadcast_ = 0;
  std::atomic<size_t> decompositions_{0};
};

}  // namespace matrix
}  // namespace dmt

#endif  // DMT_MATRIX_MP2_SVD_THRESHOLD_H_
