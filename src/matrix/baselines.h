// Centralized baselines: ship every row to the coordinator and summarize
// there. These are the "FD" and "SVD" rows of the paper's Table 1.
#ifndef DMT_MATRIX_BASELINES_H_
#define DMT_MATRIX_BASELINES_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "matrix/error.h"
#include "matrix/matrix_protocol.h"
#include "sketch/frequent_directions.h"

namespace dmt {
namespace matrix {

/// Shared by both baselines: every row travels to the coordinator as one
/// vector message, and each window's rows are folded in as one block.
template <typename Derived>
class ForwardAllRows
    : public MatrixProtocolCore<Derived, std::vector<double>> {
 protected:
  using MatrixProtocolCore<Derived, std::vector<double>>::MatrixProtocolCore;

  static stream::MessageCost Cost(const std::vector<double>&) {
    return stream::MessageCost{0, 0, 1};
  }
  template <typename IO, typename M>
  static bool Fields(IO& io, M& row) {
    return io.Row(row);
  }
  // Any finite row of the run's width (the reader checks both).
  bool Valid(const std::vector<double>&) const { return true; }
  void SiteStep(size_t site, const std::vector<double>& row) {
    this->Emit(site, row);
  }
  void Apply(size_t, const std::vector<double>& row) {
    window_rows_.AppendRow(row);
  }

  linalg::Matrix window_rows_;  // rows delivered since the last fold
};

/// Sends all rows; the coordinator runs a single Frequent Directions sketch
/// with `ell` rows (the paper uses ell = k, the target rank).
class NaiveFdBaseline : public ForwardAllRows<NaiveFdBaseline> {
 public:
  NaiveFdBaseline(size_t num_sites, size_t ell);

  /// The serial path appends the row through FD's streaming Append, not
  /// the end-of-window bulk AppendRows: a one-row bulk append that
  /// reaches 2*ell rows shrinks with the row read in place, which rounds
  /// differently from appending it to the buffer first.
  void ProcessRow(size_t site, const std::vector<double>& row) override;
  linalg::Matrix CoordinatorSketch() const override;
  std::string name() const override { return "FD"; }

 private:
  friend Core;

  // One bulk append per window: one shrink per buffer fill instead of one
  // per ell appended rows.
  void EndWindow();

  sketch::FrequentDirections fd_;
};

/// Sends all rows; the coordinator keeps the exact covariance and answers
/// with the best rank-k approximation (optimal, non-streaming reference).
class NaiveSvdBaseline : public ForwardAllRows<NaiveSvdBaseline> {
 public:
  NaiveSvdBaseline(size_t num_sites, size_t dim, size_t k);

  /// Rows sqrt(lambda_i) v_i^T for the top-k eigenpairs of A^T A: the
  /// unique B with B^T B = (A_k)^T A_k.
  linalg::Matrix CoordinatorSketch() const override;
  linalg::Matrix CoordinatorGram() const override;
  std::string name() const override { return "SVD"; }

 private:
  friend Core;

  // One blocked Gram accumulation per window instead of a rank-1 sweep
  // per row.
  void EndWindow();

  size_t k_;
  CovarianceTracker cov_;
};

}  // namespace matrix
}  // namespace dmt

#endif  // DMT_MATRIX_BASELINES_H_
