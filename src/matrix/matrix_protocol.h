// Common interface for distributed matrix tracking protocols
// (paper Section 5 and Appendix C).
#ifndef DMT_MATRIX_MATRIX_PROTOCOL_H_
#define DMT_MATRIX_MATRIX_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "linalg/matrix.h"
#include "stream/protocol_core.h"

namespace dmt {
namespace matrix {

/// A distributed matrix tracking protocol: rows arrive at sites; the
/// coordinator continuously maintains a small approximation B of the
/// stacked stream matrix A.
///
/// Approximation contract (paper Section 5): at all times and for every
/// unit vector x,
///
///   |‖Ax‖² − ‖Bx‖²| ≤ ε‖A‖²_F,
///
/// equivalently ‖AᵀA − BᵀB‖₂ ≤ ε‖A‖²_F — the metric
/// matrix::CovarianceError reports as `err` (dimensionless, relative to
/// the stream's total squared Frobenius mass). The one-sided protocols
/// (MP1/MP2, built on Frequent Directions) additionally never
/// overestimate: 0 ≤ ‖Ax‖² − ‖Bx‖².
///
/// Row weights are squared Euclidean norms; the analysis assumes
/// ‖row‖² ∈ (0, β] with β known to all sites (datasets are normalized
/// to β = 100 — see docs/DATASETS.md). Communication is counted in
/// *messages* (stream::CommStats), the paper's unit: one site→coordinator
/// report or one coordinator→sites broadcast each count 1 per receiver.
class MatrixTrackingProtocol : public stream::Protocol {
 public:
  /// Processes one row arriving at `site`. Serial entry point: any
  /// triggered site->coordinator messages are delivered (and broadcasts
  /// applied) before this returns.
  virtual void ProcessRow(size_t site, const std::vector<double>& row) = 0;

  /// Site-local half of ProcessRow(): updates only state owned by `site`
  /// and queues outgoing messages in a per-site outbox for the next
  /// Synchronize(). When
  /// SupportsConcurrentSiteUpdates() is true, calls for *distinct* sites
  /// may run concurrently between two Synchronize() calls; calls for the
  /// same site must stay on one thread. Default: serial ProcessRow()
  /// (correct, but not concurrency-safe).
  virtual void SiteUpdate(size_t site, const std::vector<double>& row) {
    ProcessRow(site, row);
  }

  /// The coordinator's current approximation B (rows stacked; at most
  /// O(1/ε) rows of dimension d). Safe to call only between rounds /
  /// after the run, like comm_stats().
  virtual linalg::Matrix CoordinatorSketch() const = 0;

  /// B^T B. Default derives it from the sketch; protocols that maintain a
  /// Gram matrix directly override this with the cheaper exact path.
  virtual linalg::Matrix CoordinatorGram() const {
    return CoordinatorSketch().Gram();
  }

  /// Deep-copied coordinator sketch for the serving layer
  /// (serve::BuildSnapshot). The returned matrix must own every element —
  /// nothing may alias live protocol buffers, so a pinned snapshot stays
  /// bit-identical while ingestion continues. Same threading contract as
  /// CoordinatorSketch(): call only between rounds / after the run.
  /// Default: CoordinatorSketch(), which already returns by value.
  virtual linalg::Matrix ExportSnapshotSketch() const {
    return CoordinatorSketch();
  }

};

/// Base of the matrix protocols built on the message core
/// (stream/protocol_core.h): binds ProcessRow() and SiteUpdate() to
/// Derived::SiteStep(site, row).
template <typename Derived, typename Msg, typename Outbox = std::vector<Msg>>
class MatrixProtocolCore
    : public stream::ProtocolCore<Derived, MatrixTrackingProtocol, Msg,
                                  Outbox> {
 public:
  void ProcessRow(size_t site, const std::vector<double>& row) override {
    this->RunSerial(site, row);
  }
  void SiteUpdate(size_t site, const std::vector<double>& row) override {
    this->RunSite(site, row);
  }

 protected:
  using stream::ProtocolCore<Derived, MatrixTrackingProtocol, Msg,
                             Outbox>::ProtocolCore;
};

}  // namespace matrix
}  // namespace dmt

#endif  // DMT_MATRIX_MATRIX_PROTOCOL_H_
