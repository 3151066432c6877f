// Matrix Protocol 1: batched Frequent Directions (paper Algorithms
// 5.1 / 5.2) — the matrix analogue of heavy-hitter protocol P1.
//
// Each site runs FD with eps' = eps/2 and tracks F_i, the squared
// Frobenius mass received since its last flush. When F_i reaches
// (eps/2m) * F-hat the sketch is shipped (each sketch row is one vector
// message) and the site resets. The coordinator merges received sketches
// into one FD sketch (mergeability keeps the bound) and re-broadcasts
// F-hat on (1 + eps/2)-factor growth. A row with zero squared norm
// carries no mass and is dropped at the site: it never flushes.
//
// Outbox and drain. A flush appends the site sketch's rows to the site's
// flat outbox (one row matrix per site, plus F_i per flush) and resets
// the site sketch in place, keeping its workspaces. The drain applies
// each flush's scalar half (F_C += F_i, the F-hat broadcast test) in
// ascending-site emission order, but folds the rows of every drained site
// into the coordinator sketch as one block through FD's bulk AppendRows.
// At MP1's shapes (6*ell >= d, e.g. ell = 20, d = 44 on PAMAP) that is
// FD's dense route, where the whole block costs one shrink: one Gram of
// the sketch plus the block, one eigensolve per drain. Wider shapes take
// the Lanczos route, which fills to 4*ell rows between shrinks.
// Mergeability makes the grouping free: the coordinator sketch satisfies
// the same bound however the shipped rows are batched. Synchronize()/SynchronizeSites() end with
// a Compress(), so between windows the coordinator sketch holds at most
// ell rows; the per-row ProcessRow() path skips that final shrink.
//
// Guarantee: |‖Ax‖² − ‖Bx‖²| ≤ ε‖A‖²_F with O((m/ε²) log(βN)) rows of
// communication.
#ifndef DMT_MATRIX_MP1_BATCHED_FD_H_
#define DMT_MATRIX_MP1_BATCHED_FD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "matrix/matrix_protocol.h"
#include "sketch/frequent_directions.h"
#include "stream/network.h"

namespace dmt {
namespace matrix {

/// Deterministic batched-FD protocol (MP1).
class MP1BatchedFD : public MatrixTrackingProtocol {
 public:
  MP1BatchedFD(size_t num_sites, double eps);

  void ProcessRow(size_t site, const std::vector<double>& row) override;
  void SiteUpdate(size_t site, const std::vector<double>& row) override;
  void Synchronize() override;
  void SynchronizeSites(const uint32_t* sites, size_t count) override;
  bool SupportsTargetedDrain() const override { return true; }
  size_t PendingOutboxSize(size_t site) const override {
    return outbox_[site].frobs.size();
  }
  bool SupportsConcurrentSiteUpdates() const override { return true; }
  linalg::Matrix CoordinatorSketch() const override;
  const stream::CommStats& comm_stats() const override;
  std::vector<uint64_t> per_site_messages() const override {
    return network_.per_site_up();
  }
  std::string name() const override { return "P1"; }

  double coordinator_frobenius() const { return coordinator_frob_; }

 private:
  /// A site's shipped flushes awaiting coordinator delivery, in emission
  /// order: every flushed sketch's rows back to back, and each flush's
  /// squared Frobenius mass F_i. Cleared, not freed, by the drain.
  struct Outbox {
    linalg::Matrix rows;
    std::vector<double> frobs;
  };

  // Site half of a flush (messages + outbox + site reset).
  void EmitFlush(size_t site);
  // Coordinator half of one site's queued flushes, in emission order:
  // F_C and broadcasts per flush, rows staged into drained_rows_.
  void DrainSite(size_t site);
  // Appends one site's shipped rows to drained_rows_.
  void StageRows(const linalg::Matrix& rows);
  // Folds the staged rows into the coordinator sketch in one bulk append.
  void FoldDrainedRows();

  double eps_;
  stream::Network network_;
  std::vector<sketch::FrequentDirections> site_sketches_;
  std::vector<double> site_frob_;   // F_i since last flush
  std::vector<double> site_fest_;   // F-hat as known by each site
  std::vector<Outbox> outbox_;      // per-site
  linalg::Matrix drained_rows_;     // rows of the sites drained so far
  sketch::FrequentDirections coordinator_sketch_;
  double coordinator_frob_ = 0.0;   // F_C
  double broadcast_frob_ = 0.0;     // last broadcast F-hat
};

}  // namespace matrix
}  // namespace dmt

#endif  // DMT_MATRIX_MP1_BATCHED_FD_H_
