#include "matrix/mp1_batched_fd.h"

#include "linalg/vec_ops.h"
#include "util/check.h"
#include "util/contracts.h"

namespace dmt {
namespace matrix {

MP1BatchedFD::MP1BatchedFD(size_t num_sites, double eps)
    : eps_(eps),
      network_(num_sites),
      coordinator_sketch_(sketch::FrequentDirections::WithEpsilon(eps / 2)) {
  DMT_CHECK_GT(eps, 0.0);
  DMT_CHECK_LE(eps, 1.0);
  site_sketches_.reserve(num_sites);
  for (size_t i = 0; i < num_sites; ++i) {
    site_sketches_.push_back(
        sketch::FrequentDirections::WithEpsilon(eps / 2));
  }
  site_frob_.assign(num_sites, 0.0);
  site_fest_.assign(num_sites, 0.0);
  outbox_.resize(num_sites);
}

void MP1BatchedFD::ProcessRow(size_t site, const std::vector<double>& row) {
  SiteUpdate(site, row);
  DrainSite(site);  // only this site can have queued anything
  // No final Compress(): the facade drains after every row, and a shrink
  // per flush would cost more than the row budget it buys.
  FoldDrainedRows();
}

void MP1BatchedFD::SiteUpdate(size_t site, const std::vector<double>& row) {
  DMT_CHECK_LT(site, site_sketches_.size());
  const double mass = linalg::SquaredNorm(row);
  // A zero row changes neither A^T A nor any F_i, but with tau = 0 (no
  // broadcast seen yet) it would still flush and re-broadcast F-hat = 0.
  if (mass == 0.0) return;
  site_sketches_[site].Append(row);
  site_frob_[site] += mass;

  const double m = static_cast<double>(network_.num_sites());
  // site_fest_ is the F-hat of the last broadcast the site has seen; it
  // only changes in Synchronize(), so this read is round-stable.
  const double tau = (eps_ / (2.0 * m)) * site_fest_[site];
  if (site_frob_[site] >= tau) EmitFlush(site);
}

void MP1BatchedFD::EmitFlush(size_t site) {
  sketch::FrequentDirections& sk = site_sketches_[site];
  // Each sketch row travels as one vector message; the scalar F_i
  // piggybacks on the batch (the paper's Algorithm 5.1 sends "(B_i, F_i)"
  // as one payload of |B_i| rows). An empty sketch still costs the scalar.
  for (size_t r = 0; r < sk.rows(); ++r) network_.RecordVector(site);
  if (sk.rows() == 0) network_.RecordScalar(site);

  Outbox& out = outbox_[site];
  out.rows.AppendRows(sk.sketch());
  out.frobs.push_back(site_frob_[site]);
  sk.Reset();
  site_frob_[site] = 0.0;
}

DMT_NO_ALLOC
void MP1BatchedFD::DrainSite(size_t site) {
  Outbox& out = outbox_[site];
  for (double frob : out.frobs) {
    coordinator_frob_ += frob;
    if (broadcast_frob_ == 0.0 ||
        coordinator_frob_ / broadcast_frob_ > 1.0 + eps_ / 2.0) {
      broadcast_frob_ = coordinator_frob_;
      network_.RecordBroadcast();
      network_.RecordRound();
      for (auto& f : site_fest_) f = broadcast_frob_;
    }
  }
  out.frobs.clear();
  StageRows(out.rows);
  out.rows.ClearRows();
}

DMT_ALLOC_OK("grows the staging matrix only past the largest drain so far; later drains reuse its capacity")
void MP1BatchedFD::StageRows(const linalg::Matrix& rows) {
  drained_rows_.AppendRows(rows);
}

DMT_NO_ALLOC
void MP1BatchedFD::FoldDrainedRows() {
  coordinator_sketch_.AppendRows(drained_rows_);
  drained_rows_.ClearRows();
}

DMT_NO_ALLOC
void MP1BatchedFD::Synchronize() {
  for (size_t s = 0; s < outbox_.size(); ++s) DrainSite(s);
  FoldDrainedRows();
  coordinator_sketch_.Compress();
}

DMT_NO_ALLOC
void MP1BatchedFD::SynchronizeSites(const uint32_t* sites, size_t count) {
  for (size_t i = 0; i < count; ++i) DrainSite(sites[i]);
  FoldDrainedRows();
  coordinator_sketch_.Compress();
}

linalg::Matrix MP1BatchedFD::CoordinatorSketch() const {
  return coordinator_sketch_.sketch();
}

const stream::CommStats& MP1BatchedFD::comm_stats() const {
  return network_.stats();
}

}  // namespace matrix
}  // namespace dmt
