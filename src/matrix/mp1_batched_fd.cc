#include "matrix/mp1_batched_fd.h"

#include "linalg/vec_ops.h"
#include "util/check.h"
#include "util/contracts.h"

namespace dmt {
namespace matrix {

void MP1FlushOutbox::push_back(const MP1Flush& f) {
  if (f.count > 0) rows_.AppendRows(f.rows, f.count, f.cols);
  ends_.push_back(rows_.rows());
  frobs_.push_back(f.frob);
}

MP1Flush MP1FlushOutbox::operator[](size_t i) const {
  const size_t begin = i == 0 ? 0 : ends_[i - 1];
  return MP1Flush{rows_.Row(begin), ends_[i] - begin, rows_.cols(),
                  frobs_[i]};
}

void MP1FlushOutbox::clear() {
  rows_.ClearRows();
  ends_.clear();
  frobs_.clear();
}

MP1BatchedFD::MP1BatchedFD(size_t num_sites, double eps)
    : MatrixProtocolCore(num_sites),
      eps_(eps),
      coordinator_sketch_(sketch::FrequentDirections::WithEpsilon(eps / 2)) {
  DMT_CHECK_GT(eps, 0.0);
  DMT_CHECK_LE(eps, 1.0);
  site_sketches_.reserve(num_sites);
  for (size_t i = 0; i < num_sites; ++i) {
    site_sketches_.push_back(
        sketch::FrequentDirections::WithEpsilon(eps / 2));
  }
  site_frob_.assign(num_sites, 0.0);
}

void MP1BatchedFD::ProcessRow(size_t site, const std::vector<double>& row) {
  SerialStep(site, row);
  FoldDrainedRows();
}

void MP1BatchedFD::SiteStep(size_t site, const std::vector<double>& row) {
  DMT_CHECK_LT(site, site_sketches_.size());
  const double mass = linalg::SquaredNorm(row);
  // A zero row changes neither A^T A nor any F_i, but with tau = 0 (no
  // broadcast seen yet) it would still flush and re-broadcast F-hat = 0.
  if (mass == 0.0) return;
  sketch::FrequentDirections& sk = site_sketches_[site];
  sk.Append(row);
  site_frob_[site] += mass;

  const double m = static_cast<double>(num_sites());
  // The F-hat of the last broadcast the site has seen; it only changes at
  // a drain, so this read is round-stable.
  const double tau = (eps_ / (2.0 * m)) * view(site);
  if (site_frob_[site] < tau) return;
  Emit(site, MP1Flush{sk.sketch().Row(0), sk.rows(), sk.sketch().cols(),
                      site_frob_[site]});
  sk.Reset();
  site_frob_[site] = 0.0;
}

DMT_NO_ALLOC
void MP1BatchedFD::Apply(size_t, const MP1Flush& flush) {
  coordinator_frob_ += flush.frob;
  const double fest = broadcast_value();
  if (fest == 0.0 || coordinator_frob_ / fest > 1.0 + eps_ / 2.0) {
    Broadcast(coordinator_frob_);
  }
  StageRows(flush);
}

void MP1BatchedFD::Encode(const MP1Flush& f, ByteWriter* w) {
  w->Put<double>(f.frob);
  w->Put<uint32_t>(static_cast<uint32_t>(f.count));
  w->Put<uint32_t>(static_cast<uint32_t>(f.cols));
  w->PutBytes(f.rows, f.count * f.cols * sizeof(double));
}

DMT_UNTRUSTED_INPUT
bool MP1BatchedFD::Decode(ByteReader* r, MP1WireFlush* f) const {
  f->frob = r->Get<double>();
  f->count = r->Get<uint32_t>();
  f->cols = r->Get<uint32_t>();
  if (!r->ok() || !(f->frob > 0.0) || f->cols != r->row_width() ||
      f->cols == 0 || f->count > r->remaining() / (f->cols * sizeof(double))) {
    return false;
  }
  f->rows.resize(f->count * f->cols);
  return r->GetDoubles(f->rows.data(), f->rows.size());
}

DMT_ALLOC_OK("grows the staging matrix only past the largest drain so far; later drains reuse its capacity")
void MP1BatchedFD::StageRows(const MP1Flush& flush) {
  if (flush.count > 0) {
    drained_rows_.AppendRows(flush.rows, flush.count, flush.cols);
  }
}

DMT_NO_ALLOC
void MP1BatchedFD::FoldDrainedRows() {
  coordinator_sketch_.AppendRows(drained_rows_);
  drained_rows_.ClearRows();
}

DMT_NO_ALLOC
void MP1BatchedFD::EndWindow() {
  FoldDrainedRows();
  coordinator_sketch_.Compress();
}

linalg::Matrix MP1BatchedFD::CoordinatorSketch() const {
  return coordinator_sketch_.sketch();
}

}  // namespace matrix
}  // namespace dmt
