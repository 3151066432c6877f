#include "matrix/mp3_sampling.h"

#include <algorithm>
#include <cmath>

#include "linalg/vec_ops.h"
#include "util/check.h"

namespace dmt {
namespace matrix {
MP3SamplingWoR::MP3SamplingWoR(size_t num_sites, double eps, uint64_t seed,
                               size_t sample_size)
    : MatrixProtocolCore(num_sites, /*initial_view=*/1.0),
      s_(sample_size != 0 ? sample_size : hh::SampleSizeForEpsilon(eps)),
      site_rngs_(MakeSiteRngs(num_sites, seed)) {}

void MP3SamplingWoR::SiteStep(size_t site, const std::vector<double>& row) {
  DMT_CHECK_LT(site, site_rngs_.size());
  const double w = linalg::SquaredNorm(row);
  if (w <= 0.0) return;  // zero rows carry no covariance mass
  const double rho = w / site_rngs_[site].NextDoublePositive();
  // The view only moves at a drain; within a round every site compares
  // against the threshold of the last broadcast it has seen.
  if (rho < view(site)) return;
  Emit(site, MP3SampledRow{row, w, rho});
}

void MP3SamplingWoR::Apply(size_t, MP3SampledRow& sr) {
  for (size_t n = hh::PoolSampled(std::move(sr), threshold(), s_, &q_cur_,
                                  &q_next_);
       n > 0; --n) {
    tau_ever_doubled_ = true;
    Broadcast(2.0 * threshold());
  }
}

linalg::Matrix MP3SamplingWoR::CoordinatorSketch() const {
  linalg::Matrix b;
  std::vector<const MP3SampledRow*> pool;
  pool.reserve(q_cur_.size() + q_next_.size());
  for (const auto& e : q_cur_) pool.push_back(&e);
  for (const auto& e : q_next_) pool.push_back(&e);
  if (pool.empty()) return b;

  // While the threshold never doubled, every row was forwarded: B = A.
  if (!tau_ever_doubled_) {
    for (const auto* e : pool) b.AppendRow(e->row);
    return b;
  }

  // Priority-sampling estimate: the smallest priority acts as rho-hat and
  // its row is dropped; every kept row is rescaled to squared norm
  // max(w, rho-hat).
  auto min_it = std::min_element(
      pool.begin(), pool.end(),
      [](const MP3SampledRow* a, const MP3SampledRow* b) {
        return a->priority < b->priority;
      });
  const double rho_hat = (*min_it)->priority;
  for (const auto* e : pool) {
    if (e == *min_it) continue;
    if (e->weight >= rho_hat) {
      b.AppendRow(e->row);
    } else {
      std::vector<double> scaled = e->row;
      linalg::Scale(std::sqrt(rho_hat / e->weight), scaled.data(),
                    scaled.size());
      b.AppendRow(scaled);
    }
  }
  return b;
}

MP3SamplingWR::MP3SamplingWR(size_t num_sites, double eps, uint64_t seed,
                             size_t sample_size)
    : MatrixProtocolCore(num_sites, /*initial_view=*/1.0),
      s_(sample_size != 0 ? sample_size : hh::SampleSizeForEpsilon(eps)),
      site_rngs_(MakeSiteRngs(num_sites, seed)),
      slots_(s_) {}

void MP3SamplingWR::SiteStep(size_t site, const std::vector<double>& row) {
  DMT_CHECK_LT(site, site_rngs_.size());
  const double w = linalg::SquaredNorm(row);
  if (w <= 0.0) return;
  MP3Sends sends{{}, w,
                 hh::SampleHits(&site_rngs_[site], w, view(site), s_)};
  if (sends.hits.empty()) return;
  sends.row = row;
  Emit(site, std::move(sends));
}

void MP3SamplingWR::Apply(size_t, MP3Sends& sends) {
  for (size_t n = slots_.Offer(sends.hits, Item{std::move(sends.row),
                                                sends.weight},
                               broadcast_value());
       n > 0; --n) {
    Broadcast(2.0 * broadcast_value());
  }
}

linalg::Matrix MP3SamplingWR::CoordinatorSketch() const {
  // W-hat = mean of the per-sampler second priorities (unbiased for W);
  // each sampled row is rescaled to carry exactly W-hat/s squared norm.
  linalg::Matrix b;
  size_t live;
  const double what = slots_.MeanSecond(&live);
  if (live == 0) return b;
  const double target = what / static_cast<double>(live);
  for (const auto& slot : slots_.slots()) {
    if (slot.top <= 0.0) continue;
    std::vector<double> scaled = slot.item.row;
    linalg::Scale(std::sqrt(target / slot.item.weight), scaled.data(),
                  scaled.size());
    b.AppendRow(scaled);
  }
  return b;
}

}  // namespace matrix
}  // namespace dmt
