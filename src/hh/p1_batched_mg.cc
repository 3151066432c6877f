#include "hh/p1_batched_mg.h"

#include <utility>

#include "util/check.h"
#include "util/contracts.h"

namespace dmt {
namespace hh {

P1BatchedMG::P1BatchedMG(size_t num_sites, double eps)
    : HHProtocolCore(num_sites),
      eps_(eps),
      coordinator_summary_(sketch::WeightedMisraGries::WithEpsilon(eps / 2)) {
  DMT_CHECK_GT(eps, 0.0);
  DMT_CHECK_LE(eps, 1.0);
  site_summaries_.reserve(num_sites);
  for (size_t i = 0; i < num_sites; ++i) {
    site_summaries_.push_back(
        sketch::WeightedMisraGries::WithEpsilon(eps / 2));
  }
  site_weight_.assign(num_sites, 0.0);
}

void P1BatchedMG::SiteStep(size_t site, uint64_t element, double weight) {
  DMT_CHECK_LT(site, site_summaries_.size());
  DMT_CHECK_GT(weight, 0.0);
  site_summaries_[site].Update(element, weight);
  site_weight_[site] += weight;

  const double m = static_cast<double>(num_sites());
  // The W-hat of the last broadcast the site has seen; it only changes at
  // a drain, so this read is round-stable.
  const double tau = (eps_ / (2.0 * m)) * view(site);
  // Before the first broadcast tau is 0 and every item triggers a flush;
  // this is the bootstrap the paper leaves implicit.
  if (site_weight_[site] < tau) return;
  // Move, don't copy: Clear() below fully re-initializes the moved-from
  // summary (k is untouched by the move; counters/weights are reset).
  Emit(site, P1Flush{std::move(site_summaries_[site]), site_weight_[site]});
  site_summaries_[site].Clear();
  site_weight_[site] = 0.0;
}

void P1BatchedMG::Apply(size_t, const P1Flush& flush) {
  coordinator_summary_.Merge(flush.summary);
  coordinator_weight_ += flush.weight;

  const double west = broadcast_value();
  if (west == 0.0 || coordinator_weight_ / west > 1.0 + eps_ / 2.0) {
    Broadcast(coordinator_weight_);
  }
}

void P1BatchedMG::Encode(const P1Flush& flush, ByteWriter* w) {
  w->Put<double>(flush.weight);
  w->Put<uint32_t>(static_cast<uint32_t>(flush.summary.k()));
  w->Put<double>(flush.summary.total_weight());
  w->Put<double>(flush.summary.total_decrement());
  w->Field(flush.summary.Items());
}

DMT_UNTRUSTED_INPUT
bool P1BatchedMG::Decode(ByteReader* r, P1Flush* flush) const {
  flush->weight = r->Get<double>();
  const uint32_t k = r->Get<uint32_t>();
  const double total_weight = r->Get<double>();
  const double total_decrement = r->Get<double>();
  std::vector<std::pair<uint64_t, double>> counters;
  // Merge requires this run's k; RestoreState checks the counters.
  if (!r->ok() || k != coordinator_summary_.k() || !(flush->weight > 0.0) ||
      !r->Field(counters)) {
    return false;
  }
  return flush->summary.RestoreState(k, total_weight, total_decrement,
                                     counters);
}

double P1BatchedMG::EstimateElementWeight(uint64_t element) const {
  return coordinator_summary_.Estimate(element);
}

double P1BatchedMG::EstimateTotalWeight() const {
  return coordinator_weight_;
}

std::vector<uint64_t> P1BatchedMG::TrackedElements() const {
  std::vector<uint64_t> out;
  for (const auto& [e, w] : coordinator_summary_.Items()) out.push_back(e);
  return out;
}

}  // namespace hh
}  // namespace dmt
