#include "hh/p3_sampling.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "util/check.h"

namespace dmt {
namespace hh {

size_t SampleSizeForEpsilon(double eps) {
  DMT_CHECK_GT(eps, 0.0);
  DMT_CHECK_LE(eps, 1.0);
  const double inv = 1.0 / eps;
  const double s = inv * inv * std::max(1.0, std::log(inv));
  return static_cast<size_t>(std::max(8.0, std::ceil(s)));
}

std::vector<std::pair<uint64_t, double>> SampleHits(Rng* rng, double weight,
                                                    double tau, size_t s) {
  std::vector<std::pair<uint64_t, double>> hits;
  // Success probability per sampler: P[rho >= tau] = min(1, w/tau).
  const double p = std::min(1.0, weight / tau);
  if (p <= 0.0) return hits;
  // Geometric skips over the s samplers visit exactly the successes.
  const auto skip = [&] {
    return p >= 1.0 ? size_t{0}
                    : static_cast<size_t>(std::log(rng->NextDoublePositive()) /
                                          std::log(1.0 - p));
  };
  for (size_t t = skip(); t < s; t += 1 + skip()) {
    // Priority conditioned on success: u ~ Unif(0, min(1, w/tau)].
    const double u = rng->NextDoublePositive() * p;
    hits.emplace_back(t, weight / u);
  }
  return hits;
}

P3SamplingWoR::P3SamplingWoR(size_t num_sites, double eps, uint64_t seed,
                             size_t sample_size)
    : HHProtocolCore(num_sites, /*initial_view=*/1.0),
      s_(sample_size != 0 ? sample_size : SampleSizeForEpsilon(eps)),
      site_rngs_(MakeSiteRngs(num_sites, seed)) {
  q_cur_.reserve(s_ + 1);
  q_next_.reserve(s_ + 1);
}

void P3SamplingWoR::SiteStep(size_t site, uint64_t element, double weight) {
  DMT_CHECK_LT(site, site_rngs_.size());
  DMT_CHECK_GT(weight, 0.0);
  sketch::PriorityEntry e{element, weight,
                          weight / site_rngs_[site].NextDoublePositive()};
  // The view only moves at a drain; within a round every site compares
  // against the threshold of the last broadcast, exactly like a real site
  // that has not yet seen the next one.
  if (e.priority < view(site)) return;  // not sampled; no message
  Emit(site, e);
}

void P3SamplingWoR::Apply(size_t, const sketch::PriorityEntry& e) {
  for (size_t n = PoolSampled(e, threshold(), s_, &q_cur_, &q_next_); n > 0;
       --n) {
    tau_ever_doubled_ = true;
    Broadcast(2.0 * threshold());
  }
}

std::vector<sketch::PriorityEntry> P3SamplingWoR::CurrentSample() const {
  std::vector<sketch::PriorityEntry> pool = q_cur_;
  pool.insert(pool.end(), q_next_.begin(), q_next_.end());
  // While tau has never doubled every arriving item was forwarded (weights
  // are >= 1 = tau), so the pool *is* the stream and estimates are exact.
  if (!tau_ever_doubled_) return pool;
  return sketch::AdjustedSample(std::move(pool));
}

double P3SamplingWoR::EstimateElementWeight(uint64_t element) const {
  double sum = 0.0;
  for (const auto& e : CurrentSample()) {
    if (e.element == element) sum += e.weight;
  }
  return sum;
}

double P3SamplingWoR::EstimateTotalWeight() const {
  double sum = 0.0;
  for (const auto& e : CurrentSample()) sum += e.weight;
  return sum;
}

std::vector<uint64_t> P3SamplingWoR::TrackedElements() const {
  std::unordered_set<uint64_t> seen;
  for (const auto& e : q_cur_) seen.insert(e.element);
  for (const auto& e : q_next_) seen.insert(e.element);
  // dmt-lint: allow(determinism-unordered-iter): drained into a vector and
  // sorted below so callers observe a replay-stable order.
  std::vector<uint64_t> out(seen.begin(), seen.end());
  std::sort(out.begin(), out.end());
  return out;
}

P3SamplingWR::P3SamplingWR(size_t num_sites, double eps, uint64_t seed,
                           size_t sample_size)
    : HHProtocolCore(num_sites, /*initial_view=*/1.0),
      s_(sample_size != 0 ? sample_size : SampleSizeForEpsilon(eps)),
      site_rngs_(MakeSiteRngs(num_sites, seed)),
      slots_(s_) {}

void P3SamplingWR::SiteStep(size_t site, uint64_t element, double weight) {
  DMT_CHECK_LT(site, site_rngs_.size());
  DMT_CHECK_GT(weight, 0.0);
  P3Sends sends{element, weight,
                SampleHits(&site_rngs_[site], weight, view(site), s_)};
  if (!sends.hits.empty()) Emit(site, std::move(sends));
}

void P3SamplingWR::Apply(size_t, const P3Sends& sends) {
  for (size_t n = slots_.Offer(sends.hits, Item{sends.element, sends.weight},
                               broadcast_value());
       n > 0; --n) {
    Broadcast(2.0 * broadcast_value());
  }
}

double P3SamplingWR::EstimateTotalWeight() const {
  size_t live;
  return slots_.MeanSecond(&live);
}

double P3SamplingWR::EstimateElementWeight(uint64_t element) const {
  size_t live;
  const double what = slots_.MeanSecond(&live);
  size_t hits = 0;
  for (const auto& slot : slots_.slots()) {
    if (slot.top > 0.0 && slot.item.element == element) ++hits;
  }
  if (live == 0) return 0.0;
  return what * static_cast<double>(hits) / static_cast<double>(live);
}

std::vector<uint64_t> P3SamplingWR::TrackedElements() const {
  std::unordered_set<uint64_t> seen;
  for (const auto& slot : slots_.slots()) {
    if (slot.top > 0.0) seen.insert(slot.item.element);
  }
  // dmt-lint: allow(determinism-unordered-iter): drained into a vector and
  // sorted below so callers observe a replay-stable order.
  std::vector<uint64_t> out(seen.begin(), seen.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace hh
}  // namespace dmt
