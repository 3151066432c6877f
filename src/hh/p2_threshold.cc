#include "hh/p2_threshold.h"

#include "util/check.h"

namespace dmt {
namespace hh {

P2Threshold::P2Threshold(size_t num_sites, double eps,
                         const P2Options& options)
    : HHProtocolCore(num_sites), eps_(eps), options_(options) {
  DMT_CHECK_GT(eps, 0.0);
  DMT_CHECK_LE(eps, 1.0);
  site_weight_.assign(num_sites, 0.0);
  if (options_.site_counters > 0) {
    site_summary_.reserve(num_sites);
    for (size_t i = 0; i < num_sites; ++i) {
      site_summary_.emplace_back(options_.site_counters);
    }
    site_reported_.resize(num_sites);
  } else {
    site_delta_.resize(num_sites);
  }
}

void P2Threshold::SiteStep(size_t site, uint64_t element, double weight) {
  DMT_CHECK_LT(site, site_weight_.size());
  DMT_CHECK_GT(weight, 0.0);
  const double m = static_cast<double>(num_sites());

  site_weight_[site] += weight;
  double delta;
  if (options_.site_counters > 0) {
    // Bounded-space site: the pending delta is the summary's estimate
    // minus what has already been reported for this element.
    site_summary_[site].Update(element, weight);
    delta = site_summary_[site].Estimate(element) -
            site_reported_[site][element];
  } else {
    delta = (site_delta_[site][element] += weight);
  }

  // Both thresholds compare against the W-hat known before this arrival:
  // on the serial path the scalar report below may broadcast a new W-hat
  // before the element check, which must not see it.
  const double threshold = (eps_ / m) * view(site);

  // Scalar (total-weight) report. With W-hat == 0 (bootstrap) the
  // threshold is 0 and the report happens immediately.
  if (site_weight_[site] >= threshold) {
    Emit(site, P2Report{true, site_weight_[site], 0});
    site_weight_[site] = 0.0;
  }

  // Element report.
  if (delta >= threshold) {
    if (options_.site_counters > 0) {
      // SpaceSaving overestimates by up to its per-element error bound;
      // ship only the certain part so the coordinator never overcounts.
      const double certain =
          delta - site_summary_[site].ErrorBound(element);
      if (certain > 0.0) {
        Emit(site, P2Report{false, certain, element});
        site_reported_[site][element] += certain;
      }
    } else {
      Emit(site, P2Report{false, delta, element});
      site_delta_[site].erase(element);
    }
  }
}

void P2Threshold::Apply(size_t, const P2Report& r) {
  if (!r.is_scalar) {
    coordinator_weights_[r.element] += r.value;
    return;
  }
  coordinator_total_ += r.value;
  if (++scalar_msgs_since_broadcast_ >= num_sites()) {
    scalar_msgs_since_broadcast_ = 0;
    Broadcast(coordinator_total_);
  }
}

double P2Threshold::EstimateElementWeight(uint64_t element) const {
  auto it = coordinator_weights_.find(element);
  return it == coordinator_weights_.end() ? 0.0 : it->second;
}

double P2Threshold::EstimateTotalWeight() const { return coordinator_total_; }

std::vector<uint64_t> P2Threshold::TrackedElements() const {
  std::vector<uint64_t> out;
  out.reserve(coordinator_weights_.size());
  for (const auto& [e, w] : coordinator_weights_) out.push_back(e);
  return out;
}

}  // namespace hh
}  // namespace dmt
