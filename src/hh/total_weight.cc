#include "hh/total_weight.h"

#include "util/check.h"

namespace dmt {
namespace hh {

TotalWeightTracker::TotalWeightTracker(size_t num_sites)
    : unreported_(num_sites, 0.0) {}

double TotalWeightTracker::SitePendingReport(size_t site, double weight,
                                             double site_estimate) {
  DMT_CHECK_LT(site, unreported_.size());
  DMT_CHECK_GE(weight, 0.0);
  unreported_[site] += weight;

  const double m = static_cast<double>(unreported_.size());
  // Bootstrap: before any broadcast every observation is reported so the
  // estimate becomes positive immediately.
  const double report_threshold = site_estimate / (2.0 * m);
  if (unreported_[site] < report_threshold || unreported_[site] == 0.0) {
    return 0.0;
  }
  const double amount = unreported_[site];
  unreported_[site] = 0.0;
  return amount;
}

bool TotalWeightTracker::ApplyReport(double amount) {
  DMT_CHECK_GT(amount, 0.0);
  coordinator_weight_ += amount;
  if (broadcast_estimate_ == 0.0 ||
      coordinator_weight_ >= 1.5 * broadcast_estimate_) {
    broadcast_estimate_ = coordinator_weight_;
    return true;
  }
  return false;
}

}  // namespace hh
}  // namespace dmt
