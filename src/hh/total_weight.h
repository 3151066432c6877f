// Distributed 2-approximate total-weight tracking.
//
// Several protocols (P4, MP4) need every site to know an estimate W-hat
// with W-hat <= W <= 2*W-hat at all times (w.h.p. / deterministically).
// This helper implements the standard scheme: each site reports its
// unreported weight once it exceeds a (1/2m) fraction of the current
// estimate, and the coordinator re-broadcasts once its exact tally of
// reported weight grows by a factor 1.5. Deterministic argument:
//   W <= W_C + m * (W-hat / 2m) <= 1.5*W-hat + 0.5*W-hat = 2*W-hat.
//
// The site half (SitePendingReport) touches only per-site state and the
// estimate the site last received, so it may run concurrently for distinct
// sites; the coordinator half (ApplyReport) runs at delivery. The tracker
// counts no messages: the owner ships each reported amount as a scalar
// message and broadcasts the new estimate when ApplyReport signals it.
#ifndef DMT_HH_TOTAL_WEIGHT_H_
#define DMT_HH_TOTAL_WEIGHT_H_

#include <cstddef>
#include <vector>


namespace dmt {
namespace hh {

/// Coordinator+sites total-weight tracker.
class TotalWeightTracker {
 public:
  explicit TotalWeightTracker(size_t num_sites);

  /// Site half: folds `weight` into the site's unreported mass; when the
  /// report threshold against `site_estimate` (the broadcast estimate the
  /// site last received) crosses, returns the amount to report (the site
  /// resets). Returns 0.0 when no report fires. Safe to call concurrently
  /// for distinct sites.
  double SitePendingReport(size_t site, double weight, double site_estimate);

  /// Coordinator half: folds a reported amount (> 0) into the exact tally
  /// and re-broadcasts when it grew enough. Returns true when the owner
  /// must broadcast broadcast_estimate().
  bool ApplyReport(double amount);

  /// The last estimate broadcast: W-hat <= W <= 2*W-hat once bootstrapped.
  double broadcast_estimate() const { return broadcast_estimate_; }

  /// Coordinator's exact tally of reported weight (a lower bound on W).
  double coordinator_weight() const { return coordinator_weight_; }

 private:
  std::vector<double> unreported_;  // per-site weight since last report
  double coordinator_weight_ = 0.0;
  double broadcast_estimate_ = 0.0;
};

}  // namespace hh
}  // namespace dmt

#endif  // DMT_HH_TOTAL_WEIGHT_H_
